import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperx import tensor
from hyperx.errors import InputError
from hyperx.layers import BatchNorm1d, Dropout
from hyperx.tensor import (
    Tensor,
    _make_output,
    add,
    backward,
    SEGMENT_CHUNK,
    batch_norm,
    batch_norm_relu_pool,
    concat,
    conv1d,
    dropout,
    global_avg_pool,
    grad_check,
    kron_sum,
    kron_sum_taps,
    linear,
    mul,
    no_grad,
    phm_linear,
    relu,
    relu_,
    reshape,
    softmax_cross_entropy,
    tape_scope,
    tensor_sum,
    zero_grads,
)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def linear_loop_oracle(x, w, b):
    batch, d_in = x.shape
    d_out = w.shape[0]
    out = np.zeros((batch, d_out))
    for i in range(batch):
        for j in range(d_out):
            acc = b[j] if b is not None else 0.0
            for t in range(d_in):
                acc += x[i, t] * w[j, t]
            out[i, j] = acc
    return out


def test_linear_identity():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(linear(x, Tensor(np.eye(2))).data, [[1, 2], [3, 4]])


def test_linear_row_times_column():
    y = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    np.testing.assert_array_equal(y.data, [[11.0]])


def test_linear_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    x, w, b = rng.standard_normal((4, 5)), rng.standard_normal((3, 5)), rng.standard_normal(3)
    np.testing.assert_allclose(linear(Tensor(x), Tensor(w)).data, linear_loop_oracle(x, w, None), atol=1e-12)
    got = linear(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, linear_loop_oracle(x, w, b), atol=1e-12)


def test_linear_shape_error_names_both_shapes():
    with pytest.raises(InputError, match=r"\(2, 3\).*\(4, 5\)"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_linear_backward():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    with tape_scope():
        backward(tensor_sum(linear(x, w, b)))
    ones = np.ones((4, 3))
    np.testing.assert_allclose(x.grad, ones @ w.data, atol=1e-12)
    np.testing.assert_allclose(w.grad, ones.T @ x.data, atol=1e-12)
    np.testing.assert_allclose(b.grad, ones.sum(axis=0), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(1, 5),
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
# a bias gradient of -8.2e-5 under f = 4.9, whose two central differences differ by rounding alone
@example(batch=5, d_in=6, d_out=1, bias=True, seed=574)
def test_linear_property_forward_and_vjps(batch, d_in, d_out, bias, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, d_in)), requires_grad=True)
    w = Tensor(rng.standard_normal((d_out, d_in)), requires_grad=True)
    b = Tensor(rng.standard_normal(d_out), requires_grad=True) if bias else None
    y = linear(x, w, b).data
    np.testing.assert_allclose(y, linear_loop_oracle(x.data, w.data, None if b is None else b.data), atol=1e-12)
    # a random upstream array, so every output element weighs differently
    g = Tensor(rng.standard_normal(y.shape))

    def f(_t):
        return tensor_sum(mul(linear(x, w, b), g))

    for target in (x, w) if b is None else (x, w, b):
        report = grad_check(f, target, tol=1e-6, max_probes=48)
        assert report.passed, (target.shape, report)


# ---------------------------------------------------------------------------
# phm_linear
# ---------------------------------------------------------------------------


def _output_and_grads(op, x, a, f, b, g):
    """op(x, a, f, b) and the gradients of sum(op * g) at every input."""
    inputs = [t for t in (x, a, f, b) if t is not None]
    zero_grads(inputs)
    with tape_scope():
        y = op(x, a, f, b)
        backward(tensor_sum(mul(y, g)))
    return [y.data] + [t.grad for t in inputs]


def _built_weight_linear(x, a, f, b):
    return linear(x, kron_sum(a, f), b)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 5),
    p=st.integers(1, 5),
    q=st.integers(1, 5),
    r=st.integers(1, 4),
    s=st.integers(1, 4),
    batch=st.integers(1, 5),
    bias=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_phm_linear_matches_linear_over_the_built_weight(n, p, q, r, s, batch, bias, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, q * s)), requires_grad=True)
    a = Tensor(rng.standard_normal((n, p, q)), requires_grad=True)
    f = Tensor(rng.standard_normal((n, r, s)), requires_grad=True)
    b = Tensor(rng.standard_normal(p * r), requires_grad=True) if bias else None
    g = Tensor(rng.standard_normal((batch, p * r)))
    got = _output_and_grads(phm_linear, x, a, f, b, g)
    want = _output_and_grads(_built_weight_linear, x, a, f, b, g)
    for name, u, v in zip(("y", "dx", "da", "df", "db"), got, want):
        assert u.shape == v.shape, name
        np.testing.assert_allclose(u, v, rtol=0, atol=1e-12 * np.abs(v).max(), err_msg=name)


def _second_vjp_and_fresh_vjp(op, g1, g2):
    """The VJP of the node ``op()`` records, called with g1 and then g2, and
    the VJP of a fresh node of the same op called with g2 alone."""
    vjps = []
    for _ in range(2):
        with tape_scope() as tape:
            op()
            (node,) = tape.nodes
        vjps.append(node.vjp)
    first, second = vjps[0](g1), vjps[0](g2)
    return first, second, vjps[1](g2)


def test_phm_linear_second_backward_does_not_reuse_first_upstream():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    a = Tensor(rng.standard_normal((2, 2, 2)), requires_grad=True)
    f = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    g1, g2 = (rng.standard_normal((3, 6)) for _ in range(2))
    want = _output_and_grads(_built_weight_linear, x, a, f, None, Tensor(g2))[1:]
    _, second, alone = _second_vjp_and_fresh_vjp(lambda: phm_linear(x, a, f), g1, g2)
    for got, fresh, w in zip(second, alone, want):
        np.testing.assert_array_equal(got, fresh)
        np.testing.assert_allclose(got, w, rtol=0, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize(
    "x_shape,a_shape,f_shape",
    [
        ((2, 3, 4), (2, 2, 2), (2, 3, 2)),
        ((4,), (2, 2, 2), (2, 3, 2)),
        ((2, 4), (2, 2), (2, 3, 2)),
        ((2, 4), (2, 2, 2), (2, 3, 2, 1)),
    ],
)
def test_phm_linear_rejects_wrong_ranks(x_shape, a_shape, f_shape):
    with pytest.raises(InputError, match="phm_linear"):
        phm_linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(a_shape)), Tensor(np.zeros(f_shape)))


def test_phm_linear_shape_errors_name_both_shapes():
    a, f = Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 3, 2)))
    with pytest.raises(InputError, match=r"\(3, 6\).*\(2, 2, 2\).*\(2, 3, 2\)"):
        phm_linear(Tensor(np.zeros((3, 6))), a, f)
    with pytest.raises(InputError, match=r"\(2, 2, 2\).*\(3, 3, 2\)"):
        phm_linear(Tensor(np.zeros((3, 4))), a, Tensor(np.zeros((3, 3, 2))))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


def swap_bc(a):
    """[B, C, L] <-> channel-major [C, B, L], the layout of conv1d, 3-D batch_norm and global_avg_pool."""
    return a.transpose(1, 0, 2)


def conv_loop_oracle(x, w, b, stride, padding):
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    Lout = (L + 2 * padding - K) // stride + 1
    out = np.zeros((B, Cout, Lout))
    for bi in range(B):
        for co in range(Cout):
            for lo in range(Lout):
                acc = b[co] if b is not None else 0.0
                for ci in range(Cin):
                    for k in range(K):
                        acc += xp[bi, ci, lo * stride + k] * w[co, ci, k]
                out[bi, co, lo] = acc
    return out


def test_conv1d_identity_kernel():
    y = conv1d(Tensor([[[1.0, 2.0, 3.0]]]), Tensor([[[1.0]]]))
    np.testing.assert_array_equal(y.data, [[[1, 2, 3]]])


def test_conv1d_moving_sum():
    y = conv1d(Tensor([[[1.0, 2.0, 3.0, 4.0]]]), Tensor([[[1.0, 1.0]]]))
    np.testing.assert_array_equal(y.data, [[[3, 5, 7]]])


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 0), (2, 3), (3, 1)])
def test_conv1d_matches_loop_oracle(stride, padding):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 16))
    w = rng.standard_normal((4, 3, 3))
    b = rng.standard_normal(4)
    got = swap_bc(conv1d(Tensor(swap_bc(x)), Tensor(w), Tensor(b), stride=stride, padding=padding).data)
    np.testing.assert_allclose(got, conv_loop_oracle(x, w, b, stride, padding), atol=1e-12)


def test_conv1d_kernel_too_large():
    with pytest.raises(InputError, match="larger than padded input"):
        conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))


def test_conv1d_output_length():
    y = conv1d(Tensor(swap_bc(np.zeros((1, 2, 13)))), Tensor(np.zeros((3, 2, 4))), stride=3, padding=2)
    assert swap_bc(y.data).shape == (1, 3, (13 + 4 - 4) // 3 + 1)


@st.composite
def conv_geometries(draw):
    k = draw(st.integers(1, 7))
    padding = draw(st.integers(0, 3))
    length = draw(st.integers(max(1, k - 2 * padding), 20))
    return dict(
        batch=draw(st.integers(1, 3)),
        c_in=draw(st.integers(1, 4)),
        c_out=draw(st.integers(1, 4)),
        length=length,
        k=k,
        stride=draw(st.integers(1, 3)),
        padding=padding,
        seed=draw(st.integers(0, 2**16)),
    )


# the encoders' own geometry: kernel 7, stride 2, padding 3
ENCODER_GEOMETRY = dict(batch=2, c_in=4, c_out=3, length=19, k=7, stride=2, padding=3, seed=0)


def conv_vjp_one_gemm(x, w, g, stride, padding):
    """conv1d's (dx, dw) for channel-major x [Cin, B, L] and upstream g
    [Cout, B, Lout], each from one GEMM over the whole batch's im2col columns."""
    Cin, B, L = x.shape
    Cout, _, K = w.shape
    Lout = g.shape[2]
    span = stride * (Lout - 1) + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    cols = np.stack([xp[:, :, k : k + span : stride] for k in range(K)], axis=1).reshape(Cin * K, B * Lout)
    g2 = g.reshape(Cout, B * Lout)
    dcols = (w.reshape(Cout, Cin * K).T @ g2).reshape(Cin, K, B, Lout)
    dxp = np.zeros_like(xp)
    for k in range(K):
        dxp[:, :, k : k + span : stride] += dcols[:, k]
    return dxp[:, :, padding : padding + L], (g2 @ cols.T).reshape(w.shape)


@settings(max_examples=25, deadline=None)
@given(conv_geometries())
@example(ENCODER_GEOMETRY)
# past one VJP chunk: a full second chunk and a one-segment third
@example({**ENCODER_GEOMETRY, "batch": SEGMENT_CHUNK + 1, "seed": 1})
@example(dict(batch=2 * SEGMENT_CHUNK + 1, c_in=3, c_out=2, length=9, k=3, stride=1, padding=1, seed=2))
def test_conv1d_property_forward_and_vjps(geom):
    rng = np.random.default_rng(geom["seed"])
    x = Tensor(swap_bc(rng.standard_normal((geom["batch"], geom["c_in"], geom["length"]))), requires_grad=True)
    w = Tensor(rng.standard_normal((geom["c_out"], geom["c_in"], geom["k"])), requires_grad=True)
    b = Tensor(rng.standard_normal(geom["c_out"]), requires_grad=True)
    stride, padding = geom["stride"], geom["padding"]
    y = conv1d(x, w, b, stride=stride, padding=padding).data
    np.testing.assert_allclose(swap_bc(y), conv_loop_oracle(swap_bc(x.data), w.data, b.data, stride, padding), atol=1e-12)
    # a random upstream array, so every output element weighs differently
    g = Tensor(rng.standard_normal(y.shape))
    with tape_scope() as tape:
        conv1d(x, w, b, stride=stride, padding=padding)
        dx, dw, db = tape.nodes[0].vjp(g.data)
    want_dx, want_dw = conv_vjp_one_gemm(x.data, w.data, g.data, stride, padding)
    np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, g.data.sum(axis=(1, 2)), rtol=0, atol=1e-12)

    def f(_t):
        return tensor_sum(mul(conv1d(x, w, b, stride=stride, padding=padding), g))

    for target in (x, w, b):
        report = grad_check(f, target, tol=1e-6, max_probes=48)
        assert report.passed, (target.shape, report)


# ---------------------------------------------------------------------------
# elementwise / reductions
# ---------------------------------------------------------------------------


def test_relu():
    np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])


def test_relu_vjp_is_the_x_gt_0_mask_at_signed_zeros():
    # the gradient is 0 at 0.0 and -0.0, as with the mask x > 0
    data = np.array([-2.0, -0.0, 0.0, 1e-300, -1e-300, 3.0])
    x = Tensor(data, requires_grad=True)
    g = np.arange(1.0, 7.0)
    with tape_scope():
        backward(tensor_sum(mul(relu(x), Tensor(g))))
    np.testing.assert_array_equal(x.grad, g * (data > 0))
    assert (relu(Tensor(data)).data >= 0).all()


def test_relu_records_no_node_under_no_grad():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    with tape_scope() as tape, no_grad():
        y = relu(x)
    assert len(tape) == 0 and not y.requires_grad


def test_relu__writes_into_its_input_and_matches_relu_bit_for_bit():
    rng = np.random.default_rng(4)
    data = np.concatenate([rng.standard_normal(20), [-0.0, 0.0, 1e-300, -1e-300]])
    g = Tensor(rng.standard_normal(data.size))
    outs, grads = [], []
    for op in (relu, relu_):
        x = Tensor(data, requires_grad=True)
        with tape_scope():
            h = mul(x, Tensor(1.0))  # a fresh op output that only the relu reads
            y = op(h)
            backward(tensor_sum(mul(y, g)))
        assert np.shares_memory(y.data, h.data) == (op is relu_)
        outs.append(y.data.tobytes())
        grads.append(x.grad.tobytes())
    assert outs[0] == outs[1]
    assert grads[0] == grads[1]


def test_relu__grad_check():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w, g = Tensor(rng.standard_normal((6, 5))), Tensor(rng.standard_normal((4, 6)))
    report = grad_check(lambda t: tensor_sum(mul(relu_(linear(t, w)), g)), x, tol=1e-6)
    assert report.passed, str(report)


def test_global_avg_pool_means():
    x = Tensor(swap_bc(np.array([[[1.0, 1.0, 1.0, 1.0], [2.0, 4.0, 6.0, 8.0]]])))
    np.testing.assert_array_equal(global_avg_pool(x).data, [[1.0, 5.0]])


def test_softmax_cross_entropy_uniform():
    loss = softmax_cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [0])
    assert abs(loss.item() - 1.0986122886681098) < 1e-12


def test_softmax_cross_entropy_label_error():
    with pytest.raises(InputError):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_softmax_cross_entropy_rejects_non_integer_labels():
    # astype(int64) would score [0.7, 2.9] as [0, 2]
    with pytest.raises(InputError, match="dtype float64; want integers"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0.7, 2.9])


def test_concat_and_backward():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    with tape_scope():
        y = concat([a, b], axis=1)
        assert y.shape == (2, 5)
        backward(tensor_sum(mul(y, y)))
    np.testing.assert_allclose(a.grad, 2 * np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, 2 * np.ones((2, 2)))


def test_reshape_and_transpose_roundtrip():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with tape_scope():
        # linear(I, w) = w.T: the transpose goes through linear's weight VJP
        y = linear(Tensor(np.eye(3)), reshape(x, (4, 3)))
        np.testing.assert_array_equal(y.data, x.data.reshape(4, 3).T)
        backward(tensor_sum(mul(y, y)))
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------


def _bn_parts(channels):
    return (
        Tensor(np.ones(channels), requires_grad=True),
        Tensor(np.zeros(channels), requires_grad=True),
        np.zeros(channels),
        np.ones(channels),
    )


def test_batch_norm_standardizes_over_batch_and_length():
    rng = np.random.default_rng(4)
    x = Tensor(swap_bc(5.0 + 3.0 * rng.standard_normal((8, 4, 16))))
    gamma, beta, rm, rv = _bn_parts(4)
    y = swap_bc(batch_norm(x, gamma, beta, rm, rv).data)
    np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=(0, 2)), 1.0, atol=1e-4)


def _batch_norm_1d(gamma, beta, rm, rv):
    """A BatchNorm1d holding the given affine parameters and running statistics."""
    bn = BatchNorm1d(len(rm))
    bn.gamma, bn.beta, bn.running_mean, bn.running_var = gamma, beta, rm, rv
    return bn


def test_batch_norm_eval_uses_running_stats():
    gamma, beta, rm, rv = _bn_parts(2)
    rm[:] = [1.0, -1.0]
    rv[:] = [4.0, 0.25]
    x = Tensor([[3.0, 0.0], [1.0, -1.0]])
    y = _batch_norm_1d(gamma, beta, rm, rv)(x, train=False).data
    np.testing.assert_allclose(y, [[1.0, 2.0], [0.0, 0.0]], atol=1e-4)


def test_batch_norm_updates_running_stats():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((16, 3)) * 2.0 + 7.0)
    gamma, beta, rm, rv = _bn_parts(3)
    batch_norm(x, gamma, beta, rm, rv)
    np.testing.assert_allclose(rm, 0.1 * x.data.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * x.data.var(axis=0), atol=1e-12)


def _bn_reference(x, gamma, beta, eps=1e-5):
    """Train-mode batch norm written out with numpy's own mean and var."""
    axes = (0,) if x.ndim == 2 else (0, 2)
    shape_c = (1, -1) if x.ndim == 2 else (1, -1, 1)
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    y = (x - mu.reshape(shape_c)) / np.sqrt(var.reshape(shape_c) + eps)
    return y * gamma.reshape(shape_c) + beta.reshape(shape_c), mu, var


BN_SHAPES = [(6, 3), (5, 4, 7)]


def bn_layout(a):
    """A [B, C] or [B, C, L] array in batch_norm's layout: [B, C] or [C, B, L], and back."""
    return a if a.ndim == 2 else swap_bc(a)


@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_train_matches_numpy_reference(shape):
    rng = np.random.default_rng(12)
    x = 2.0 + 3.0 * rng.standard_normal(shape)
    gamma, beta = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    rm, rv = rng.standard_normal(shape[1]), 1.0 + rng.random(shape[1])
    rm0, rv0 = rm.copy(), rv.copy()
    y = bn_layout(batch_norm(Tensor(bn_layout(x)), Tensor(gamma), Tensor(beta), rm, rv).data)
    want, mu, var = _bn_reference(x, gamma, beta)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rm, 0.9 * rm0 + 0.1 * mu, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rv, 0.9 * rv0 + 0.1 * var, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_eval_matches_numpy_reference(shape):
    rng = np.random.default_rng(13)
    x = rng.standard_normal(shape)
    gamma, beta = rng.standard_normal(shape[1]), rng.standard_normal(shape[1])
    rm, rv = rng.standard_normal(shape[1]), 1.0 + rng.random(shape[1])
    shape_c = (1, -1) if len(shape) == 2 else (1, -1, 1)
    bn = _batch_norm_1d(Tensor(gamma), Tensor(beta), rm.copy(), rv.copy())
    y = bn_layout(bn(Tensor(bn_layout(x)), train=False).data)
    want = (x - rm.reshape(shape_c)) / np.sqrt(rv.reshape(shape_c) + 1e-5) * gamma.reshape(shape_c)
    np.testing.assert_allclose(y, want + beta.reshape(shape_c), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_grad_check_with_one_upstream_for_all_inputs(shape, train):
    # x, gamma and beta all require grad, so every backward hands the same
    # upstream array to the three VJPs of the train op, and to the eval affine
    rng = np.random.default_rng(14)
    x = Tensor(bn_layout(rng.standard_normal(shape)), requires_grad=True)
    gamma = Tensor(1.0 + rng.standard_normal(shape[1]), requires_grad=True)
    beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    rm, rv = rng.standard_normal(shape[1]), 1.0 + rng.random(shape[1])
    g = Tensor(bn_layout(rng.standard_normal(shape)))
    bn = _batch_norm_1d(gamma, beta, rm, rv)

    def f(_t):
        return tensor_sum(mul(bn(x, train), g))

    for target in (x, gamma, beta):
        report = grad_check(f, target, tol=1e-6, max_probes=64)
        assert report.passed, (target.shape, report)


@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_second_backward_does_not_reuse_first_upstream(shape):
    rng = np.random.default_rng(15)
    x = Tensor(bn_layout(rng.standard_normal(shape)), requires_grad=True)
    gamma = Tensor(np.linspace(0.5, 1.5, shape[1]), requires_grad=True)
    beta = Tensor(np.zeros(shape[1]), requires_grad=True)
    g1, g2 = bn_layout(rng.standard_normal(shape)), bn_layout(rng.standard_normal(shape))

    def op():
        return batch_norm(x, gamma, beta, np.zeros(shape[1]), np.ones(shape[1]))

    first, second, alone = _second_vjp_and_fresh_vjp(op, g1, g2)
    for got, want in zip(second, alone):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert not np.allclose(first[0], second[0])


@pytest.mark.parametrize("shape", BN_SHAPES)
def test_batch_norm_backward_on_two_tapes_adds_the_same_gradient(shape):
    rng = np.random.default_rng(18)
    x_data = rng.standard_normal(shape)
    x = Tensor(bn_layout(x_data), requires_grad=True)
    gamma = Tensor(1.0 + rng.random(shape[1]), requires_grad=True)
    beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    g = rng.standard_normal(shape)
    # hand-derived: dx = gamma/sigma * (g - mean(g) - xhat*mean(g*xhat)), dgamma = sum(g*xhat), dbeta = sum(g)
    axes = (0,) if len(shape) == 2 else (0, 2)
    mean = lambda a: a.mean(axis=axes, keepdims=True)
    sigma = np.sqrt(x_data.var(axis=axes, keepdims=True) + 1e-5)
    xhat = (x_data - mean(x_data)) / sigma
    gamma_c = gamma.data.reshape((1, -1) if len(shape) == 2 else (1, -1, 1))
    want = (gamma_c / sigma * (g - mean(g) - xhat * mean(g * xhat)), (g * xhat).sum(axis=axes), g.sum(axis=axes))
    for passes in (1, 2):
        with tape_scope():
            y = batch_norm(x, gamma, beta, np.zeros(shape[1]), np.ones(shape[1]))
            loss = tensor_sum(mul(y, Tensor(bn_layout(g))))
            backward(loss)
            with pytest.raises(InputError, match="active tape"):
                backward(loss)
        for got, w in zip((bn_layout(x.grad), gamma.grad, beta.grad), want):
            np.testing.assert_allclose(got, passes * w, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("shape", [(64, 3), (16, 4, 300)])
def test_batch_norm_affine_gradients_without_an_input_gradient(shape):
    """x needs no gradient, so the VJP gives none for it; gamma's and beta's
    match the hand-derived sums and no activation-sized array is kept once
    backward returns."""
    rng = np.random.default_rng(20)
    x_data = rng.standard_normal(shape)
    x = Tensor(bn_layout(x_data))
    gamma = Tensor(1.0 + rng.random(shape[1]), requires_grad=True)
    beta = Tensor(rng.standard_normal(shape[1]), requires_grad=True)
    g = rng.standard_normal(shape)
    axes = (0,) if len(shape) == 2 else (0, 2)
    xhat = (x_data - x_data.mean(axis=axes, keepdims=True)) / np.sqrt(x_data.var(axis=axes, keepdims=True) + 1e-5)
    with tape_scope() as tape:
        y = batch_norm(x, gamma, beta, np.zeros(shape[1]), np.ones(shape[1]))
        loss = tensor_sum(mul(y, Tensor(bn_layout(g))))
        node = tape.nodes[0]
        assert node.inputs == (x, gamma, beta) and node.vjp(bn_layout(g))[0] is None
        tracemalloc.start()
        try:
            backward(loss)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < x.data.nbytes / 2, held / x.data.nbytes
    assert x.grad is None
    np.testing.assert_allclose(gamma.grad, (g * xhat).sum(axis=axes), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(beta.grad, g.sum(axis=axes), rtol=1e-10, atol=1e-12)


def test_batch_norm_degenerate_batch():
    gamma, beta, rm, rv = _bn_parts(3)
    with pytest.raises(InputError):
        batch_norm(Tensor(np.zeros((1, 3))), gamma, beta, rm, rv)


def test_batch_norm_reads_the_batch_size_of_channel_major_input_from_axis_1():
    rng = np.random.default_rng(19)
    gamma, beta, rm, rv = _bn_parts(3)
    # [C=3, B=1, L=5]: one segment per channel is a degenerate batch however long L is
    with pytest.raises(InputError, match="got 1"):
        batch_norm(Tensor(rng.standard_normal((3, 1, 5))), gamma, beta, rm, rv)
    # [C=1, B=5, L=4]: a single channel over a batch of five normalizes
    gamma, beta, rm, rv = _bn_parts(1)
    y = batch_norm(Tensor(rng.standard_normal((1, 5, 4))), gamma, beta, rm, rv).data
    assert y.shape == (1, 5, 4)
    np.testing.assert_allclose(y.mean(), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# fused batch norm -> ReLU -> pool
# ---------------------------------------------------------------------------


def _bn_relu_pool_run(fused, x_data, gamma_data, beta_data, g, x_grad):
    """Output, running buffers and (x, gamma, beta) gradients of one forward
    and backward of the fused op or of the three ops it stands for."""
    x = Tensor(x_data, requires_grad=x_grad)
    gamma, beta = Tensor(gamma_data, requires_grad=True), Tensor(beta_data, requires_grad=True)
    rm, rv = np.full(len(gamma_data), 0.5), np.full(len(gamma_data), 2.0)
    with tape_scope():
        h = mul(x, Tensor(1.0))  # an op output, as a conv stage's is
        if fused:
            y = batch_norm_relu_pool(h, gamma, beta, rm, rv)
        else:
            y = global_avg_pool(relu_(batch_norm(h, gamma, beta, rm, rv)))
        backward(tensor_sum(mul(y, Tensor(g))))
    return [y.data, rm, rv, x.grad, gamma.grad, beta.grad]


@pytest.mark.parametrize("x_grad", [True, False])
def test_batch_norm_relu_pool_is_the_three_ops_bit_for_bit(x_grad):
    rng = np.random.default_rng(22)
    C, B, L = 5, 7, 11
    x_data = 2.0 + rng.standard_normal((C, B, L))
    gamma_data = rng.standard_normal(C)
    gamma_data[:2] = [-1.5, -0.3]  # a negative gamma flips which side of the mean passes the ReLU
    beta_data = rng.standard_normal(C)
    g = rng.standard_normal((B, C))
    want = _bn_relu_pool_run(False, x_data, gamma_data, beta_data, g, x_grad)
    got = _bn_relu_pool_run(True, x_data, gamma_data, beta_data, g, x_grad)
    assert got[0].shape == (B, C)
    assert (got[3] is None) == (not x_grad)
    for a, b in zip(got, want):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_batch_norm_relu_pool_grad_check():
    rng = np.random.default_rng(23)
    C, B, L = 3, 4, 6
    x = Tensor(rng.standard_normal((C, B, L)), requires_grad=True)
    gamma = Tensor(np.array([1.2, -0.7, 0.4]), requires_grad=True)
    beta = Tensor(rng.standard_normal(C), requires_grad=True)
    g = Tensor(rng.standard_normal((B, C)))

    def f(_t):
        return tensor_sum(mul(batch_norm_relu_pool(x, gamma, beta, np.zeros(C), np.ones(C)), g))

    for target in (x, gamma, beta):
        report = grad_check(f, target, tol=1e-6, max_probes=64)
        assert report.passed, (target.shape, report)


def test_batch_norm_relu_pool_keeps_a_mask_not_the_activation():
    """After the forward, the node holds batch norm's per-channel arrays and a
    bool mask, well under the [C, B, L] activation the three ops keep."""
    rng = np.random.default_rng(24)
    C, B, L = 8, 16, 1000
    x = Tensor(rng.standard_normal((C, B, L)), requires_grad=True)
    gamma, beta, rm, rv = _bn_parts(C)
    with tape_scope():
        tracemalloc.start()
        try:
            y = batch_norm_relu_pool(x, gamma, beta, rm, rv)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        backward(tensor_sum(y))
    assert held < x.data.nbytes / 4, held / x.data.nbytes
    assert x.grad.shape == x.shape


def test_batch_norm_relu_pool_rejects_a_flat_input():
    gamma, beta, rm, rv = _bn_parts(3)
    with pytest.raises(InputError, match=r"\[C, B, L\].*\(4, 3\)"):
        batch_norm_relu_pool(Tensor(np.zeros((4, 3))), gamma, beta, rm, rv)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_is_exact_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    y = Dropout(0.5)(x, train=False)
    assert y is x


def test_dropout_fixed_seed_is_deterministic():
    x = Tensor(np.ones((5, 5)))
    a = dropout(x, 0.5, np.random.default_rng(9)).data
    b = dropout(x, 0.5, np.random.default_rng(9)).data
    np.testing.assert_array_equal(a, b)
    kept = a[a != 0]
    np.testing.assert_allclose(kept, 2.0)


def test_dropout_keeps_a_bool_mask_and_scales_the_gradient_by_it():
    """The node holds the bool keep mask, an eighth of x's size, and its VJP
    rebuilds keep / (1 - p) from it."""
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal((100, 1000)), requires_grad=True)
    g = rng.standard_normal(x.shape)
    with tape_scope() as tape:
        tracemalloc.start()
        try:
            y = dropout(mul(x, Tensor(1.0)), 0.25, np.random.default_rng(26))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        node = tape.nodes[-1]
        (dx,) = node.vjp(g)
    # the mul output and the dropout output, plus the mask
    assert held < 2.25 * x.data.nbytes, held / x.data.nbytes
    keep = np.random.default_rng(26).random(x.shape) >= 0.25
    assert y.data.tobytes() == (x.data * (keep / 0.75)).tobytes()
    assert dx.tobytes() == (g * (keep / 0.75)).tobytes()


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(6).standard_normal((3, 5)), requires_grad=True)
    with tape_scope():
        backward(tensor_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_elementwise_square():
    x = Tensor([3.0], requires_grad=True)
    with tape_scope():
        backward(tensor_sum(mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_accumulates_until_reset():
    x = Tensor([2.0], requires_grad=True)
    for want in ([4.0], [8.0]):
        with tape_scope():
            loss = tensor_sum(mul(x, x))
            backward(loss)
            with pytest.raises(InputError, match="active tape"):
                backward(loss)
        np.testing.assert_allclose(x.grad, want)
    zero_grads([x])
    assert x.grad is None


def test_backward_consumes_the_tape_and_rejects_a_loss_it_does_not_hold():
    x = Tensor([2.0], requires_grad=True)
    with tape_scope() as tape:
        loss = tensor_sum(mul(x, x))
        unused = mul(x, Tensor(3.0))
        backward(loss)
        assert len(tape) == 0 and unused.grad is None
        # consumed tape: nothing is popped and no grad changes
        tensor_sum(mul(x, Tensor(5.0)))
        with pytest.raises(InputError, match="active tape"):
            backward(loss)
        assert len(tape) == 2 and loss.grad is None
    np.testing.assert_allclose(x.grad, [4.0])
    # closed scope: the loss is on no active tape
    with tape_scope():
        closed = tensor_sum(mul(x, x))
    with tape_scope() as tape:
        mul(x, x)
        with pytest.raises(InputError, match="active tape"):
            backward(closed)
        assert len(tape) == 1
    np.testing.assert_allclose(x.grad, [4.0])
    assert closed.grad is None
    # neither a leaf nor an output made under no_grad is a node's output
    with no_grad():
        frozen = tensor_sum(mul(x, x))
    for loss in (Tensor([1.0], requires_grad=True), frozen):
        with pytest.raises(InputError, match="active tape"):
            backward(loss)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with tape_scope():
        y = mul(x, x)
        with pytest.raises(InputError):
            backward(y)


def test_no_grad_disables_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with tape_scope() as t:
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        assert len(t) == 0


def test_diamond_graph_gradient():
    # y = x*x reused twice: d/dx (x*x + x*x) = 4x
    x = Tensor([1.5], requires_grad=True)
    with tape_scope():
        sq = mul(x, x)
        backward(tensor_sum(add(sq, sq)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_gives_a_grad_to_leaves_only():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    with tape_scope() as tape:
        h = linear(x, w)
        loss = tensor_sum(mul(relu(h), Tensor(3.0)))
        intermediates = [node.out for node in tape.nodes]
        backward(loss)
    assert len(intermediates) == 4
    assert all(t.grad is None for t in intermediates)
    # d/dh of sum(3 relu(h)) is 3 where h > 0; h = x @ w.T
    dh = 3.0 * (h.data > 0)
    np.testing.assert_allclose(x.grad, dh @ w.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, dh.T @ x.data, rtol=1e-12, atol=1e-12)


def test_backward_drops_each_gradient_once_its_node_has_used_it():
    # 40 ops on a 500x500 leaf: keeping every intermediate's gradient until the
    # pass ends peaks at 41 arrays, dropping each once used at 2
    x = Tensor(np.random.default_rng(17).standard_normal((500, 500)), requires_grad=True)
    with tape_scope():
        y = x
        for _ in range(20):
            y = relu(mul(y, Tensor(0.9)))
        loss = tensor_sum(y)
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * x.data.nbytes, peak / x.data.nbytes


# ---------------------------------------------------------------------------
# the VJP contract: one gradient per input, in order
# ---------------------------------------------------------------------------


def _leaf(rng, *shape, grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=grad)


# One call of every op in tensor.__all__ on fresh leaves, as (id, call), where
# the id is the op's name and an optional "-variant"; call(rng, x_grad) sets
# whether the first input requires grad.
OP_CALLS = [
    ("add", lambda r, xg: add(_leaf(r, 4, 3, grad=xg), _leaf(r, 3))),
    ("mul", lambda r, xg: mul(_leaf(r, 4, 3, grad=xg), _leaf(r, 4, 1))),
    ("reshape", lambda r, xg: reshape(_leaf(r, 4, 3, grad=xg), (3, 4))),
    ("concat", lambda r, xg: concat([_leaf(r, 2, 3, grad=xg), _leaf(r, 2, 1), _leaf(r, 2, 2)])),
    ("relu", lambda r, xg: relu(_leaf(r, 4, 3, grad=xg))),
    ("relu_", lambda r, xg: relu_(_leaf(r, 4, 3, grad=xg))),
    ("tensor_sum", lambda r, xg: tensor_sum(_leaf(r, 4, 3, grad=xg))),
    ("global_avg_pool", lambda r, xg: global_avg_pool(_leaf(r, 3, 2, 5, grad=xg))),
    ("conv1d", lambda r, xg: conv1d(_leaf(r, 2, 3, 9, grad=xg), _leaf(r, 4, 2, 3), stride=2, padding=1)),
    ("conv1d-bias", lambda r, xg: conv1d(_leaf(r, 2, 3, 9, grad=xg), _leaf(r, 4, 2, 3), _leaf(r, 4))),
    ("linear", lambda r, xg: linear(_leaf(r, 4, 3, grad=xg), _leaf(r, 5, 3))),
    ("linear-bias", lambda r, xg: linear(_leaf(r, 4, 3, grad=xg), _leaf(r, 5, 3), _leaf(r, 5))),
    ("phm_linear", lambda r, xg: phm_linear(_leaf(r, 4, 6, grad=xg), _leaf(r, 2, 2, 2), _leaf(r, 2, 3, 3))),
    (
        "phm_linear-bias",
        lambda r, xg: phm_linear(_leaf(r, 4, 6, grad=xg), _leaf(r, 2, 2, 2), _leaf(r, 2, 3, 3), _leaf(r, 6)),
    ),
    (
        "batch_norm-train",
        lambda r, xg: batch_norm(_leaf(r, 3, 4, 5, grad=xg), _leaf(r, 3), _leaf(r, 3), np.zeros(3), np.ones(3)),
    ),
    (
        "batch_norm_relu_pool",
        lambda r, xg: batch_norm_relu_pool(
            _leaf(r, 3, 4, 5, grad=xg), _leaf(r, 3), _leaf(r, 3), np.zeros(3), np.ones(3)
        ),
    ),
    ("dropout", lambda r, xg: dropout(_leaf(r, 4, 3, grad=xg), 0.5, r)),
    ("softmax_cross_entropy", lambda r, xg: softmax_cross_entropy(_leaf(r, 4, 3, grad=xg), [0, 1, 2, 0])),
    ("kron_sum", lambda r, xg: kron_sum(_leaf(r, 2, 2, 2, grad=xg), _leaf(r, 2, 3, 3))),
    ("kron_sum_taps", lambda r, xg: kron_sum_taps(_leaf(r, 2, 2, 2, grad=xg), _leaf(r, 2, 3, 3, 4))),
]
NOT_OPS = {
    "Tensor", "Tape", "active_tape", "tape_scope", "no_grad", "backward", "zero_grads",
    "BN_EPS", "SEGMENT_CHUNK", "grad_check", "GradCheckReport",
}


def _record(call, x_grad):
    """The one node ``call`` records, and its VJP of an all-ones gradient."""
    with tape_scope() as tape:
        call(np.random.default_rng(21), x_grad)
    assert len(tape.nodes) == 1
    node = tape.nodes[0]
    return node, node.vjp(np.ones_like(node.out.data))


def test_every_exported_op_has_a_contract_case():
    assert {case.split("-")[0] for case, _ in OP_CALLS} == set(tensor.__all__) - NOT_OPS


# Only tape_scope, no_grad and backward decide a tape's lifetime, so no other module names a tape.
TAPE_INTERNALS = {"active_tape", "Tape", "_STATE", "clear_tape"}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(tensor.__file__).parent.glob("*.py") if p.name != "tensor.py"),
    ids=lambda p: p.name,
)
def test_only_the_tensor_module_names_a_tape(path):
    bad = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in TAPE_INTERNALS:
            bad.append(f"line {node.lineno}: {name}")
    assert not bad


@pytest.mark.parametrize("call", [call for _, call in OP_CALLS], ids=[case for case, _ in OP_CALLS])
def test_every_op_gives_one_gradient_per_input(call):
    node, grads = _record(call, x_grad=True)
    assert len(grads) == len(node.inputs)
    assert [g.shape for g in grads] == [t.shape for t in node.inputs]


X_MAY_BE_DATA = [
    c
    for c in OP_CALLS
    if c[0].split("-")[0] in ("linear", "phm_linear", "conv1d", "batch_norm", "batch_norm_relu_pool")
]


@pytest.mark.parametrize("call", [call for _, call in X_MAY_BE_DATA], ids=[case for case, _ in X_MAY_BE_DATA])
def test_no_gradient_is_computed_for_an_input_that_needs_none(call):
    node, grads = _record(call, x_grad=False)
    assert not node.inputs[0].requires_grad
    assert grads[0] is None
    assert [g.shape for g in grads[1:]] == [t.shape for t in node.inputs[1:]]


@pytest.mark.parametrize("grads", [(), (np.ones(2), np.ones(2))], ids=["too_few", "too_many"])
def test_backward_rejects_a_vjp_with_the_wrong_number_of_gradients(grads):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with tape_scope():
        loss = tensor_sum(_make_output(x.data * 2.0, (x,), lambda g: grads))
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer) than argument 1"):
            backward(loss)
    assert x.grad is None


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def test_grad_check_sum_is_exact():
    x = Tensor(np.random.default_rng(7).standard_normal(6), requires_grad=True)
    report = grad_check(tensor_sum, x, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_grad_check_of_a_function_constant_in_x_finds_a_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    report = grad_check(lambda _t: tensor_sum(Tensor(np.arange(3.0))), x)
    assert report.passed and report.max_rel_err == 0.0 and x.grad is None


def test_grad_check_composite_graph():
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    b1 = Tensor(rng.standard_normal(6), requires_grad=True)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    labels = rng.integers(0, 3, 4)

    def f(_t):
        h = relu(linear(x, w1, b1))
        return softmax_cross_entropy(linear(h, w2), labels)

    for target in (x, w1, w2, b1):
        report = grad_check(f, target, tol=1e-6)
        assert report.passed, report


def test_grad_check_catches_wrong_gradient():
    def bad_square(x):
        return _make_output(x.data**2, (x,), lambda g: (g * 3.0 * x.data,))

    x = Tensor([1.0, 2.0], requires_grad=True)
    report = grad_check(lambda t: tensor_sum(bad_square(t)), x, tol=1e-6)
    assert not report.passed


def test_grad_check_reports_nan():
    x = Tensor([1.0], requires_grad=True)

    def f(t):
        return _nan_op(t)

    def _nan_op(t):
        return _make_output(np.asarray(np.nan), (t,), lambda g: (g * np.nan,))

    report = grad_check(f, x)
    assert report.nan_found and not report.passed


def test_broadcast_add_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    with tape_scope():
        backward(tensor_sum(mul(add(x, b), add(x, b))))
    np.testing.assert_allclose(b.grad, (2 * (x.data + b.data)).sum(axis=0), atol=1e-12)


def test_tensor_invariants():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    assert t.size == 6 and t.shape == (2, 3)
    r = reshape(t, (3, 2))
    assert r.shape == (3, 2) and t.shape == (2, 3)
    with pytest.raises(InputError):
        reshape(t, (4, 2))


def test_parallel_eval_threads_do_not_share_tape_state():
    import concurrent.futures

    w = Tensor(np.random.default_rng(11).standard_normal((4, 4)), requires_grad=True)

    def infer(seed):
        x = Tensor(np.random.default_rng(seed).standard_normal((2, 4)))
        with no_grad():
            out = relu(linear(x, w))
        assert not out.requires_grad
        return out.data.sum()

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(infer, range(16)))
    assert len(results) == 16
    # the main thread's recording state is untouched
    with tape_scope() as t:
        loss = tensor_sum(mul(w, w))
        assert len(t) == 2
        backward(loss)
        assert len(t) == 0
