import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperx.errors import ConfigError, InputError
from hyperx.layers import (
    BatchNorm1d,
    PHCLayer,
    PHMLayer,
    algebra_init,
    hamilton_matrices,
    he_uniform,
)
from hyperx.tensor import (
    Tensor,
    backward,
    grad_check,
    kron_sum,
    kron_sum_taps,
    mul,
    relu,
    tape_scope,
    tensor_sum,
)

from tests.conftest import kron_block_oracle


def kron_loop_oracle(a, b):
    p, q = a.shape
    r, s = b.shape
    out = np.zeros((p * r, q * s))
    for i in range(p):
        for j in range(q):
            out[i * r : (i + 1) * r, j * s : (j + 1) * s] = a[i, j] * b
    return out


def kron_sum_oracle(a, f):
    out = np.zeros((a.shape[1] * f.shape[1], a.shape[2] * f.shape[2]))
    for i in range(a.shape[0]):
        out += kron_loop_oracle(a[i], f[i])
    return out


def quaternion_multiply(q, p):
    a, b, c, d = q
    w, x, y, z = p
    return np.array(
        [
            a * w - b * x - c * y - d * z,
            a * x + b * w + c * z - d * y,
            a * y - b * z + c * w + d * x,
            a * z + b * y - c * x + d * w,
        ]
    )


# ---------------------------------------------------------------------------
# kron: kron_sum with a leading axis of 1 is the plain Kronecker product
# ---------------------------------------------------------------------------


def test_kron_identity_gives_block_diagonal():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = kron_sum(Tensor(np.eye(2)[None]), Tensor(m[None])).data
    want = np.block([[m, np.zeros((2, 2))], [np.zeros((2, 2)), m]])
    np.testing.assert_array_equal(got, want)


def test_kron_permutation_blocks():
    got = kron_sum(Tensor([[[0.0, 1.0], [1.0, 0.0]]]), Tensor([[[1.0, 2.0], [3.0, 4.0]]])).data
    want = [[0, 0, 1, 2], [0, 0, 3, 4], [1, 2, 0, 0], [3, 4, 0, 0]]
    np.testing.assert_array_equal(got, want)


def test_kron_matches_loop_oracle_exactly():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
    np.testing.assert_array_equal(kron_sum(Tensor(a[None]), Tensor(b[None])).data, kron_loop_oracle(a, b))


def test_kron_rank_error():
    with pytest.raises(InputError):
        kron_sum(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2, 2))))


def test_kron_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((1, 3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True)

    def f(_t):
        y = kron_sum(a, b)
        return tensor_sum(mul(y, y))

    assert grad_check(f, a).passed
    assert grad_check(f, b).passed


# ---------------------------------------------------------------------------
# weight construction
# ---------------------------------------------------------------------------


def test_build_weight_n1_degenerates_to_filter():
    rng = np.random.default_rng(2)
    layer = PHMLayer(6, 4, 1, rng)
    w = layer.weight.build().data
    np.testing.assert_allclose(w, layer.weight.f.data[0], atol=1e-15)


def test_build_weight_identity_plus_zero_block_diagonal():
    f1 = np.random.default_rng(3).standard_normal((3, 5))
    a = np.stack([np.eye(2), np.zeros((2, 2))])
    f = np.stack([f1, np.zeros_like(f1)])
    got = kron_sum(Tensor(a), Tensor(f)).data
    want = np.block([[f1, np.zeros((3, 5))], [np.zeros((3, 5)), f1]])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n,r,s", [(1, 3, 2), (2, 2, 5), (3, 4, 1), (4, 2, 2), (5, 1, 3), (10, 2, 2)])
def test_kron_sum_matches_oracle(n, r, s):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n, n))
    f = rng.standard_normal((n, r, s))
    np.testing.assert_allclose(kron_sum(Tensor(a), Tensor(f)).data, kron_sum_oracle(a, f), atol=1e-12)


def test_kron_sum_taps_matches_per_tap_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3, 3))
    f = rng.standard_normal((3, 2, 4, 5))
    got = kron_sum_taps(Tensor(a), Tensor(f)).data
    for t in range(5):
        np.testing.assert_allclose(got[:, :, t], kron_sum_oracle(a, f[:, :, :, t]), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    r=st.integers(1, 4),
    s=st.integers(1, 4),
    taps=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_kron_sum_property_forward_and_vjps(n, p, q, r, s, taps, seed):
    """kron_sum (any taps) and kron_sum_taps (taps > 0) against the block-loop
    oracle, with gradient checks of both inputs under a random upstream."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, p, q)), requires_grad=True)
    f = Tensor(rng.standard_normal((n, r, s, taps) if taps else (n, r, s)), requires_grad=True)
    if taps:
        want = np.stack([kron_block_oracle(a.data, f.data[..., t]) for t in range(taps)], axis=-1)
    else:
        want = kron_block_oracle(a.data, f.data)
    g = Tensor(rng.standard_normal(want.shape))
    for op in (kron_sum, kron_sum_taps) if taps else (kron_sum,):
        np.testing.assert_allclose(op(a, f).data, want, atol=1e-12)

        def fn(_t):
            return tensor_sum(mul(op(a, f), g))

        for target in (a, f):
            report = grad_check(fn, target, tol=1e-6, max_probes=48)
            assert report.passed, (op.__name__, target.shape, report)


def test_build_weight_linear_in_a_and_f():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3, 3))
    f1 = rng.standard_normal((3, 2, 2))
    f2 = rng.standard_normal((3, 2, 2))
    build = lambda a_, f_: kron_sum(Tensor(a_), Tensor(f_)).data
    np.testing.assert_allclose(build(2.5 * a, f1), 2.5 * build(a, f1), atol=1e-12)
    np.testing.assert_allclose(build(a, f1 + f2), build(a, f1) + build(a, f2), atol=1e-12)


def test_n_none_layers_hold_one_plain_weight():
    rng = np.random.default_rng(0)
    dense = PHMLayer(6, 4, None, rng)
    conv = PHCLayer(3, 5, None, 2, rng, bias=False)
    assert [name for name, _ in dense.params()] == ["W", "b"]
    assert dense.w.shape == (4, 6) and dense.weight is None and dense.param_count() == 28
    assert [name for name, _ in conv.params()] == ["W"]
    assert conv.w.shape == (5, 3, 2) and conv.param_count() == 30


def test_divisibility_error_names_n_and_dimension():
    with pytest.raises(ConfigError, match="d_out=7.*n=2"):
        PHMLayer(4, 7, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="c_in=5.*n=3"):
        PHCLayer(5, 6, 3, 3, np.random.default_rng(0))


def test_phm_layer_rejects_a_batch_of_the_wrong_width():
    layer = PHMLayer(8, 4, 2, np.random.default_rng(0))
    with pytest.raises(InputError, match=r"\(3, 6\)"):
        layer(Tensor(np.zeros((3, 6))))


# ---------------------------------------------------------------------------
# Hamilton / quaternion specialization
# ---------------------------------------------------------------------------


def test_hamilton_matrices_multiply_like_quaternions():
    rng = np.random.default_rng(6)
    h = hamilton_matrices(4)
    for _ in range(50):
        q, p = rng.standard_normal(4), rng.standard_normal(4)
        w = np.einsum("i,ijk->jk", q, h)
        np.testing.assert_allclose(w @ p, quaternion_multiply(q, p), atol=1e-12)


def test_hamilton_n2_is_complex_multiplication():
    h = hamilton_matrices(2)
    q, p = np.array([2.0, 3.0]), np.array([-1.0, 4.0])
    w = np.einsum("i,ijk->jk", q, h)
    zq, zp = complex(*q), complex(*p)
    prod = zq * zp
    np.testing.assert_allclose(w @ p, [prod.real, prod.imag], atol=1e-12)


def test_phm_forward_hamilton_equals_quaternion_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        q, p = rng.standard_normal(4), rng.standard_normal(4)
        layer = PHMLayer(4, 4, 4, rng, bias=False, algebra=hamilton_matrices(4))
        layer.weight.f.data = q.reshape(4, 1, 1)
        out = layer(Tensor(p.reshape(1, 4))).data[0]
        np.testing.assert_allclose(out, quaternion_multiply(q, p), atol=1e-12)


def test_algebra_init_random_signs():
    a = algebra_init(5, np.random.default_rng(8))
    assert a.shape == (5, 5, 5)
    np.testing.assert_array_equal(np.abs(a), np.full((5, 5, 5), 1.0 / 5.0))


def test_hamilton_matrices_rejects_other_n():
    with pytest.raises(ConfigError):
        hamilton_matrices(3)


# ---------------------------------------------------------------------------
# degeneracy to real layers
# ---------------------------------------------------------------------------


def test_phm_n1_equals_dense_outputs_and_gradients():
    rng = np.random.default_rng(9)
    phm = PHMLayer(6, 4, 1, rng)
    dense = PHMLayer(6, 4, None, rng)
    dense.w.data = phm.weight.f.data[0].copy()
    dense.b.data = phm.b.data.copy()
    x1 = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    x2 = Tensor(x1.data.copy(), requires_grad=True)
    with tape_scope():
        y1 = relu(phm(x1))
        backward(tensor_sum(y1))
    with tape_scope():
        y2 = relu(dense(x2))
        backward(tensor_sum(y2))
    np.testing.assert_allclose(y1.data, y2.data, atol=1e-12)
    np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)
    np.testing.assert_allclose(phm.weight.f.grad[0], dense.w.grad, atol=1e-12)
    np.testing.assert_allclose(phm.b.grad, dense.b.grad, atol=1e-12)


def test_phc_n1_equals_conv_outputs_and_gradients():
    rng = np.random.default_rng(10)
    phc = PHCLayer(3, 5, 1, 3, rng, stride=2, padding=1)
    conv = PHCLayer(3, 5, None, 3, rng, stride=2, padding=1)
    conv.w.data = phc.weight.f.data[0].copy()
    conv.b.data = phc.b.data.copy()
    x1 = Tensor(rng.standard_normal((2, 3, 14)).transpose(1, 0, 2), requires_grad=True)
    x2 = Tensor(x1.data.copy(), requires_grad=True)
    with tape_scope():
        y1 = relu(phc(x1))
        backward(tensor_sum(y1))
    with tape_scope():
        y2 = relu(conv(x2))
        backward(tensor_sum(y2))
    np.testing.assert_allclose(y1.data, y2.data, atol=1e-12)
    np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)
    np.testing.assert_allclose(phc.weight.f.grad[0], conv.w.grad, atol=1e-12)


def test_phc_k1_equals_phm_per_time_step():
    rng = np.random.default_rng(11)
    phc = PHCLayer(4, 6, 2, 1, rng)
    phm = PHMLayer(4, 6, 2, rng)
    phm.weight.a.data = phc.weight.a.data.copy()
    phm.weight.f.data = phc.weight.f.data[:, :, :, 0].copy()
    phm.b.data = phc.b.data.copy()
    x = rng.standard_normal((2, 4, 9))
    y_conv = phc(Tensor(x.transpose(1, 0, 2))).data.transpose(1, 0, 2)
    for t in range(9):
        y_t = phm(Tensor(x[:, :, t])).data
        np.testing.assert_allclose(y_conv[:, :, t], y_t, atol=1e-12)


def test_phc_equals_built_weight_through_conv_oracle():
    from tests.test_tensor import conv_loop_oracle

    rng = np.random.default_rng(12)
    phc = PHCLayer(4, 6, 2, 3, rng, stride=2, padding=1)
    x = rng.standard_normal((2, 4, 10))
    w = kron_sum_taps(phc.weight.a, phc.weight.f).data
    want = conv_loop_oracle(x, w, phc.b.data, 2, 1)
    np.testing.assert_allclose(phc(Tensor(x.transpose(1, 0, 2))).data.transpose(1, 0, 2), want, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def test_phm_param_count_formula():
    rng = np.random.default_rng(13)
    assert PHMLayer(64, 64, 4, rng).param_count() == 4**3 + 64 * 64 // 4 + 64 == 1152
    assert PHMLayer(64, 64, 1, rng).param_count() == 1 + 4096 + 64


def test_param_count_enumerates_learnable_scalars():
    rng = np.random.default_rng(14)
    for n, d_in, d_out in [(2, 8, 6), (3, 9, 12), (5, 10, 15)]:
        layer = PHMLayer(d_in, d_out, n, rng)
        enumerated = sum(p.size for _, p in layer.params())
        assert layer.param_count() == enumerated == n**3 + d_out * d_in // n + d_out


def test_phc_param_count_and_one_over_n_filter_scaling():
    rng = np.random.default_rng(15)
    dense_equiv = 12 * 6 * 5
    for n in (1, 2, 3, 6):
        layer = PHCLayer(6, 12, n, 5, rng)
        assert layer.param_count() == n**3 + dense_equiv // n + 12
        assert layer.weight.f.size * n == dense_equiv


# ---------------------------------------------------------------------------
# gradients through the hypercomplex layers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_phm_gradcheck_all_parameters(n):
    rng = np.random.default_rng(16 + n)
    layer = PHMLayer(2 * n, 3 * n, n, rng)
    x = Tensor(rng.standard_normal((4, 2 * n)), requires_grad=True)

    def f(_t):
        return tensor_sum(relu(layer(x)))

    for name, p in [("x", x)] + layer.params():
        report = grad_check(f, p if name != "x" else x, tol=1e-6, max_probes=32)
        assert report.passed, (name, report)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_phc_gradcheck_all_parameters(n):
    rng = np.random.default_rng(30 + n)
    layer = PHCLayer(n, 2 * n, n, 3, rng, stride=2, padding=1)
    x = Tensor(rng.standard_normal((3, n, 12)).transpose(1, 0, 2), requires_grad=True)

    def f(_t):
        return tensor_sum(relu(layer(x)))

    for name, p in [("x", x)] + layer.params():
        report = grad_check(f, p if name != "x" else x, tol=1e-6, max_probes=32)
        assert report.passed, (name, report)


def test_he_uniform_bound():
    rng = np.random.default_rng(40)
    w = he_uniform((200, 50), 50, rng)
    bound = np.sqrt(6.0 / 50)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound


def test_batchnorm1d_layer_param_count():
    bn = BatchNorm1d(7)
    assert bn.param_count() == 14
    assert [n for n, _ in bn.buffers()] == ["running_mean", "running_var"]


@pytest.mark.parametrize("shape", [(4, 5), (7, 4, 3), (3,), (3, 2, 4, 3)])
def test_batchnorm1d_eval_rejects_another_channel_count_or_rank(shape):
    # (7, 4, 3) would broadcast over its last axis if the channel axis went unchecked
    with pytest.raises(InputError, match=r"BatchNorm1d\(3\) needs \[B, C\] or \[C, B, L\]"):
        BatchNorm1d(3)(Tensor(np.zeros(shape)), train=False)
