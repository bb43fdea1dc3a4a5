"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation appends one node to the active tape, so the
tape's recording order is already a topological order of the graph.  A node
holds the op's output, its inputs and one VJP that maps the output's
gradient to one gradient per input, so work that two input gradients share
is done once.  ``backward`` walks the tape once in reverse.  Gradients land
on leaves only: a tensor that no node on the tape produced gets its
gradient added onto ``grad``, while an intermediate gets none, and each
intermediate's gradient is dropped as soon as its node has used it.
Calling ``backward`` twice without resetting therefore accumulates leaf
gradients (second call adds the same gradient again); use ``zero_grads`` or
``clear_tape`` between steps.

The engine is single-threaded per tape and supports exactly the operations
the model stack needs: linear, the hypercomplex product ``phm_linear`` (x
times sum_i A_i (x) F_i, never building that weight), 1-D
cross-correlation, Kronecker-sum weight construction (one contraction,
``kron_sum``, builds dense and per-tap convolution weights alike), relu,
batch norm, dropout, pooling, concatenation and softmax cross-entropy.
``conv1d``, the 3-D ``batch_norm`` and ``global_avg_pool`` take sequences
channel-major, [C, B, L], so each conv op is one GEMM over the whole batch.
``batch_norm`` and ``dropout`` are train-time ops and take no mode flag: in
eval mode ``layers.Dropout`` is the identity and ``layers.BatchNorm1d`` applies
its one per-channel affine map, built from ``mul`` and ``add``.

A VJP keeps only the arrays its formula reads, and rebuilds the rest in
backward: ``conv1d`` keeps its input (its im2col columns are rebuilt),
``batch_norm`` its input and the per-channel mean and 1/sigma (x-hat is
rebuilt), and ``relu`` its output.  An op's input array must
therefore not be written between the forward and the backward; ``linear``
relies on this as well.  ``relu_`` is the one op that writes its input: it
puts relu(x) into x's buffer, so a ReLU after batch norm costs no array of
its own.  That is sound only where x is a fresh op output that nothing else
reads and whose producer's VJP does not read that output: ``batch_norm``
rebuilds x-hat from its input, and ``conv1d``, ``linear``, ``phm_linear``
and ``add`` keep only inputs or shapes.  ``relu`` copies, for leaves and
user arrays.  ``linear``, ``phm_linear``, ``conv1d`` and ``batch_norm``
compute the gradient of x only if x requires grad, since x can be model
data.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

__all__ = [
    "Tensor",
    "Tape",
    "active_tape",
    "tape_scope",
    "clear_tape",
    "no_grad",
    "backward",
    "zero_grads",
    "add",
    "mul",
    "reshape",
    "concat",
    "relu",
    "relu_",
    "tensor_sum",
    "global_avg_pool",
    "conv1d",
    "linear",
    "phm_linear",
    "batch_norm",
    "BN_EPS",
    "dropout",
    "softmax_cross_entropy",
    "kron_sum",
    "kron_sum_taps",
    "grad_check",
    "GradCheckReport",
]


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``data`` is stored row-major; ``shape`` is fixed at creation (reshape
    returns a new Tensor viewing the same buffer).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise InputError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Node:
    out: Tensor
    inputs: tuple  # the op's input Tensors, in order
    vjp: Callable  # fn(grad_out) -> one gradient (or None) per input, in order


class Tape:
    """Ordered record of differentiable operations."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self):
        return len(self.nodes)


class _EngineState(threading.local):
    """Per-thread tape stack and recording flag; tapes never cross threads."""

    def __init__(self):
        self.tapes = [Tape()]
        self.grad_enabled = [True]


_STATE = _EngineState()


def active_tape() -> Tape:
    return _STATE.tapes[-1]


@contextlib.contextmanager
def tape_scope():
    """Push a fresh tape; operations inside record onto it only."""
    t = Tape()
    _STATE.tapes.append(t)
    try:
        yield t
    finally:
        _STATE.tapes.pop()


def clear_tape():
    active_tape().nodes.clear()


@contextlib.contextmanager
def no_grad():
    """Disable recording; outputs created inside never require grad."""
    _STATE.grad_enabled.append(False)
    try:
        yield
    finally:
        _STATE.grad_enabled.pop()


def _make_output(data, inputs, vjp) -> Tensor:
    """Wrap ``data``; record a node if recording is on and any input requires grad.

    ``vjp(g)`` maps the output's gradient to a tuple of exactly one gradient
    per input, in the order of ``inputs``.  It may give None for an input that
    needs no gradient; ``backward`` skips every input that does not require grad.
    """
    if _STATE.grad_enabled[-1] and any(t.requires_grad for t in inputs):
        out = Tensor(data, requires_grad=True)
        active_tape().nodes.append(_Node(out, inputs, vjp))
        return out
    return Tensor(data)


def backward(loss: Tensor):
    """Add d(loss)/d(leaf) onto ``grad`` of every leaf reachable from ``loss``.

    ``loss`` must be a single-element tensor recorded on the active tape.  A
    leaf is a requires_grad tensor that no node on the tape produced; no other
    tensor gets a ``grad``.  Each node output's gradient is popped when the
    reverse walk reaches its node, so none outlives the node that used it.
    """
    if loss.data.size != 1:
        raise InputError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    grads: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    for node in reversed(active_tape().nodes):
        entry = grads.pop(id(node.out), None)
        if entry is None:
            continue
        for t, contrib in zip(node.inputs, node.vjp(entry[1]), strict=True):
            if not t.requires_grad:
                continue
            key = id(t)
            grads[key] = (t, grads[key][1] + contrib) if key in grads else (t, contrib)
    # every entry left belongs to a tensor no node produced: a leaf
    for t, g in grads.values():
        t.grad = g if t.grad is None else t.grad + g


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return _make_output(data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    data = ad * bd
    return _make_output(
        data, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))
    )


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise InputError(f"cannot reshape {a.data.shape} to {shape}")
    sa = a.data.shape
    return _make_output(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    # each input's gradient is its slice of g along ``axis``
    offsets = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return _make_output(data, tensors, lambda g: tuple(np.split(g, offsets, axis=axis)))


def _relu(x: Tensor, out: np.ndarray | None) -> Tensor:
    # the VJP rebuilds the x > 0 mask from the output: y > 0 exactly where x > 0
    y = np.maximum(x.data, 0.0, out=out)
    return _make_output(y, (x,), lambda g: (g * (y > 0),))


def relu(x: Tensor) -> Tensor:
    return _relu(x, None)


def relu_(x: Tensor) -> Tensor:
    """``relu`` written into ``x``'s buffer: the output shares it, and ``x``
    reads relu(x) from then on.

    Only for a fresh op output that nothing else reads, whose producer's VJP
    does not read its own output (``batch_norm``, ``conv1d``, ``linear``,
    ``phm_linear`` and ``add`` keep inputs or shapes only).  A leaf or user
    array would lose its values, and an output another op has taken as input
    would change under that op's VJP.
    """
    return _relu(x, x.data)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, returned as a scalar tensor."""
    data = np.asarray(x.data.sum())
    sx = x.data.shape
    return _make_output(data, (x,), lambda g: (np.broadcast_to(g, sx).copy(),))


def global_avg_pool(x: Tensor) -> Tensor:
    """Channel-major [C, B, L] -> [B, C] by averaging over the length axis."""
    if x.data.ndim != 3:
        raise InputError(f"global_avg_pool needs [C, B, L], got shape {x.data.shape}")
    sx = x.data.shape
    data = x.data.mean(axis=2).T
    return _make_output(data, (x,), lambda g: (np.broadcast_to(g.T[:, :, None] / sx[2], sx),))


# ---------------------------------------------------------------------------
# Linear / convolution
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w.T (+ b) with x: [B, d_in], w: [d_out, d_in], b: [d_out]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise InputError(f"linear needs rank-2 x and w, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise InputError(
            f"linear input width {x.data.shape} does not match weight {w.data.shape}"
        )
    xd, wd, x_grad = x.data, w.data, x.requires_grad
    data = xd @ wd.T
    if b is not None:
        data = data + b.data

    def vjp(g):
        dx = g @ wd if x_grad else None
        return (dx, g.T @ xd) if b is None else (dx, g.T @ xd, g.sum(axis=0))

    return _make_output(data, (x, w) if b is None else (x, w, b), vjp)


def phm_linear(x: Tensor, a: Tensor, f: Tensor, b: Tensor | None = None) -> Tensor:
    """``linear(x, kron_sum(a, f), b)`` without building the [p*r, q*s] weight.

    x: [B, q*s], a: [n, p, q], f: [n, r, s], b: [p*r] -> [B, p*r].  Each row
    of x is cut into q blocks of s, one GEMM forms every block product
    U[b, (q, i), r] = x[b, q, :] . f[i, r, :], and the algebra mixes them:
    y[b, p, r] = sum_(q,i) M[(q, i), p] U[b, (q, i), r] with M[(q, i), p] =
    a[i, p, q].  With p = q = n the GEMM FLOPs equal those of the dense layer.
    """
    if x.data.ndim != 2 or a.data.ndim != 3 or f.data.ndim != 3:
        raise InputError(
            f"phm_linear needs x [B,q*s], a [n,p,q] and f [n,r,s], got {x.data.shape}, {a.data.shape} and {f.data.shape}"
        )
    n, p, q = a.data.shape
    r, s = f.data.shape[1:]
    if f.data.shape[0] != n:
        raise InputError(f"phm_linear algebra {a.data.shape} and filters {f.data.shape} disagree on n")
    B = x.data.shape[0]
    if x.data.shape[1] != q * s:
        raise InputError(
            f"phm_linear input width {x.data.shape} does not match q*s of algebra {a.data.shape} and filters {f.data.shape}"
        )
    xb = x.data.reshape(B * q, s)
    f2 = f.data.reshape(n * r, s)
    u = (xb @ f2.T).reshape(B, q * n, r)
    m = a.data.transpose(2, 0, 1).reshape(q * n, p)
    y = np.matmul(m.T, u).reshape(B, p * r)
    x_grad = x.requires_grad

    def vjp(g):
        gy = g.reshape(B, p, r)
        # dU = M @ gy, shared by the x and f gradients
        du = np.matmul(m, gy).reshape(B * q, n * r)
        dx = (du @ f2).reshape(B, q * s) if x_grad else None
        # dM = sum_b U[b] @ gy[b]^T, then dA[i, p, q] = dM[(q, i), p]
        dm = np.matmul(u, gy.transpose(0, 2, 1)).sum(axis=0)
        da = dm.reshape(q, n, p).transpose(1, 2, 0)
        df = (du.T @ xb).reshape(n, r, s)
        return (dx, da, df) if b is None else (dx, da, df, g.sum(axis=0))

    if b is not None:
        y += b.data
    return _make_output(y, (x, a, f) if b is None else (x, a, f, b), vjp)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation of channel-major x [Cin, B, L] with [Cout, Cin, K]
    kernels -> [Cout, B, Lout], one GEMM over the whole batch.

    Output length is floor((L + 2*padding - K) / stride) + 1.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise InputError(f"conv1d needs x [Cin,B,L] and w [Cout,Cin,K], got {x.data.shape} and {w.data.shape}")
    Cin, B, L = x.data.shape
    Cout, Cin_w, K = w.data.shape
    if Cin != Cin_w:
        raise InputError(f"conv1d channel mismatch: input {x.data.shape} vs weight {w.data.shape}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv1d needs stride >= 1 and padding >= 0, got stride={stride}, padding={padding}")
    Lp = L + 2 * padding
    if K > Lp:
        raise InputError(f"conv1d kernel {w.data.shape} larger than padded input {x.data.shape} (padding={padding})")
    Lout = (Lp - K) // stride + 1
    xd = x.data

    def im2col():
        # cols[(c, k), (b, l)] = xp[c, b, l*stride + k]: one copy of a strided
        # window view of the padded input xp
        xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=2)[:, :, ::stride]
        return windows.transpose(0, 3, 1, 2).reshape(Cin * K, B * Lout)

    wr = w.data.reshape(Cout, Cin * K)
    y = (wr @ im2col()).reshape(Cout, B, Lout)
    x_grad = x.requires_grad

    def vjp_x(g):
        # dcols comes out as [Cin, K, B, Lout], so each tap scatters one strided slice
        dcols = (wr.T @ g.reshape(Cout, B * Lout)).reshape(Cin, K, B, Lout)
        dxp = np.zeros((Cin, B, Lp))
        span = stride * (Lout - 1) + 1
        for k in range(K):
            dxp[:, :, k : k + span : stride] += dcols[:, k]
        return dxp[:, :, padding : padding + L]

    def vjp(g):
        dx = vjp_x(g) if x_grad else None  # its dcols is freed before im2col runs
        # the columns are rebuilt so that the tape keeps x, not columns K/stride times its size
        dw = (g.reshape(Cout, B * Lout) @ im2col().T).reshape(Cout, Cin, K)
        return (dx, dw) if b is None else (dx, dw, g.sum(axis=(1, 2)))

    if b is not None:
        y += b.data[:, None, None]
    return _make_output(y, (x, w) if b is None else (x, w, b), vjp)


# ---------------------------------------------------------------------------
# Normalization / regularization / loss
# ---------------------------------------------------------------------------

BN_EPS = 1e-5  # batch norm's variance floor, in train mode and in BatchNorm1d's eval affine
_BN_MOMENTUM = 0.1  # weight of each batch's statistics in the running ones


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Train-mode batch normalization per channel of [B, C], over B, or of
    channel-major [C, B, L], over the trailing contiguous (B, L).

    Normalizes with the batch's population statistics and updates the running
    buffers in place (running = 0.9*running + 0.1*batch).  Eval-mode batch norm
    is not an op: it is ``layers.BatchNorm1d``'s per-channel affine map.
    """
    nd = x.data.ndim
    if nd == 2:
        axes, shape_c, sub = (0,), (1, -1), "bc,bc->c"
        B, C = x.data.shape
    elif nd == 3:
        axes, shape_c, sub = (1, 2), (-1, 1, 1), "cbl,cbl->c"
        C, B = x.data.shape[:2]
    else:
        raise InputError(f"batch_norm needs [B,C] or [C,B,L], got shape {x.data.shape}")
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise InputError(f"batch_norm affine shapes {gamma.data.shape}/{beta.data.shape} do not match C={C}")
    if B < 2:
        raise InputError(f"batch_norm in train mode needs batch size >= 2, got {B}")
    xd, x_grad = x.data, x.requires_grad
    n = xd.size // C
    mu_c = xd.mean(axis=axes).reshape(shape_c)
    y = xd - mu_c  # x - mu, then xhat, then y in the same buffer
    var = np.einsum(sub, y, y) / n
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu_c.reshape(C)
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * var
    inv_c = (1.0 / np.sqrt(var + BN_EPS)).reshape(shape_c)
    y *= inv_c
    y *= gamma.data.reshape(shape_c)
    y += beta.data.reshape(shape_c)
    scale = gamma.data.reshape(shape_c) * inv_c

    def vjp(g):
        # xhat is rebuilt from x by the forward's operations, so it equals the
        # forward's xhat bit for bit without being kept between the passes
        xh = xd - mu_c
        xh *= inv_c
        sg, sgx = g.sum(axis=axes), np.einsum(sub, g, xh)
        if not x_grad:
            return None, sgx, sg
        # dx = (g - xhat*mean(g*xhat) - mean(g)) * gamma * inv over the batch axes, in xhat's buffer
        dx = xh
        dx *= (sgx / n).reshape(shape_c)
        np.subtract(g, dx, out=dx)
        dx -= (sg / n).reshape(shape_c)
        dx *= scale
        return dx, sgx, sg

    return _make_output(y, (x, gamma, beta), vjp)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Train-mode inverted dropout; exact identity at p == 0.  In eval mode
    ``layers.Dropout`` returns its input without calling this op."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout needs an explicit rng")
    keep = rng.random(x.data.shape) >= p
    factor = keep / (1.0 - p)
    return _make_output(x.data * factor, (x,), lambda g: (g * factor,))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    logits: [B, K]; labels: length-B integer array with values in [0, K).
    """
    if logits.data.ndim != 2:
        raise InputError(f"softmax_cross_entropy needs [B, K] logits, got shape {logits.data.shape}")
    labels = np.asarray(labels)
    B, K = logits.data.shape
    if labels.shape != (B,):
        raise InputError(f"labels shape {labels.shape} does not match batch {B}")
    if labels.dtype.kind not in "iu":
        raise InputError(f"labels have dtype {labels.dtype}; want integers")
    labels = labels.astype(np.int64)
    if labels.min() < 0 or labels.max() >= K:
        bad = labels[(labels < 0) | (labels >= K)][0]
        raise InputError(f"label {bad} outside [0, {K})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sm = ez / ez.sum(axis=1, keepdims=True)
    lse = np.log(ez.sum(axis=1))
    losses = lse - z[np.arange(B), labels]
    data = np.asarray(losses.mean())

    def vjp(g):
        d = sm.copy()
        d[np.arange(B), labels] -= 1.0
        return (d * (float(g) / B),)

    return _make_output(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# Kronecker products
# ---------------------------------------------------------------------------


def kron_sum(a: Tensor, f: Tensor) -> Tensor:
    """sum_i kron(a[i], f[i]) for a: [n,p,q], f: [n,r,s,*taps] -> [p*r, q*s, *taps].

    Trailing tap axes of F are folded into the columns of each F_i, so one
    contraction builds both dense weights (no taps) and convolution filters
    (the sum applied independently at every tap).  With n = 1 and no taps
    this is the plain Kronecker product of a[0] and f[0].
    """
    if a.data.ndim != 3 or f.data.ndim < 3:
        raise InputError(f"kron_sum needs [n,p,q] and [n,r,s,*taps], got {a.data.shape} and {f.data.shape}")
    if a.data.shape[0] != f.data.shape[0]:
        raise InputError(f"kron_sum leading dims disagree: {a.data.shape} vs {f.data.shape}")
    ad, f_shape = a.data, f.data.shape
    n, p, q = ad.shape
    r, s, *taps = f_shape[1:]
    f3 = f.data.reshape(n, r, -1)
    blocks = (p, r, q, f3.shape[2])
    data = np.einsum("ipq,irs->prqs", ad, f3, optimize=True).reshape(p * r, q * s, *taps)

    def vjp(g):
        gb = g.reshape(blocks)
        return (
            np.einsum("prqs,irs->ipq", gb, f3, optimize=True),
            np.einsum("prqs,ipq->irs", gb, ad, optimize=True).reshape(f_shape),
        )

    return _make_output(data, (a, f), vjp)


def kron_sum_taps(a: Tensor, f: Tensor) -> Tensor:
    """``kron_sum`` of convolution filters: a: [n,p,q], f: [n,r,s,K] -> [p*r, q*s, K]."""
    if f.data.ndim != 4:
        raise InputError(f"kron_sum_taps needs a rank-4 f [n,r,s,K], got {f.data.shape}")
    return kron_sum(a, f)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    nan_found: bool
    n_probes: int
    n_unverifiable: int = 0

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        skipped = f" kink_skipped={self.n_unverifiable}" if self.n_unverifiable else ""
        return f"{status} max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e} probes={self.n_probes}{skipped}"


def grad_check(
    f,
    x: Tensor,
    h: float = 1e-5,
    tol: float = 1e-6,
    max_probes: int = 64,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare the tape gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Relative error is normalized by the largest gradient magnitude so that
    exactly-zero coordinates (dead relu units) do not produce spurious
    failures.  If ``x`` has more than ``max_probes`` elements a random
    subset of coordinates is probed.  ``f`` must be deterministic across
    calls (re-seed any dropout inside it).

    Central differences are only a valid oracle where ``f`` is smooth over
    the probe interval, so each coordinate is probed at two step sizes
    (h and h/8); if the two estimates disagree, a relu kink sits inside the
    interval and that coordinate is reported as unverifiable rather than
    compared.  A wrong backward rule still fails: with smooth ``f`` the two
    estimates agree with each other and expose the tape gradient.

    A gradient tiny next to |f| is judged on the scale of the fine estimate's
    rounding, 4 * eps * max|f| / (h/8): below it neither a kink nor a wrong
    rule can be told from rounding.
    """
    if not x.requires_grad:
        raise InputError("grad_check target must have requires_grad=True")
    saved = x.grad
    x.grad = None
    with tape_scope():
        y = f(x)
        if y.data.size != 1:
            raise InputError(f"grad_check needs a scalar-valued function, got shape {y.data.shape}")
        backward(y)
        analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    x.grad = saved

    flat = x.data.reshape(-1)
    n = flat.size
    if n <= max_probes:
        idx = np.arange(n)
    else:
        idx = (rng or np.random.default_rng(0)).choice(n, size=max_probes, replace=False)
        idx.sort()

    f_max = 0.0

    def central(i, step):
        nonlocal f_max
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(x).data)
        flat[i] = orig - step
        fm = float(f(x).data)
        flat[i] = orig
        f_max = max(f_max, abs(fp), abs(fm))
        return (fp - fm) / (2.0 * step)

    fd_coarse = np.empty(idx.size)
    fd_fine = np.empty(idx.size)
    with no_grad():
        for j, i in enumerate(idx):
            fd_coarse[j] = central(i, h)
            fd_fine[j] = central(i, h / 8.0)

    an = analytic.reshape(-1)[idx]
    nan_found = bool(np.isnan(fd_fine).any() or np.isnan(fd_coarse).any() or np.isnan(an).any())
    if nan_found:
        return GradCheckReport(float("nan"), tol, False, True, int(idx.size))
    resolution = 4.0 * np.finfo(np.float64).eps * f_max / (h / 8.0)
    denom = max(np.abs(an).max(initial=0.0), np.abs(fd_fine).max(initial=0.0), 1e-8, resolution / tol)
    smooth = np.abs(fd_coarse - fd_fine) <= 0.25 * tol * denom
    n_unverifiable = int((~smooth).sum())
    if not smooth.any():
        return GradCheckReport(float("nan"), tol, False, False, int(idx.size), n_unverifiable)
    max_rel = float(np.abs(an[smooth] - fd_fine[smooth]).max() / denom)
    return GradCheckReport(max_rel, tol, max_rel < tol, False, int(idx.size), n_unverifiable)
