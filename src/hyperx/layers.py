"""Hypercomplex multiplication/convolution layers, real ones at ``n=None``.

A hypercomplex layer of dimension n has the effective weight
W = sum_i A_i (x) F_i, a sum of Kronecker products, where the n algebra
matrices A_i (each n x n) are learned alongside the filters F_i.  The F
block carries 1/n of the parameters of the equivalent dense or
convolutional weight, plus the n^3 algebra entries.  ``PHMLayer``
multiplies its input by W without building it (``tensor.phm_linear``);
``PHCLayer`` builds W per kernel tap and convolves with it.  For n = 4 with
A frozen to the quaternion structure constants the layer performs
Hamilton-product multiplication.

The layers choose the mode, so no op takes a mode flag: in train mode
``BatchNorm1d`` and ``Dropout`` call the ops ``batch_norm`` and ``dropout``; in
eval mode ``Dropout`` is the identity and ``BatchNorm1d`` one affine map.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InputError
from .tensor import (
    BN_EPS,
    Tensor,
    add,
    batch_norm,
    conv1d,
    dropout,
    kron_sum,
    kron_sum_taps,
    linear,
    mul,
    phm_linear,
    reshape,
)

__all__ = [
    "hamilton_matrices",
    "algebra_init",
    "he_uniform",
    "HypercomplexWeight",
    "PHMLayer",
    "PHCLayer",
    "BatchNorm1d",
    "Dropout",
]


def hamilton_matrices(n: int) -> np.ndarray:
    """Structure constants of the real, complex and quaternion algebras.

    Returns [n, n, n] such that sum_i q_i * M[i] is the left-multiplication
    matrix of the number with components q. Only n in {1, 2, 4} exist here.
    """
    if n == 1:
        return np.ones((1, 1, 1))
    if n == 2:
        return np.array(
            [
                [[1.0, 0.0], [0.0, 1.0]],
                [[0.0, -1.0], [1.0, 0.0]],
            ]
        )
    if n == 4:
        return np.array(
            [
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
            ],
            dtype=np.float64,
        )
    raise ConfigError(f"no closed-form algebra for n={n}; use algebra_init")


def algebra_init(n: int, rng: np.random.Generator) -> np.ndarray:
    """Initial A matrices: known algebras for n in {1,2,4}, random signs otherwise."""
    if n in (1, 2, 4):
        return hamilton_matrices(n)
    signs = rng.integers(0, 2, size=(n, n, n)) * 2 - 1
    return signs.astype(np.float64) / n


def he_uniform(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init with gain sqrt(2): bound = sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class HypercomplexWeight:
    """The (A, F) pair whose Kronecker-sum combination is a layer weight.

    For a multiplication layer F is [n, d_out/n, d_in/n]; for a convolution
    layer F is [n, c_out/n, c_in/n, K] and the sum is applied per tap.
    """

    def __init__(self, a: Tensor, f: Tensor):
        self.a = a
        self.f = f

    def build(self) -> Tensor:
        """Materialize the effective weight (differentiable through A and F)."""
        if self.f.data.ndim == 3:
            return kron_sum(self.a, self.f)
        return kron_sum_taps(self.a, self.f)


class _Module:
    """A layer whose ``params()`` lists its learnable (name, Tensor) pairs."""

    def param_count(self) -> int:
        """Number of learnable scalars."""
        return sum(p.size for _, p in self.params())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class _WeightLayer(_Module):
    """A [d_out, d_in, *taps] weight plus an optional bias of d_out entries.

    With ``n=None`` the weight is one learned Tensor ``w``, else the (A, F) pair
    ``weight`` with F [n, d_out/n, d_in/n, *taps].  ``names`` are the attribute
    names of d_in and d_out, also used in divisibility errors.
    """

    weight = None

    def __init__(self, names, d_in, d_out, taps, n, rng, bias, algebra):
        self.n = n
        for name, value in zip(names, (d_in, d_out)):
            setattr(self, name, value)
            if n is not None and value % n:
                raise ConfigError(f"{name}={value} is not divisible by n={n}")
        # He fan-in of the effective weight, not of F itself.
        fan_in = d_in * math.prod(taps)
        if n is None:
            self.w = Tensor(he_uniform((d_out, d_in, *taps), fan_in, rng), requires_grad=True)
        else:
            a = Tensor(algebra_init(n, rng) if algebra is None else algebra, requires_grad=True)
            f = Tensor(he_uniform((n, d_out // n, d_in // n, *taps), fan_in, rng), requires_grad=True)
            self.weight = HypercomplexWeight(a, f)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def params(self):
        out = [("W", self.w)] if self.weight is None else [("A", self.weight.a), ("F", self.weight.f)]
        if self.b is not None:
            out.append(("b", self.b))
        return out


class PHMLayer(_WeightLayer):
    """Hypercomplex multiplication: y = x @ W.T + b with W = sum_i A_i (x) F_i.

    W is never built: ``phm_linear`` multiplies x by the Kronecker sum block
    by block.  Holds n^3 + d_out*d_in/n weight scalars, plus d_out bias
    terms.  With ``n=None`` W is learned directly: a plain fully-connected
    layer.
    """

    def __init__(self, d_in: int, d_out: int, n: int | None, rng, bias: bool = True, algebra=None):
        super().__init__(("d_in", "d_out"), d_in, d_out, (), n, rng, bias, algebra)

    def forward(self, x: Tensor) -> Tensor:
        if self.weight is None:
            return linear(x, self.w, self.b)
        return phm_linear(x, self.weight.a, self.weight.f, self.b)


class PHCLayer(_WeightLayer):
    """Hypercomplex 1-D convolution; the Kronecker sum is built per kernel tap.

    Maps channel-major [c_in, B, L] to [c_out, B, Lout], as ``conv1d`` does.
    Holds n^3 + c_out*c_in*K/n weight scalars, plus c_out bias terms.  With
    ``n=None`` the [c_out, c_in, K] W is learned directly: a plain convolution.
    """

    def __init__(
        self,
        c_in: int,
        c_out: int,
        n: int | None,
        kernel_size: int,
        rng,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        algebra=None,
    ):
        super().__init__(("c_in", "c_out"), c_in, c_out, (kernel_size,), n, rng, bias, algebra)
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, wb: tuple | None = None) -> Tensor:
        """conv1d(x, W, b), or conv1d with a (weight, bias) pair ``wb`` built
        beforehand, such as ``bn.fold(*weight_and_bias())``'s."""
        w, b = wb or self.weight_and_bias()
        return conv1d(x, w, b, stride=self.stride, padding=self.padding)

    def weight_and_bias(self) -> tuple:
        """(W, b), with W built."""
        return self.w if self.weight is None else self.weight.build(), self.b


class BatchNorm1d(_Module):
    """Batch normalization over the channel axis with running statistics.

    Train mode is the op ``batch_norm``.  Eval mode is one per-channel affine
    map, beta + (t - running_mean)*s with s = gamma/sqrt(running_var + eps),
    built from tape ops: ``forward`` applies it to a stage's output and
    ``fold`` to a conv stage's weight and bias.
    """

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if train:
            return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var)
        if x.ndim not in (2, 3) or x.shape[1 if x.ndim == 2 else 0] != self.channels:
            raise InputError(f"BatchNorm1d({self.channels}) needs [B, C] or [C, B, L], got shape {x.shape}")
        return self._affine(x, self._scale())

    def fold(self, w: Tensor, b: Tensor | None) -> tuple[Tensor, Tensor]:
        """Weight and bias of a layer (w [C, ...], b [C]) followed by this BN in
        eval mode: w*s per output channel and the eval affine of b (Jacob et
        al., CVPR 2018)."""
        s = self._scale()
        w = mul(w, reshape(s, (self.channels,) + (1,) * (w.ndim - 1)))
        return w, self._affine(Tensor(np.zeros(self.channels)) if b is None else b, s)

    def _scale(self) -> Tensor:
        return mul(self.gamma, Tensor(1.0 / np.sqrt(self.running_var + BN_EPS)))

    def _affine(self, t: Tensor, s: Tensor) -> Tensor:
        """beta + (t - running_mean)*s per channel of t: [C], [B, C] or [C, B, L]."""
        c = (self.channels, 1, 1) if t.ndim == 3 else (self.channels,)
        shift = add(t, Tensor(-self.running_mean.reshape(c)))
        return add(reshape(self.beta, c), mul(shift, reshape(s, c)))

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class Dropout:
    def __init__(self, p: float):
        self.p = p

    def forward(self, x: Tensor, train: bool, rng=None) -> Tensor:
        return dropout(x, self.p, rng) if train else x

    __call__ = forward
