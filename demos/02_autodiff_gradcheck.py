"""The tape-based autodiff engine and its finite-difference harness.

Builds a small computation, backpropagates it, then verifies the tape
gradients of a hypercomplex convolution against central differences.
"""

import numpy as np

from hyperx.layers import PHCLayer
from hyperx.tensor import (
    Tensor,
    backward,
    grad_check,
    linear,
    relu,
    tape_scope,
    tensor_sum,
)

rng = np.random.default_rng(1)

print("== a tiny graph, by hand ==")
x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5, -1.0], [2.0, 0.0]], requires_grad=True)
with tape_scope():
    loss = tensor_sum(relu(linear(x, w)))  # sum(relu(x @ w.T))
    backward(loss)
print("loss      :", loss.item())
print("dloss/dx  :\n", x.grad)
print("dloss/dw  :\n", w.grad)

print("\n== gradient check of a hypercomplex convolution ==")
layer = PHCLayer(4, 8, 4, kernel_size=3, rng=rng, stride=2, padding=1)
inp = Tensor(rng.standard_normal((4, 3, 20)), requires_grad=True)  # channel-major [C, B, L]


def f(_):
    return tensor_sum(relu(layer(inp)))


for name, target in [("input", inp), ("A", layer.weight.a), ("F", layer.weight.f), ("bias", layer.b)]:
    report = grad_check(f, target, h=1e-5, tol=1e-6)
    print(f"{name:>6}: {report}")
