"""Hypercomplex layers from Kronecker-sum weights.

A PHM layer of dimension n learns n algebra matrices A_i (each n x n) and
n filter blocks F_i; its effective weight is W = sum_i A_i (x) F_i.  This
script shows the three headline properties:

* the F block holds 1/n of the dense parameter count,
* n = 1 degenerates to an ordinary dense layer,
* n = 4 with A frozen to the quaternion structure constants multiplies
  quaternions exactly.
"""

import numpy as np

from hyperx.layers import PHMLayer, hamilton_matrices
from hyperx.tensor import Tensor

rng = np.random.default_rng(0)

print("== parameter counts (d_in = d_out = 64) ==")
dense = PHMLayer(64, 64, None, rng)
print(f"dense:       {dense.param_count():5d} learnable scalars")
for n in (1, 2, 4, 8):
    layer = PHMLayer(64, 64, n, rng)
    print(f"phm n={n}:    {layer.param_count():5d}  (A: {n ** 3}, F: {64 * 64 // n}, bias: 64)")

print("\n== n=1 degeneracy ==")
phm1 = PHMLayer(6, 4, 1, rng)
plain = PHMLayer(6, 4, None, rng)
plain.w.data = phm1.weight.f.data[0].copy()
plain.b.data = phm1.b.data.copy()
x = Tensor(rng.standard_normal((2, 6)))
gap = np.abs(phm1(x).data - plain(x).data).max()
print(f"max |phm(n=1) - dense| = {gap:.2e}")

print("\n== quaternion multiplication at n=4 ==")
q = rng.standard_normal(4)  # weight quaternion
p = rng.standard_normal(4)  # input quaternion
layer = PHMLayer(4, 4, 4, rng, bias=False, algebra=hamilton_matrices(4))
layer.weight.f.data = q.reshape(4, 1, 1)
got = layer(Tensor(p.reshape(1, 4))).data[0]

a, b, c, d = q
w, x_, y, z = p
hamilton = np.array(
    [
        a * w - b * x_ - c * y - d * z,
        a * x_ + b * w + c * z - d * y,
        a * y - b * z + c * w + d * x_,
        a * z + b * y - c * x_ + d * w,
    ]
)
print(f"layer output:     {np.round(got, 6)}")
print(f"Hamilton product: {np.round(hamilton, 6)}")
print(f"max abs difference: {np.abs(got - hamilton).max():.2e}")
