"""Curvature identities for a parallel affinor, on a manifold that curves.

A parallel q forces R(x, y, z, q u) = R(x, y, q^3 z, u), equivalently
that every endomorphism R(x, y) commutes with q. The bundled example
manifold satisfies the hypothesis but turns out to be flat, so its
identities hold for the empty reason. This demo builds a manifold that
is parallel AND curved, where the identities actually say something.
"""

import numpy as np

from circulant4 import (
    ManifoldSpec,
    ScalarField,
    contract_lowered,
    curvature_q_commutation_residual,
    max_curvature_q_invariance_residual,
    nabla_q,
    riemann,
    riemann_lowered,
    example_manifold,
)
from circulant4._oracles import exact_geometry

rng = np.random.default_rng(4)

# the example manifold is flat: all quadratic fields, curvature cancels
m = example_manifold()
p = (1.0, 0.1, 2.0, 0.2)
print(f"example manifold: max |R| at {p} = {np.max(np.abs(riemann(m, p))):.2e}")

# a curved alternative. Write h, b as cubics in u = x1+x3, v = x2+x4
# (the +1 eigenplane of q^2) and k as a quadratic in s = x1-x3,
# w = x2-x4 (the -1 eigenplane); the gradient conditions then hold as
# polynomial identities while second derivatives survive into R.
x1, x2, x3, x4 = (ScalarField.coordinate(i) for i in (1, 2, 3, 4))
u, v = x1 + x3, x2 + x4
s, w = x1 - x3, x2 - x4
h = u**3 * (1 / 6) + u * v**2 * 0.5
b = u**2 * v * 0.5 + v**3 * (1 / 6)
k = s * w * (-1.0) - (s**2 + w**2) * 0.5
curved = ManifoldSpec("curved", A=h - k + 6.0, B=b + 1.0, C=h + k + 3.0)

q = (0.3, -0.2, 0.1, 0.4)
print(f"\ncurved manifold at {q}:")
print(f"  max |nabla q| = {np.max(np.abs(nabla_q(curved, q))):.2e}")
r = riemann(curved, q)
print(f"  max |R|       = {np.max(np.abs(r)):.3f}")
exact = exact_geometry(curved, [q]).riemann[0].astype(float)
print(f"  float vs exact R: {np.max(np.abs(r - exact)):.2e}")

# classical symmetries of the lowered tensor
r4 = riemann_lowered(curved, q)
print(f"  antisymmetry (last pair):  {np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2))):.2e}")
print(f"  antisymmetry (first pair): {np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3))):.2e}")
print(f"  pair exchange:             {np.max(np.abs(r4 - r4.transpose(3, 2, 1, 0))):.2e}")

# the affinor identities, on random 4-tuples and over the whole basis
x, y, z, uu = (rng.uniform(-1, 1, 4) for _ in range(4))
lhs = contract_lowered(r4, x, y, z, np.roll(uu, 1))
rhs = contract_lowered(r4, x, y, np.roll(z, 3), uu)
print(f"  R(x,y,z,qu) - R(x,y,q^3 z,u) = {lhs - rhs:+.2e}")
print(f"  basis sweep residual: {max_curvature_q_invariance_residual(curved, q):.2e}")
print(f"  commutation residual: {curvature_q_commutation_residual(curved, q):.2e}")

# without parallelism the identities fail by a visible margin
tilted = ManifoldSpec("tilted", A=curved.A + x1 * 0.05, B=curved.B, C=curved.C)
print(f"\ntilted  max residual: {max_curvature_q_invariance_residual(tilted, q):.3f}")

# a cautionary point: gradients of a non-parallel manifold can vanish at
# an isolated critical point, but curvature sees the neighborhood
spot = ManifoldSpec("spot", A=x1**2 + 6.0, B=ScalarField.constant(1.0),
                    C=ScalarField.constant(3.0))
origin = (0.0, 0.0, 0.0, 0.0)
print(f"\nspot at origin: max |nabla q| = {np.max(np.abs(nabla_q(spot, origin))):.1e}"
      f", identity residual = {max_curvature_q_invariance_residual(spot, origin):.3f}")
print("pointwise parallelism is necessary for the identities, not sufficient")
