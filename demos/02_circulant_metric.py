"""The circulant metric (A, B, C, B) and its cyclic-shift affinor.

Pointwise, every metric in this package is the same 4x4 shape: a
symmetric circulant matrix determined by three numbers. That rigidity
is what buys the closed-form determinant and inverse below, and it is
what the affinor q preserves.
"""

import numpy as np

from circulant4 import (
    AFFINOR,
    Geometry,
    SingularMetricError,
    affinor_power,
    apply_affinor,
    constant_manifold,
)
from circulant4._oracles import leading_principal_minors

print("affinor component matrix (rows i, columns j):")
print(AFFINOR)

# q^4 is the identity and q^3 = q^T = q^{-1}
print("q^4 == E:", np.array_equal(affinor_power(4), np.eye(4)))
print("q^3 == q^T:", np.array_equal(affinor_power(3), AFFINOR.T))

# acting on a vector, q is a cyclic shift
v = np.array([1.0, 2.0, 3.0, 4.0])
for k in range(1, 4):
    print(f"q^{k} v =", apply_affinor(k, v))

# the pass at a point of the manifold whose (A, B, C) is constantly (3, 1, 2)
origin = (0.0, 0.0, 0.0, 0.0)
m = constant_manifold(3.0, 1.0, 2.0)
at = Geometry.at(m, origin)
g = at.finite_row("metric")
print("g(3,1,2) =")
print(g)

# closed form against the generic LU-based routines: det g = (a - c) d
a, b, c = at.values[:, 0]
print(f"det: closed form {(a - c) * at.d[0]}, numpy {np.linalg.det(g):.15f}")
gap = np.max(np.abs(at.inverse[..., 0] - np.linalg.inv(g)))
print(f"inverse gap vs numpy: {gap:.2e}")

# positivity is an ordering condition on the triple, A > C > B > 0; it is
# sufficient, not necessary: g(30,24,22) has eigenvalues 100, 8, 8 and 4
print("minors of g(3,1,2):", leading_principal_minors(g))
codes, reasons = m.domain_reasons(np.zeros((2, 4)), np.transpose([(3, 1, 2), (30, 24, 22)]))
for name, code in zip(("(3,1,2)", "(30,24,22)"), codes):
    print(f"{name}: {reasons[code] or 'A > C > B > 0'}")

# the shift is an isometry of every circulant metric
u = np.array([0.5, -1.0, 2.0, 0.25])
for k in range(1, 4):
    lhs = apply_affinor(k, u) @ g @ apply_affinor(k, v)
    print(f"g(q^{k} u, q^{k} v) - g(u, v) = {lhs - u @ g @ v:+.2e}")

# a == c collapses the determinant; the manifold takes the triple, but the
# pass at a point refuses its inverse below a scale-aware threshold
try:
    Geometry.at(constant_manifold(1.0, 0.25, 1.0), origin)
except SingularMetricError as err:
    print("refused:", err)
