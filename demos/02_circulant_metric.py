"""The circulant metric (A, B, C, B) and its cyclic-shift affinor.

Pointwise, every metric in this package is the same 4x4 shape: a
symmetric circulant matrix determined by three numbers. That rigidity
is what buys the closed-form determinant and inverse below, and it is
what the affinor q preserves.
"""

import numpy as np

from circulant4 import (
    AFFINOR,
    CirculantTriple,
    SingularMetricError,
    affinor_power,
    apply_affinor,
    degeneracy_threshold,
    inner,
    inverse_metric,
    is_positive_definite_ordered,
    metric_components,
    metric_determinant,
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

t = CirculantTriple(3.0, 1.0, 2.0)
g = metric_components(t)
print("g(3,1,2) =")
print(g)

# closed form against the generic LU-based routines
print(f"det: closed form {metric_determinant(t)}, numpy {np.linalg.det(g):.15f}")
gap = np.max(np.abs(inverse_metric(t) - np.linalg.inv(g)))
print(f"inverse gap vs numpy: {gap:.2e}")

# positivity is an ordering condition on the triple
print("minors of g(3,1,2):", leading_principal_minors(g))
print("(3,1,2) positive definite:", is_positive_definite_ordered(t))
print("(30,24,22) positive definite:", is_positive_definite_ordered(CirculantTriple(30, 24, 22)))

# the shift is an isometry of every circulant metric
u = np.array([0.5, -1.0, 2.0, 0.25])
for k in range(1, 4):
    lhs = inner(t, apply_affinor(k, u), apply_affinor(k, v))
    print(f"g(q^{k} u, q^{k} v) - g(u, v) = {lhs - inner(t, u, v):+.2e}")

# a == c collapses the determinant; the constructor accepts the triple
# but the inverse refuses it with the scale-aware threshold
bad = CirculantTriple(1.0, 0.25, 1.0)
print(f"degeneracy threshold near (1, 0.25, 1): {degeneracy_threshold(bad):.2e}")
try:
    inverse_metric(bad)
except SingularMetricError as err:
    print("refused:", err)
