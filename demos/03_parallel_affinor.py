"""When is the shift affinor parallel? The example metric, checked twice.

nabla q has 64 components per point, but for circulant metrics it
vanishes exactly when eight first-order conditions on grad A, grad B,
grad C do. The demo evaluates both characterizations on the bundled
example manifold and then breaks them with a one-term perturbation.
"""

import numpy as np

from circulant4 import (
    DomainError,
    Geometry,
    ScalarField,
    example_manifold,
    gradient_condition_residuals,
    parallelism_verdict,
)

m = example_manifold()
print("manifold:", m.name)
print("  A =", m.A)
print("  B =", m.B)
print("  C =", m.C)

p = (1.0, 0.1, 2.0, 0.2)
# the pass at p; finite_row reads one stage's row there
at = Geometry.at(m, p)
codes, _ = m.domain_reasons([p], at.values)
print(f"\nat {p}: valid={codes[0] == 0} triple={tuple(at.values[:, 0].tolist())}")

gamma = at.finite_row("christoffel")
print("Gamma shape:", gamma.shape, " Gamma^1_11 =", gamma[0, 0, 0])

# criterion one: the covariant derivative itself
print(f"max |nabla q| = {np.max(np.abs(at.finite_row('nabla_q'))):.3e}")

# criterion two: the reduced first-order system on the field gradients
report = gradient_condition_residuals(m, p)
print("reduced system residuals:")
for label, value in report.entries:
    print(f"  {label:<18} {value:.3e}")

# the sixteen-relation expansion tells the same story
print(f"full system max residual: {at.finite_row('full_system').max():.3e}")

verdict, combined = parallelism_verdict(m, p)
print("verdict at tol 1e-8:", verdict)

# one stray term in A is enough to lose parallelism
broken = type(m)("broken", A=m.A + ScalarField.coordinate(1), B=m.B, C=m.C)
verdict, combined = parallelism_verdict(broken, p)
worst = max(combined.entries, key=lambda e: e[1])
print(f"\nperturbed A -> verdict {verdict}, worst residual {worst[0]} = {worst[1]:.3f}")

# the diagonal x1 = x2 = x3 = x4 is excluded by construction: A - C
# factors through it and the metric degenerates there
try:
    Geometry.at(m, (1.0, 1.0, 1.0, 1.0))
except DomainError as err:
    print("excluded:", err)
