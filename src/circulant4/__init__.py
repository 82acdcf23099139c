"""Numerical tensor calculus for 4-manifolds with circulant metrics.

The package instantiates Riemannian metrics whose value at every point is a
symmetric circulant 4x4 matrix with first row (A, B, C, B), paired with the
cyclic-shift affinor q (q^4 = id). It computes the Levi-Civita connection
and Riemann curvature from exact polynomial coefficient fields and verifies
the structural facts that hold when q is parallel: the equivalence of
nabla q = 0 with a first-order system on grad A, grad B, grad C, and the
curvature identities that transfer q between tensor slots.
"""

# set before the submodules are imported: scan stamps it into every report
__version__ = "0.1.0"

from .circulant import (
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
from .connection import (
    DomainError,
    ResidualReport,
    christoffel,
    full_system_residuals,
    gradient_condition_residuals,
    metric_partials,
    nabla_q,
    parallelism_verdict,
)
from .curvature import (
    Geometry,
    christoffel_partials,
    contract_lowered,
    curvature_q_commutation_residual,
    max_curvature_q_invariance_residual,
    riemann,
    riemann_lowered,
)
from .fields import ParseError, ScalarField, as_point, parse_field
from .manifolds import (
    ConfigError,
    DomainStatus,
    ManifoldSpec,
    SignLineLocus,
    constant_manifold,
    example_manifold,
    load_manifold,
    manifold_from_config,
)
from .scan import (
    CHECKS,
    AxisSpec,
    Report,
    ScanConfig,
    evaluate_point,
    render_report,
    run_check,
    run_scan,
)

__all__ = [
    "AFFINOR",
    "CHECKS",
    "AxisSpec",
    "CirculantTriple",
    "ConfigError",
    "DomainError",
    "DomainStatus",
    "Geometry",
    "ManifoldSpec",
    "ParseError",
    "Report",
    "ResidualReport",
    "ScalarField",
    "ScanConfig",
    "SignLineLocus",
    "SingularMetricError",
    "affinor_power",
    "apply_affinor",
    "as_point",
    "christoffel",
    "christoffel_partials",
    "constant_manifold",
    "contract_lowered",
    "curvature_q_commutation_residual",
    "degeneracy_threshold",
    "evaluate_point",
    "example_manifold",
    "full_system_residuals",
    "gradient_condition_residuals",
    "inner",
    "inverse_metric",
    "is_positive_definite_ordered",
    "load_manifold",
    "manifold_from_config",
    "max_curvature_q_invariance_residual",
    "metric_components",
    "metric_determinant",
    "metric_partials",
    "nabla_q",
    "parallelism_verdict",
    "parse_field",
    "render_report",
    "riemann",
    "riemann_lowered",
    "run_check",
    "run_scan",
    "__version__",
]
