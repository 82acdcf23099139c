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

from .circulant import AFFINOR, SingularMetricError, affinor_power, apply_affinor
from .connection import (
    DomainError,
    ResidualReport,
    gradient_condition_residuals,
    parallelism_verdict,
)
from .curvature import Geometry
from .fields import ParseError, ScalarField, as_point, parse_field
from .manifolds import (
    ConfigError,
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
    "ConfigError",
    "DomainError",
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
    "constant_manifold",
    "evaluate_point",
    "example_manifold",
    "gradient_condition_residuals",
    "load_manifold",
    "manifold_from_config",
    "parallelism_verdict",
    "parse_field",
    "render_report",
    "run_check",
    "run_scan",
    "__version__",
]
