"""The public API surface: what `__all__` promises, and what it leaves out."""

import importlib
import pkgutil

import pytest

import circulant4

from helpers import run_python

ORACLES = (
    "exact_jets",
    "exact_geometry",
    "christoffel_partials",
    "leading_principal_minors",
    "lower_index",
    "raise_index",
    "contract_lowered",
    "curvature_q_invariance_residual",
)

# every module of the package but __main__, which runs the command line
MODULES = ["circulant4"] + [
    f"circulant4.{info.name}"
    for info in pkgutil.iter_modules(circulant4.__path__)
    if info.name != "__main__"
]


PUBLIC = {
    "AFFINOR", "CHECKS", "AxisSpec", "ConfigError", "DomainError", "Geometry", "ManifoldSpec",
    "ParseError", "Report", "ResidualReport", "ScalarField", "ScanConfig", "SignLineLocus",
    "SingularMetricError", "affinor_power", "apply_affinor", "as_point", "constant_manifold",
    "evaluate_point", "example_manifold", "gradient_condition_residuals", "load_manifold",
    "manifold_from_config", "parallelism_verdict", "parse_field", "render_report", "run_check",
    "run_scan", "__version__",
}

# N = 1 views of the pass, of `inverse_metrics` and of `domain_reasons`,
# which stay out: a point is read through `Geometry.at(m, p).finite_row(stage)`
REMOVED = (
    "CirculantTriple", "metric_components", "metric_determinant", "degeneracy_threshold",
    "inverse_metric", "is_positive_definite_ordered", "inner", "metric_partials", "christoffel",
    "nabla_q", "full_system_residuals", "riemann", "riemann_lowered",
    "max_curvature_q_invariance_residual", "curvature_q_commutation_residual", "DomainStatus",
)
# the bridges between the points-first views of the pass and its points-last
# stages, which stay out: every per-point array has the points last
LAYOUT_BRIDGES = ("_stage_view", "_points_first", "_points_last")


def test_the_public_api_is_pinned():
    assert set(circulant4.__all__) == PUBLIC and len(circulant4.__all__) == len(PUBLIC)
    for name in MODULES:
        module = importlib.import_module(name)
        for removed in REMOVED + LAYOUT_BRIDGES:
            assert not hasattr(module, removed), f"{name}.{removed}"
    for removed in ("triple_at", "metric_at", "domain_valid"):
        assert not hasattr(circulant4.ManifoldSpec, removed), removed
    assert not hasattr(circulant4.SignLineLocus, "contains")
    # test oracles now, in `_oracles` alone
    for oracle in ("contract_lowered", "christoffel_partials"):
        homes = [name for name in MODULES if hasattr(importlib.import_module(name), oracle)]
        assert homes == ["circulant4._oracles"], oracle
    assert not hasattr(circulant4.Geometry, "christoffel_partials")


def test_the_names_the_benchmark_imports_resolve():
    # perfbench/tests imports these from the package, and its tracer calls
    # scan.evaluate_point and counts ScalarField.partial
    for name in ("example_manifold", "gradient_condition_residuals", "load_manifold"):
        assert callable(getattr(circulant4, name))
    assert callable(importlib.import_module("circulant4.scan").evaluate_point)
    assert callable(circulant4.ScalarField.partial)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"{name}.__all__ names missing {exported!r}"


def test_oracles_stay_out_of_the_public_api():
    assert not set(ORACLES) & set(circulant4.__all__)
    oracles = importlib.import_module("circulant4._oracles")
    for name in ORACLES:
        assert callable(getattr(oracles, name))
    for name in circulant4.__all__:
        value = getattr(circulant4, name)
        assert getattr(value, "__module__", None) != oracles.__name__, name
    for name in MODULES:
        assert "_oracles" not in getattr(importlib.import_module(name), "__all__", ())


def test_oracles_import_cleanly_on_their_own():
    result = run_python("-W", "error", "-c", "import circulant4._oracles")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_the_command_line_imports_no_oracle_and_no_fractions():
    # the exact route stays off the import path that every command pays for
    loaded = "sorted({'circulant4._oracles', 'fractions'} & set(sys.modules))"
    code = f"import sys, circulant4.cli; print({loaded})"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
