"""Christoffel symbols, nabla q and the gradient-condition systems."""

import numpy as np
import pytest

from circulant4 import (
    DomainError,
    ManifoldSpec,
    ResidualReport,
    ScalarField,
    SingularMetricError,
    christoffel,
    constant_manifold,
    example_manifold,
    full_system_residuals,
    gradient_condition_residuals,
    metric_partials,
    nabla_q,
    parallelism_verdict,
)

from helpers import (
    perturbed_example,
    perturbed_example_fixed,
    random_polynomial,
    sample_valid_points,
)

P0 = (1.0, 0.1, 2.0, 0.2)

REDUCED_LABELS = (
    "A1 - C3",
    "A2 - C4",
    "A3 - C1",
    "A4 - C2",
    "B1 - B3",
    "B2 - B4",
    "2*B1 - C4 - C2",
    "2*B2 - C1 - C3",
)


def _coordinate_manifold():
    # A = x1, B = x2, C = x4: every residual is a small integer everywhere
    return ManifoldSpec(
        "coords",
        A=ScalarField.coordinate(1),
        B=ScalarField.coordinate(2),
        C=ScalarField.coordinate(4),
    )


def test_metric_partials_layout():
    m = example_manifold()
    dg = metric_partials(m, P0)
    assert dg.shape == (4, 4, 4)
    # slot (0,0) holds A, slot (0,1) holds B, slot (0,2) holds C
    assert np.array_equal(dg[:, 0, 0], m.A.gradient(P0))
    assert np.array_equal(dg[:, 0, 1], m.B.gradient(P0))
    assert np.array_equal(dg[:, 0, 2], m.C.gradient(P0))
    assert np.array_equal(dg[:, 0, 3], m.B.gradient(P0))
    # one step around the cycle
    assert np.array_equal(dg[:, 1, 3], m.C.gradient(P0))
    # and the frozen values of those gradients (B picks up 0.1 + 0.2, which
    # is not the literal 0.3, so give that row a one-ulp allowance)
    assert np.array_equal(dg[:, 0, 0], [2.0, 0.2, 4.0, 0.4])
    assert np.allclose(dg[:, 0, 1], [0.3, 3.0, 0.3, 3.0], rtol=0, atol=1e-15)
    assert np.array_equal(dg[:, 0, 2], [4.0, 0.4, 2.0, 0.2])
    # symmetry of the metric carries over to its partials
    assert np.array_equal(dg, np.swapaxes(dg, 1, 2))


def test_metric_partials_match_finite_differences():
    m = example_manifold()
    h = 1e-6
    dg = metric_partials(m, P0)
    for i in range(4):
        offset = np.zeros(4)
        offset[i] = h
        fd = (
            m.metric_at(np.add(P0, offset)) - m.metric_at(np.subtract(P0, offset))
        ) / (2 * h)
        assert np.max(np.abs(dg[i] - fd)) <= 1e-6


def test_christoffel_constant_manifold_is_zero():
    gamma = christoffel(constant_manifold(3, 1, 2), (0.5, -1.0, 2.0, 7.0))
    assert not np.any(gamma)


def test_christoffel_symmetry():
    gamma = christoffel(example_manifold(), P0)
    assert np.array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_christoffel_defining_relation():
    # g_ls Gamma^l_ij must reproduce the half-sum of metric partials
    m = example_manifold()
    for p in [P0, (0.3, -0.4, 1.7, 0.9), (-2.0, 0.5, 1.0, -0.5)]:
        g = m.metric_at(p)
        dg = metric_partials(m, p)
        gamma = christoffel(m, p)
        lowered = np.einsum("ls,lij->sij", g, gamma)
        expected = 0.5 * (
            np.einsum("isj->sij", dg) + np.einsum("jsi->sij", dg) - dg
        )
        assert np.max(np.abs(lowered - expected)) <= 1e-10


def test_christoffel_domain_errors():
    m = example_manifold()
    with pytest.raises(DomainError) as err:
        christoffel(m, (1, 1, 1, 1))
    assert "excluded locus (x,x,x,x)" in str(err.value)
    # an ordering violation is not a geometric obstruction: (1,2,3,4) has an
    # indefinite but invertible metric, so the connection still exists there
    gamma = christoffel(m, (1, 2, 3, 4))
    assert np.all(np.isfinite(gamma))
    # where a field overflows the error names it; the metric is not singular
    with pytest.raises(ValueError, match="^A is not finite$") as err:
        christoffel(m, (1e200, 0.1, 2.0, 0.2))
    assert not isinstance(err.value, SingularMetricError)


def test_metric_compatibility():
    m = example_manifold()
    rng = np.random.default_rng(17)
    for p in sample_valid_points(m, 5, rng):
        g = m.metric_at(p)
        dg = metric_partials(m, p)
        gamma = christoffel(m, p)
        nabla_g = (
            dg
            - np.einsum("smi,sj->mij", gamma, g)
            - np.einsum("smj,is->mij", gamma, g)
        )
        assert np.max(np.abs(nabla_g)) <= 1e-10


def test_nabla_q_vanishes_on_example():
    m = example_manifold()
    rng = np.random.default_rng(23)
    worst = max(
        float(np.max(np.abs(nabla_q(m, p)))) for p in sample_valid_points(m, 20, rng)
    )
    assert worst <= 1e-10
    # the gradient conditions are polynomial identities for these fields, so
    # parallelism extends to every invertible point, ordered or not
    assert np.max(np.abs(nabla_q(m, (1, 2, 3, 4)))) <= 1e-10


def test_nabla_q_exact_zero_for_constants():
    assert not np.any(nabla_q(constant_manifold(3, 1, 2), (4, 3, 2, 1)))


def test_nabla_q_detects_perturbation():
    assert np.max(np.abs(nabla_q(perturbed_example_fixed(), P0))) > 1e-3


def test_reduced_system_on_example():
    report = gradient_condition_residuals(example_manifold(), P0)
    assert tuple(label for label, _ in report.entries) == REDUCED_LABELS
    assert report.max_residual <= 1e-12
    assert all(value >= 0 for _, value in report.entries)


def test_reduced_system_pinned_values():
    report = gradient_condition_residuals(_coordinate_manifold(), (0, 0, 0, 0))
    assert report.as_dict() == {
        "A1 - C3": 1.0,
        "A2 - C4": 1.0,
        "A3 - C1": 0.0,
        "A4 - C2": 0.0,
        "B1 - B3": 0.0,
        "B2 - B4": 1.0,
        "2*B1 - C4 - C2": 1.0,
        "2*B2 - C1 - C3": 2.0,
    }


def test_full_system_structure():
    report = full_system_residuals(example_manifold(), P0)
    assert len(report.entries) == 16
    assert report.max_residual <= 1e-12
    labels = [label for label, _ in report.entries]
    assert labels[0] == "A4 - B1 + B3 - C2"
    assert "A4 - B1 - 3*B3 + C2 + 2*C4" in labels
    assert labels[-1] == "A2 - B1 - 3*B3 + 2*C2 + C4"


def test_full_system_pinned_values():
    report = full_system_residuals(_coordinate_manifold(), (0, 0, 0, 0))
    assert report["A4 - B1 + B3 - C2"] == 0.0
    assert report["A2 - B1 + B3 - C4"] == 1.0
    assert report["A4 - B1 - 3*B3 + C2 + 2*C4"] == 2.0
    assert report["A1 + 2*A3 - 3*B2 - B4 + C3"] == 2.0


def test_full_system_bounded_by_reduced():
    # every expanded relation is a signed combination of reduced ones with
    # coefficient mass at most 8
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = ManifoldSpec(
            "random",
            A=random_polynomial(rng, degree=3, terms=4),
            B=random_polynomial(rng, degree=3, terms=4),
            C=random_polynomial(rng, degree=3, terms=4),
        )
        p = rng.uniform(-2, 2, size=4)
        full = full_system_residuals(m, p).max_residual
        reduced = gradient_condition_residuals(m, p).max_residual
        assert full <= 8.0 * reduced + 1e-9


def test_parallelism_verdict():
    m = example_manifold()
    verdict, report = parallelism_verdict(m, P0)
    assert verdict is True
    assert report["max |nabla q|"] <= 1e-12
    assert len(report.entries) == 9

    bad_verdict, bad_report = parallelism_verdict(perturbed_example_fixed(), P0)
    assert bad_verdict is False
    assert bad_report["max |nabla q|"] > 1e-3
    assert bad_report.max_residual > 1e-3

    with pytest.raises(ValueError):
        parallelism_verdict(m, P0, tol=0.0)
    with pytest.raises(ValueError):
        parallelism_verdict(m, P0, tol=float("inf"))


def test_perturbed_family_always_fails():
    rng = np.random.default_rng(31)
    for _ in range(4):
        m = perturbed_example(rng)
        for p in sample_valid_points(m, 3, rng):
            verdict, _ = parallelism_verdict(m, p)
            assert verdict is False


def test_residual_report_api():
    report = ResidualReport((("first", 0.25), ("second", 1.5)))
    assert report.max_residual == 1.5
    assert report["first"] == 0.25
    assert report.as_dict() == {"first": 0.25, "second": 1.5}
    with pytest.raises(KeyError):
        report["missing"]
    assert ResidualReport(()).max_residual == 0.0
