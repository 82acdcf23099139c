"""Christoffel symbols, nabla q and the gradient-condition systems."""

import sys
from fractions import Fraction

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
    evaluate_point,
    example_manifold,
    full_system_residuals,
    gradient_condition_residuals,
    metric_partials,
    nabla_q,
    parallelism_verdict,
    parse_field,
    riemann,
)
from circulant4 import connection
from circulant4.circulant import degeneracy_error
from circulant4._oracles import exact_geometry
from circulant4.connection import FULL_TERMS, REDUCED_TERMS, Connection
from circulant4.curvature import Geometry
from circulant4.scan import CHECKS, _Axes, _evaluate_chunk

from helpers import (
    exact_central_difference,
    nonflat_parallel_manifold,
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
    # example's fields are quadratic, so the exact central difference of the
    # exact metric is its exact partials, at any step
    m = example_manifold()
    differences = exact_central_difference(lambda points: exact_geometry(m, points).metric, P0)
    assert np.max(np.abs(metric_partials(m, P0) - differences.astype(float))) <= 1e-15


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


def test_gradient_views_give_residuals_on_the_excluded_loci():
    # the loci are excluded for the inverse, which these views do not need
    m = example_manifold()
    for p in [(1, 1, 1, 1), (-1, 1, -1, 1)]:
        assert np.isfinite(metric_partials(m, p)).all()
        for view in (gradient_condition_residuals, full_system_residuals):
            assert np.isfinite(list(view(m, p).as_dict().values())).all()
        with pytest.raises(DomainError):
            christoffel(m, p)


def test_gradient_views_raise_where_a_relation_overflows():
    # finite values and gradients, but A1 - C3 = 1e308 - (-1e308) overflows
    m = ManifoldSpec(
        "overflow",
        parse_field("1e308*x1 + 10"),
        parse_field("1"),
        parse_field("-1e308*x3 + 3"),
    )
    assert np.isfinite(metric_partials(m, (0, 0, 0, 0))).all()
    for view in (gradient_condition_residuals, full_system_residuals):
        with pytest.raises(ValueError, match="^parallel residuals are not finite$"):
            view(m, (0, 0, 0, 0))


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


# The two relation systems as they were written out by hand before they were
# computed from their labels: the reference for the table, bit for bit.
def _reduced_by_hand(gradients):
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4) = np.moveaxis(gradients, 0, 2)
    return np.abs(
        np.stack(
            [
                a1 - c3,
                a2 - c4,
                a3 - c1,
                a4 - c2,
                b1 - b3,
                b2 - b4,
                2.0 * b1 - c4 - c2,
                2.0 * b2 - c1 - c3,
            ],
            axis=1,
        )
    )


def _full_by_hand(gradients):
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4) = np.moveaxis(gradients, 0, 2)
    return np.abs(
        np.stack(
            [
                a4 - b1 + b3 - c2,
                a4 + b1 - b3 - c2,
                2.0 * a2 + a4 - 3.0 * b1 - b3 + c2,
                a3 + b2 - b4 - c1,
                a3 - b2 + b4 - c1,
                a2 - b1 + b3 - c4,
                a2 + b1 - b3 - c4,
                a4 - b1 - 3.0 * b3 + c2 + 2.0 * c4,
                a2 + 2.0 * a4 - 3.0 * b1 - b3 + c4,
                a2 + 2.0 * a4 - b1 - 3.0 * b3 + c4,
                a1 + 2.0 * a3 - 3.0 * b2 - b4 + c3,
                a1 - b2 + b4 - c3,
                a3 - b2 - 3.0 * b4 + c1 + 2.0 * c3,
                a1 - b2 - 3.0 * b4 + 2.0 * c1 + c3,
                2.0 * a1 + a3 - b2 - 3.0 * b4 + c1,
                a2 - b1 - 3.0 * b3 + 2.0 * c2 + c4,
            ],
            axis=1,
        )
    )


def _relation_gradients():
    """(N, 3, 4) gradients: wide random magnitudes, small integers, special values."""
    rng = np.random.default_rng(20261018)
    wide = rng.choice((-1.0, 1.0), (4000, 3, 4)) * 10.0 ** rng.uniform(-300, 300, (4000, 3, 4))
    small = rng.integers(-3, 4, (4000, 3, 4)).astype(float)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324])
    return np.concatenate([wide, small, rng.choice(special, (4000, 3, 4))])


@pytest.mark.parametrize(
    "stage, by_hand",
    [("gradient_conditions", _reduced_by_hand), ("full_system", _full_by_hand)],
)
def test_relation_tables_match_the_written_out_relations_bitwise(stage, by_hand):
    gradients = _relation_gradients()
    with np.errstate(over="ignore", invalid="ignore"):
        got = getattr(Connection(np.zeros((len(gradients), 3)), gradients), stage)
        expected = by_hand(gradients)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


def _relation_matrix(table):
    """The relations of a table as the rows of a matrix on A1..A4, B1..B4, C1..C4."""
    coefficients, columns = table
    rows = coefficients.shape[1]
    matrix = np.zeros((rows, 13))
    np.add.at(matrix, (np.arange(rows), columns), coefficients)
    return matrix[:, :12]


def test_sixteen_relations_are_equivalent_to_the_eight():
    r8, r16 = _relation_matrix(REDUCED_TERMS), _relation_matrix(FULL_TERMS)
    assert r8[6].tolist() == [0, 0, 0, 0, 2, 0, 0, 0, 0, -1, 0, -1]  # 2*B1 - C4 - C2
    # the same row space: each system holds exactly where the other does
    ranks = [np.linalg.matrix_rank(m) for m in (r8, r16, np.vstack([r8, r16]))]
    assert ranks == [8, 8, 8]


def test_inverse_metric_is_computed_once_and_only_where_read(monkeypatch):
    calls = []

    def counted(values):
        calls.append(len(values))
        return inverse(values)

    inverse = connection.inverse_metrics
    monkeypatch.setattr(connection, "inverse_metrics", counted)
    example = example_manifold()
    gradient_condition_residuals(example, P0)
    full_system_residuals(example, P0)
    metric_partials(example, P0)
    assert calls == []
    # Gamma and d Gamma both read the inverse, and the pass computes it once
    Geometry(*example.jets(np.array([P0]), 2)).riemann
    assert calls == [1]


def test_an_all_check_chunk_tests_each_jet_once(monkeypatch):
    coded, tested = [], []
    non_finite, isfinite = Connection.__dict__["_non_finite"], np.isfinite
    code = non_finite.func

    def counted_code(pass_):
        coded.append(len(pass_.values))
        return code(pass_)

    def counted_isfinite(x, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == connection.__name__:
            tested.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(non_finite, "func", counted_code)
    monkeypatch.setattr(np, "isfinite", counted_isfinite)
    # two points, each its own index on axes of two values
    axes = _Axes(np.array([P0, (1.0, 0.2, 2.0, 0.3)]).T)
    columns = _evaluate_chunk(example_manifold(), axes, np.array([[0, 1]] * 4), CHECKS, 1e-8)
    # the code array once per pass, and one np.isfinite per jet: the values,
    # the gradients and the Hessians, the points last
    assert coded == [2]
    assert sorted(tested) == [(3, 2), (3, 4, 2), (3, 4, 4, 2)]
    assert all(all(columns.outcomes[name].passed) for name in CHECKS[1:])


def test_failures_take_the_first_reason_of_each_point():
    # five copies of example's jets at P0; at each point but the last, two
    # conditions or one: a later field's value beside an earlier field's
    # gradient, a degenerate g beside a gradient, a later field's gradient
    # beside an earlier field's Hessian, and a Hessian alone
    jets = example_manifold().jets(np.array([P0] * 5))
    values, gradients, hessians = (np.array(jet) for jet in jets)
    values[0, 2] = np.inf
    gradients[0, 0, 1] = np.nan
    values[1] = (1.0, 0.25, 1.0)  # A = C, so d = 0
    gradients[1, 1, 3] = np.inf
    gradients[2, 2, 0] = -np.inf
    hessians[2, 0, 1, 1] = np.nan
    hessians[3, 1, 2, 3] = np.inf
    failures = Connection(values, gradients, hessians).failures
    first = ["C is not finite", str(degeneracy_error(1.0, 0.25, 1.0, 0.0))]
    assert failures(0) == first + [None, None, None]
    assert failures(1) == first + ["gradient of C is not finite", None, None]
    assert failures(2) == first + ["gradient of C is not finite", "Hessian of B is not finite", None]


# fields whose jets meet two conditions at one point, or one: (A, B, the
# point, why it has no result at orders 1 and 2); C = 3
_MIXED_CASES = [
    # A and its gradient overflow
    ("x1^300 + 10", "1", (10.7, 0.0, 0.0, 0.0), ["A is not finite"] * 2),
    # the triple is about (3.9e307, 1, 3), d overflows, and so does A's gradient
    (
        "x1^300 - x2^300 + 10", "1", (10.6, 1.0, 0.0, 0.0),
        ["circulant metric (3.9062459052046017e+307, 1.0, 3.0) has an overflowing "
         "closed-form inverse (d = inf)"] * 2,
    ),
    # A's gradient and Hessian overflow
    ("x1^300 - x2^300 + 10", "1", (10.6, 10.6, 0.0, 0.0), ["gradient of A is not finite"] * 2),
    # B's Hessian alone
    ("5", "x1^300 - x2^300 + 1", (10.5, 10.5, 0.0, 0.0), [None, "Hessian of B is not finite"]),
]


@pytest.mark.parametrize("a, b, point, expected", _MIXED_CASES)
def test_failures_records_and_raises_give_one_text(a, b, point, expected):
    m = ManifoldSpec("mixed", parse_field(a), parse_field(b), parse_field("3"))
    values, gradients, hessians = m.jets(np.array([point]))
    assert not np.isfinite(np.concatenate([gradients.ravel(), hessians.ravel()])).all()
    geometry = Geometry(values, gradients, hessians)
    assert [geometry.failures(order)[0] for order in (1, 2)] == expected
    record = evaluate_point(m, point)
    if record["valid"]:
        errors = [record["checks"][name].get("error") for name in CHECKS[1:]]
        assert errors == expected[:1] + expected[1:] * 2
    else:
        assert record["reason"] == expected[0] == expected[1]
    for failure, view in zip(expected, (christoffel, riemann)):
        if failure is None:
            view(m, point)
            continue
        with pytest.raises(ValueError) as raised:
            view(m, point)
        assert str(raised.value) == failure


def test_christoffel_stays_exact_on_fraction_jets():
    # halving by `/ 2`, not `0.5 *`, keeps a Fraction a Fraction
    m = nonflat_parallel_manifold()
    points = sample_valid_points(m, 2, np.random.default_rng(3), low=-1.0, high=1.0)
    geometry = exact_geometry(m, points)
    # no inverse is set on the pass: it forms its own, `inverse_metrics`, on first use
    assert "_inverse_metrics" not in geometry.__dict__
    gamma = geometry.christoffel
    assert all(type(x) is Fraction for x in (*gamma.flat, *geometry.inverse.flat))
    floats = Connection(*m.jets(np.array(points), 1))
    assert np.allclose(floats.christoffel, gamma.astype(float), rtol=1e-14, atol=1e-15)


def test_an_all_check_chunk_gathers_failures_once_per_jet_order(monkeypatch):
    orders = []
    failures = Connection.failures

    def counted(pass_, order):
        orders.append(order)
        return failures(pass_, order)

    monkeypatch.setattr(Connection, "failures", counted)
    axes = _Axes(np.array(P0)[:, None])
    _evaluate_chunk(example_manifold(), axes, (slice(None),) * 4, CHECKS, 1e-8)
    # parallel reads order 1, both curvature checks order 2
    assert sorted(orders) == [1, 2]
