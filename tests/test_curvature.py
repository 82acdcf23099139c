"""Riemann curvature, its oracles, and the affinor structure identities."""

import itertools
import os
import warnings
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from circulant4 import (
    AFFINOR,
    Geometry,
    apply_affinor,
    constant_manifold,
    evaluate_point,
    example_manifold,
    load_manifold,
    scan,
)
from circulant4._oracles import (
    christoffel_partials,
    contract_lowered,
    curvature_q_invariance_residual,
    exact_geometry,
    lower_index,
    raise_index,
)

from helpers import (
    REPO_ROOT,
    exact_central_difference,
    nonflat_parallel_manifold,
    perturbed_example_fixed,
    sample_valid_points,
)

P0 = (1.0, 0.1, 2.0, 0.2)
CUBIC = os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg")
PERTURBED = os.path.join(REPO_ROOT, "perfbench", "manifolds", "perturbed.cfg")
# row 2030 of np.random.default_rng(1).uniform(0.5, 2, (3000, 4)): example's
# known curvature31 false failure, where cond(g) is about 1e5
FALSE_FAILURE_POINT = (0.828852695441705, 1.1964933743341968, 0.8160078976158891,
                       1.1965961451697962)
# point 154 of perfbench check_points(9001): example's known curvature32
# false failure, where cond(g) is about 2e6
COMMUTATION_FALSE_FAILURE_POINT = (0.5165301758947212, 0.6766864630157139,
                                   0.5173772790469328, 0.6781708619668974)


@pytest.fixture(scope="module")
def nonflat_points():
    m = nonflat_parallel_manifold()
    rng = np.random.default_rng(7)
    return m, sample_valid_points(m, 5, rng, low=-2.0, high=2.0)


def test_constant_manifold_is_flat():
    m = constant_manifold(3, 1, 2)
    assert not np.any(Geometry.at(m, (0.4, -2.0, 1.0, 5.0)).finite_row("riemann"))


@pytest.fixture(scope="module")
def exact_passes():
    """Per case, the float pass and `exact_geometry` at the same points.

    The cases: seeded points of example and of the stored cubic, and the
    false-failure point. The points are floats, which Fractions hold exactly.
    """
    example, cubic = example_manifold(), load_manifold(CUBIC)
    rng = np.random.default_rng(21)
    cases = {
        "example": (example, sample_valid_points(example, 3, rng, low=0.5, high=2.0)),
        "cubic": (cubic, sample_valid_points(cubic, 3, rng, low=-1.0, high=1.0)),
        "false failure": (example, [FALSE_FAILURE_POINT]),
    }
    return {
        name: (Geometry(*m.jets(np.array(points))), exact_geometry(m, points))
        for name, (m, points) in cases.items()
    }


def _exact_christoffel_differences(m, p):
    """The exact central difference of the exact Gamma at p, [m, s, i, j].

    It does not use the d Gamma formula.
    """
    return exact_central_difference(lambda points: exact_geometry(m, points).christoffel, p)


def test_christoffel_partials_match_finite_differences():
    for m, p in [(example_manifold(), P0), (load_manifold(CUBIC), (0.3, -0.2, 0.5, 0.1))]:
        exact = christoffel_partials(exact_geometry(m, [p]))[..., 0]
        assert np.max(np.abs(_exact_christoffel_differences(m, p) - exact)) <= 1e-17
        dgamma = christoffel_partials(Geometry.at(m, p))[..., 0]
        assert np.max(np.abs(dgamma - exact.astype(float))) <= 1e-14


def test_christoffel_partials_symmetry():
    dgamma = christoffel_partials(Geometry.at(example_manifold(), P0))[..., 0]
    assert np.array_equal(dgamma, np.swapaxes(dgamma, 2, 3))


def _riemann_by_definition(gamma, dgamma):
    """The (1,3) curvature r[l, k, j, i] by its definition, term by term.

    d_j Gamma^l_ik - d_i Gamma^l_jk + Gamma^l_js Gamma^s_ik - Gamma^l_is
    Gamma^s_jk, from gamma[s, i, j] and dgamma[m, s, i, j].
    """
    product = np.einsum("ljs,sik->lkji", gamma, gamma)
    return (
        dgamma.transpose(1, 3, 0, 2)  # d_j Gamma^l_ik, "jlik->lkji"
        - dgamma.transpose(1, 3, 2, 0)  # d_i Gamma^l_jk, "iljk->lkji"
        + product
        - product.transpose(0, 1, 3, 2)
    )


def test_riemann_matches_finite_difference_assembly():
    # the (1,3) definition, from exact central differences of the exact
    # Gamma, against the first-kind formula of the pass
    example, cubic = example_manifold(), load_manifold(CUBIC)
    for m, p in [(example, P0), (example, (0.5, -0.3, 2.0, 0.8)), (cubic, (0.3, -0.2, 0.5, 0.1))]:
        exact = exact_geometry(m, [p])
        dgamma = _exact_christoffel_differences(m, p)
        assembled = _riemann_by_definition(exact.christoffel[..., 0], dgamma)
        assert np.max(np.abs(assembled - exact.riemann[..., 0])) <= 1e-17
        r = Geometry.at(m, p).finite_row("riemann")
        assert np.max(np.abs(r - exact.riemann[..., 0].astype(float))) <= 1e-14


def test_example_manifold_is_flat():
    # the quadratic example not only keeps q parallel, its connection is
    # flat; recorded here so a regression in either fact is loud
    m = example_manifold()
    rng = np.random.default_rng(11)
    worst = max(
        float(np.max(np.abs(Geometry.at(m, p).finite_row("riemann"))))
        for p in sample_valid_points(m, 20, rng)
    )
    assert worst <= 1e-10


def test_nonflat_fixture_is_parallel_but_curved(nonflat_points):
    m, points = nonflat_points
    geometries = [Geometry.at(m, p) for p in points]
    curvatures = [float(np.max(np.abs(g.finite_row("riemann_lowered")))) for g in geometries]
    assert max(curvatures) > 0.05
    assert all(c > 1e-4 for c in curvatures)
    assert all(np.max(np.abs(g.finite_row("nabla_q"))) <= 1e-10 for g in geometries)


def test_classical_symmetries(nonflat_points):
    m, points = nonflat_points
    for p in points[:3]:
        geometry = Geometry.at(m, p)
        r13 = geometry.finite_row("riemann")
        r4 = lower_index(geometry.values[:, 0], r13)
        scale = 1.0 + float(np.max(np.abs(r4)))
        # antisymmetry in the argument pair and in the value pair
        assert np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2))) <= 1e-8 * scale
        assert np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3))) <= 1e-8 * scale
        # pair exchange
        assert np.max(np.abs(r4 - r4.transpose(3, 2, 1, 0))) <= 1e-8 * scale
        # first Bianchi identity, on the (1,3) tensor
        bianchi = (
            r13
            + np.einsum("ljik->lkji", r13)
            + np.einsum("likj->lkji", r13)
        )
        assert np.max(np.abs(bianchi)) <= 1e-8 * scale


def test_lower_raise_round_trip(nonflat_points):
    m, points = nonflat_points
    geometry = Geometry.at(m, points[0])
    r4 = geometry.finite_row("riemann_lowered")
    t = geometry.values[:, 0]
    scale = 1.0 + float(np.max(np.abs(r4)))
    assert np.max(np.abs(lower_index(t, raise_index(t, r4)) - r4)) <= 1e-10 * scale
    # the pass forms the lowered R, and R by raising its first index
    assert np.array_equal(geometry.finite_row("riemann"), raise_index(t, r4))


def test_contract_lowered_picks_components(nonflat_points):
    m, points = nonflat_points
    r4 = Geometry.at(m, points[0]).finite_row("riemann_lowered")
    basis = np.eye(4)
    for h, k, j, i in [(0, 1, 2, 3), (1, 3, 0, 2), (2, 2, 1, 0)]:
        value = contract_lowered(r4, basis[j], basis[i], basis[k], basis[h])
        assert value == r4[h, k, j, i]


def test_q_invariance_holds_when_parallel(nonflat_points):
    m, points = nonflat_points
    rng = np.random.default_rng(41)
    for p in points:
        geometry = Geometry.at(m, p)
        r4 = geometry.finite_row("riemann_lowered")
        scale = 1.0 + float(np.max(np.abs(r4)))
        assert geometry.finite_row("q_invariance_gap") <= 1e-8 * scale
        for _ in range(5):
            x, y, z, u = (rng.uniform(-1, 1, size=4) for _ in range(4))
            assert curvature_q_invariance_residual(m, p, x, y, z, u) <= 1e-6


def test_q_invariance_max_matches_basis_sweep(nonflat_points):
    # the all-basis maximum must agree with contracting explicitly
    m, points = nonflat_points
    geometry = Geometry.at(m, points[0])
    r4 = geometry.finite_row("riemann_lowered")
    basis = np.eye(4)
    worst = 0.0
    for h in range(4):
        for k in range(4):
            for j in range(4):
                for i in range(4):
                    lhs = contract_lowered(
                        r4, basis[j], basis[i], basis[k], apply_affinor(1, basis[h])
                    )
                    rhs = contract_lowered(
                        r4, basis[j], basis[i], apply_affinor(3, basis[k]), basis[h]
                    )
                    worst = max(worst, abs(lhs - rhs))
    assert geometry.finite_row("q_invariance_gap") == pytest.approx(worst, abs=1e-15)


def test_q_commutation_holds_when_parallel(nonflat_points):
    m, points = nonflat_points
    for p in points:
        geometry = Geometry.at(m, p)
        scale = 1.0 + float(np.max(np.abs(geometry.finite_row("riemann"))))
        assert geometry.finite_row("q_commutation_gap") <= 1e-8 * scale


def test_q_commutation_matches_matrix_commutators(nonflat_points):
    # R(e_j, e_i) as a matrix must commute with q; check with plain matmul
    m, points = nonflat_points
    geometry = Geometry.at(m, points[0])
    r13 = geometry.finite_row("riemann")
    q = AFFINOR.T  # endomorphism matrix acting on components from the left
    worst = 0.0
    for j in range(4):
        for i in range(4):
            endo = r13[:, :, j, i]
            worst = max(worst, float(np.max(np.abs(endo @ q - q @ endo))))
    assert geometry.finite_row("q_commutation_gap") == pytest.approx(worst, abs=1e-15)


def test_identities_fail_without_parallelism():
    m = perturbed_example_fixed()
    geometry = Geometry.at(m, P0)
    assert geometry.finite_row("q_invariance_gap") > 1e-3
    assert geometry.finite_row("q_commutation_gap") > 1e-3
    rng = np.random.default_rng(43)
    x, y, z, u = (rng.uniform(-1, 1, size=4) for _ in range(4))
    # a generic vector 4-tuple sees the violation as well
    assert curvature_q_invariance_residual(m, P0, x, y, z, u) > 1e-6


# every stage of the pass, the per-point arrays of `Geometry` and `Connection`,
# each one public attribute with the points last
STAGES = tuple(
    name for name in dir(Geometry)
    if not name.startswith("_") and isinstance(getattr(Geometry, name), (property, cached_property))
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_degenerate_rows_stay_local(nonflat_points):
    assert set(STAGES) == {
        "inverse", "d", "degenerate", "metric", "metric_partials", "first_kind", "christoffel",
        "nabla_q", "nabla_q_max", "gradient_conditions", "gradient_condition_max",
        "full_system", "riemann_lowered", "riemann", "q_invariance_gap", "q_invariance_scale",
        "q_commutation_gap", "q_commutation_scale",
    }
    m, points = nonflat_points
    values, gradients, hessians = m.jets(np.array(points[:3]))
    values = values.copy()
    values[:, 1] = (2.0, 1.0, 2.0)  # A = C: d = 0 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        geometry = Geometry(values, gradients, hessians)
        stages = {stage: getattr(geometry, stage) for stage in STAGES}
        dgamma = christoffel_partials(geometry)
    r4, nq = stages["riemann_lowered"], stages["nabla_q"]
    assert geometry.degenerate.tolist() == [False, True, False]
    assert np.all(np.isnan(r4[..., 1])) and np.all(np.isnan(nq[..., 1]))
    assert "degenerate" in geometry.failures(2)[1]
    for k in (0, 2):
        alone = Geometry(values[:, k : k + 1], gradients[..., k : k + 1], hessians[..., k : k + 1])
        assert np.array_equal(r4[..., k], alone.riemann_lowered[..., 0])
        assert np.array_equal(nq[..., k], alone.nabla_q[..., 0])
        # the pass at the point reads each stage of the 3-point pass at k, bit for bit
        at = Geometry.at(m, points[k])
        for stage, array in stages.items():
            assert np.array_equal(_bits(at.finite_row(stage)), _bits(array[..., k])), (k, stage)
        assert np.array_equal(_bits(christoffel_partials(at)[..., 0]), _bits(dgamma[..., k]))


# the rank-5 stages: the lowered R and R share one block per pass; the gaps
# read the block
RANK5_STAGES = ("riemann", "riemann_lowered")
GAP_ATTRIBUTES = ("q_invariance_gap", "q_invariance_scale", "q_commutation_gap",
                  "q_commutation_scale")


@pytest.fixture(scope="module")
def perturbed_jets():
    m = perturbed_example_fixed()
    return m.jets(np.array(sample_valid_points(m, 5, np.random.default_rng(5))))


def test_passes_share_no_stage_memory(perturbed_jets):
    first, second = Geometry(*perturbed_jets), Geometry(*perturbed_jets)
    attributes = RANK5_STAGES + GAP_ATTRIBUTES
    for a, b in itertools.product(attributes, repeat=2):
        assert not np.shares_memory(getattr(first, a), getattr(second, b)), (a, b)
    for a, b in itertools.combinations(attributes, 2):
        assert not np.shares_memory(getattr(first, a), getattr(first, b)), (a, b)


def test_stages_read_in_any_order_keep_their_bits(perturbed_jets):
    # R's slot is the lowered R's scratch, so R is formed after the lowered
    # R whichever is read first; the arrays read first are held to the end
    fresh = Geometry(*perturbed_jets)
    expected = {a: getattr(fresh, a).copy() for a in RANK5_STAGES + GAP_ATTRIBUTES}
    assert np.max(expected["q_commutation_gap"]) > 1e-3  # R is not zero, nor are the gaps
    for order in itertools.permutations(RANK5_STAGES + GAP_ATTRIBUTES[::2]):
        geometry = Geometry(*perturbed_jets)
        got = {a: getattr(geometry, a) for a in order + GAP_ATTRIBUTES[1::2]}
        for a, value in got.items():
            assert np.array_equal(value.view(np.int64), expected[a].view(np.int64)), (order, a)


def test_curvature_stages_stay_exact_on_fraction_jets(exact_passes):
    floats, exact = exact_passes["cubic"]
    for stage in ("christoffel", "christoffel_partials") + RANK5_STAGES + GAP_ATTRIBUTES[::2]:
        value = _stage(exact, stage)
        assert all(type(x) is Fraction for x in value.flat), stage
        scale = 1.0 + np.max(np.abs(_stage(floats, stage)))
        assert np.allclose(_stage(floats, stage), value.astype(float), rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("case", ["example", "cubic"])
def test_exact_pass_keeps_the_identities_exactly(exact_passes, case):
    _, exact = exact_passes[case]
    gamma, dgamma = exact.christoffel, christoffel_partials(exact)  # [s, i, j, n], [m, s, i, j, n]
    r, r4 = exact.riemann, exact.riemann_lowered  # [l, k, j, i, n], [h, k, j, i, n]
    assert np.all(gamma == gamma.swapaxes(1, 2))
    assert np.all(dgamma == dgamma.swapaxes(2, 3))
    assert np.all(r == -r.swapaxes(2, 3))
    assert not np.any(r + np.einsum("ljikn->lkjin", r) + np.einsum("likjn->lkjin", r))
    assert np.all(r4 == r4.transpose(3, 2, 1, 0, 4))
    if case == "example":
        # the stored cubic rounds 1/6 when it is parsed, so there nabla q and
        # the gaps are about 1e-17, not 0
        for stage in ("nabla_q", "riemann", "q_invariance_gap", "q_commutation_gap"):
            assert not np.any(getattr(exact, stage)), stage
    else:
        assert np.any(r)


# max |float - exact| over a case's points, relative to the terms that cancel:
# max |Gamma| for Gamma and nabla q, max |d Gamma| for d Gamma,
# max |d Gamma| + max |Gamma|^2 for R and max |g| times that for the
# lowered R. Measured (numpy 2.4, x86-64):
#   example        1.8e-15, 1.1e-15, 4.3e-15, 2.3e-15, 1.7e-16
#   cubic          2.8e-16, 2.9e-16, 5.8e-16, 2.7e-16, 1.4e-16
#   false failure  2.2e-12, 3.9e-14, 6.4e-12, 2.8e-12, 1.4e-16
# Each bound is 10 times its measured value, rounded up, and none is looser
# than when R was formed through d Gamma, so cubic's d Gamma keeps 4e-15.
# Through d Gamma, the lowered R read 4.8e-15, 4.4e-16 and 3.0e-12.
ROUNDING_BOUNDS = {
    "example": {"christoffel": 2e-14, "nabla_q": 2e-14, "christoffel_partials": 5e-14,
                "riemann": 3e-14, "riemann_lowered": 2e-15},
    "cubic": {"christoffel": 3e-15, "nabla_q": 3e-15, "christoffel_partials": 4e-15,
              "riemann": 3e-15, "riemann_lowered": 2e-15},
    "false failure": {"christoffel": 3e-11, "nabla_q": 4e-13, "christoffel_partials": 7e-11,
                      "riemann": 3e-11, "riemann_lowered": 2e-15},
}


def _largest(x):
    """max |x| per point, over the axes before the last, (N,) floats."""
    return np.abs(x.astype(float)).reshape(-1, x.shape[-1]).max(axis=0)


def _stage(geometry, name):
    """A stage of a pass, or d Gamma, which the tests form by `_oracles.christoffel_partials`."""
    if name == "christoffel_partials":
        return christoffel_partials(geometry)
    return getattr(geometry, name)


def test_float_pass_is_off_the_exact_pass_by_rounding(exact_passes):
    for case, bounds in ROUNDING_BOUNDS.items():
        floats, exact = exact_passes[case]
        gamma, dgamma = _largest(exact.christoffel), _largest(christoffel_partials(exact))
        curvature = dgamma + gamma**2
        scales = {"christoffel": gamma, "nabla_q": gamma, "christoffel_partials": dgamma,
                  "riemann": curvature, "riemann_lowered": _largest(exact.metric) * curvature}
        for stage, bound in bounds.items():
            error = _largest(_stage(floats, stage) - _stage(exact, stage).astype(float))
            assert np.max(error / scales[stage]) <= bound, (case, stage)
    # at the false-failure point the exact R and curvature31 gap are 0. The
    # float lowered R is 2.6e-12 there, and R, g^{-1} times it, 1.3e-8, as
    # cond(g) is about 1e5
    floats, exact = exact_passes["false failure"]
    assert exact.q_invariance_gap[0] == 0 and not np.any(exact.riemann)
    assert np.max(np.abs(floats.riemann_lowered)) <= 1e-11
    assert np.max(np.abs(floats.riemann)) > 1e-8


def test_curvature31_passes_on_an_ill_conditioned_example_point():
    # row 2030 of np.random.default_rng(1).uniform(0.5, 2, (3000, 4)): the
    # residual was 1.43e-8 against a scale of 1.00000006 while R was formed
    # through d Gamma, and is 7.2e-13 from the first-kind formula
    checks = evaluate_point(example_manifold(), FALSE_FAILURE_POINT)["checks"]
    assert checks["curvature31"]["passed"] and checks["curvature31"]["residual"] <= 1e-11


@pytest.mark.xfail(
    strict=True,
    reason="R = g^-1 r4 carries cond(g) times the rounding of r4 into the curvature32 gap, "
    "which the fixed 1 + max|R| scale does not cover; ROADMAP item 4 (certified verdicts)",
)
def test_curvature32_passes_on_a_very_ill_conditioned_example_point():
    # the residual is 1.4613277166921228e-08 against tol * scale of
    # 1.0000168e-08: max |r4| is 7e-11 on a flat manifold, and max |R| 1.7e-5
    checks = evaluate_point(example_manifold(), COMMUTATION_FALSE_FAILURE_POINT)["checks"]
    assert checks["curvature32"]["passed"]


def _checks_at(manifold, points):
    """The columns of all checks at points, from one batched pass as a scan chunk runs it."""
    index = np.tile(np.arange(len(points)), (4, 1))  # point n is value n of each axis
    return scan._evaluate_chunk(manifold, scan._Axes(points.T), index, scan.CHECKS, 1e-8)


def test_example_sample_has_no_false_failure_and_perturbed_fails_everywhere():
    # through d Gamma, max |r4| was 5.8e-8 over these points, and curvature31
    # failed at row 2030 of the sample
    points = np.random.default_rng(1).uniform(0.5, 2, (3000, 4))
    example = _checks_at(example_manifold(), points)
    valid = example.codes == 0
    assert sum(valid) == 1223
    # every check passed at each valid point, and was skipped at the others
    for name, codes in zip(example.geometric, example.outcomes):
        assert (codes[valid] == scan._PASSED).all() and not codes[~valid].any(), name
    r4 = Geometry(*example_manifold().jets(points[valid])).riemann_lowered
    assert np.max(np.abs(r4)) <= 1e-10
    perturbed = _checks_at(load_manifold(PERTURBED), points[valid])
    assert not perturbed.codes.any() and len(perturbed.codes) == 1223
    # parallel failed at every point, with results and no error
    assert perturbed.geometric[0] == "parallel"
    assert (perturbed.outcomes[0] == scan._FAILED).all()
