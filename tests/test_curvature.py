"""Riemann curvature, its oracles, and the affinor structure identities."""

import warnings

import numpy as np
import pytest

from circulant4 import (
    AFFINOR,
    Geometry,
    apply_affinor,
    christoffel_partials,
    christoffel_partials_fd,
    constant_manifold,
    contract_lowered,
    curvature_q_commutation_residual,
    curvature_q_invariance_residual,
    example_manifold,
    lower_index,
    max_curvature_q_invariance_residual,
    nabla_q,
    raise_index,
    riemann,
    riemann_fd,
    riemann_lowered,
)

from helpers import (
    nonflat_parallel_manifold,
    perturbed_example_fixed,
    sample_valid_points,
)

P0 = (1.0, 0.1, 2.0, 0.2)


@pytest.fixture(scope="module")
def nonflat_points():
    m = nonflat_parallel_manifold()
    rng = np.random.default_rng(7)
    return m, sample_valid_points(m, 5, rng, low=-2.0, high=2.0)


def test_constant_manifold_is_flat():
    m = constant_manifold(3, 1, 2)
    assert not np.any(riemann(m, (0.4, -2.0, 1.0, 5.0)))


def test_christoffel_partials_match_finite_differences():
    m = example_manifold()
    analytic = christoffel_partials(m, P0)
    fd = christoffel_partials_fd(m, P0, h=1e-4)
    assert np.max(np.abs(analytic - fd)) <= 1e-5


def test_christoffel_partials_symmetry():
    dgamma = christoffel_partials(example_manifold(), P0)
    assert np.array_equal(dgamma, np.swapaxes(dgamma, 2, 3))


def test_riemann_matches_finite_difference_assembly():
    m = example_manifold()
    for p in [P0, (0.5, -0.3, 2.0, 0.8)]:
        assert np.max(np.abs(riemann(m, p) - riemann_fd(m, p))) <= 1e-5


def test_fd_step_validation():
    with pytest.raises(ValueError):
        christoffel_partials_fd(example_manifold(), P0, h=0.0)


def test_example_manifold_is_flat():
    # the quadratic example not only keeps q parallel, its connection is
    # flat; recorded here so a regression in either fact is loud
    m = example_manifold()
    rng = np.random.default_rng(11)
    worst = max(
        float(np.max(np.abs(riemann(m, p)))) for p in sample_valid_points(m, 20, rng)
    )
    assert worst <= 1e-10


def test_nonflat_fixture_is_parallel_but_curved(nonflat_points):
    m, points = nonflat_points
    curvatures = [float(np.max(np.abs(riemann_lowered(m, p)))) for p in points]
    assert max(curvatures) > 0.05
    assert all(c > 1e-4 for c in curvatures)
    assert all(np.max(np.abs(nabla_q(m, p))) <= 1e-10 for p in points)


def test_classical_symmetries(nonflat_points):
    m, points = nonflat_points
    for p in points[:3]:
        r13 = riemann(m, p)
        t = m.triple_at(p)
        r4 = lower_index(t, r13)
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
    p = points[0]
    r13 = riemann(m, p)
    t = m.triple_at(p)
    scale = 1.0 + float(np.max(np.abs(r13)))
    assert np.max(np.abs(raise_index(t, lower_index(t, r13)) - r13)) <= 1e-10 * scale
    assert np.array_equal(riemann_lowered(m, p), lower_index(t, r13))


def test_contract_lowered_picks_components(nonflat_points):
    m, points = nonflat_points
    r4 = riemann_lowered(m, points[0])
    basis = np.eye(4)
    for h, k, j, i in [(0, 1, 2, 3), (1, 3, 0, 2), (2, 2, 1, 0)]:
        value = contract_lowered(r4, basis[j], basis[i], basis[k], basis[h])
        assert value == r4[h, k, j, i]


def test_q_invariance_holds_when_parallel(nonflat_points):
    m, points = nonflat_points
    rng = np.random.default_rng(41)
    for p in points:
        r4 = riemann_lowered(m, p)
        scale = 1.0 + float(np.max(np.abs(r4)))
        assert max_curvature_q_invariance_residual(m, p) <= 1e-8 * scale
        for _ in range(5):
            x, y, z, u = (rng.uniform(-1, 1, size=4) for _ in range(4))
            assert curvature_q_invariance_residual(m, p, x, y, z, u) <= 1e-6


def test_q_invariance_max_matches_basis_sweep(nonflat_points):
    # the all-basis maximum must agree with contracting explicitly
    m, points = nonflat_points
    p = points[0]
    r4 = riemann_lowered(m, p)
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
    assert max_curvature_q_invariance_residual(m, p) == pytest.approx(
        worst, abs=1e-15
    )


def test_q_commutation_holds_when_parallel(nonflat_points):
    m, points = nonflat_points
    for p in points:
        r13 = riemann(m, p)
        scale = 1.0 + float(np.max(np.abs(r13)))
        assert curvature_q_commutation_residual(m, p) <= 1e-8 * scale


def test_q_commutation_matches_matrix_commutators(nonflat_points):
    # R(e_j, e_i) as a matrix must commute with q; check with plain matmul
    m, points = nonflat_points
    p = points[0]
    r13 = riemann(m, p)
    q = AFFINOR.T  # endomorphism matrix acting on components from the left
    worst = 0.0
    for j in range(4):
        for i in range(4):
            endo = r13[:, :, j, i]
            worst = max(worst, float(np.max(np.abs(endo @ q - q @ endo))))
    assert curvature_q_commutation_residual(m, p) == pytest.approx(worst, abs=1e-15)


def test_identities_fail_without_parallelism():
    m = perturbed_example_fixed()
    assert max_curvature_q_invariance_residual(m, P0) > 1e-3
    assert curvature_q_commutation_residual(m, P0) > 1e-3
    rng = np.random.default_rng(43)
    x, y, z, u = (rng.uniform(-1, 1, size=4) for _ in range(4))
    # a generic vector 4-tuple sees the violation as well
    assert curvature_q_invariance_residual(m, P0, x, y, z, u) > 1e-6


def test_degenerate_rows_stay_local(nonflat_points):
    m, points = nonflat_points
    values, gradients, hessians = m.jets(np.array(points[:3]))
    values = values.copy()
    values[1] = (2.0, 1.0, 2.0)  # A = C: d = 0 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        geometry = Geometry(values, gradients, hessians)
        r4 = geometry.riemann_lowered
        nq = geometry.nabla_q
    assert geometry.degenerate.tolist() == [False, True, False]
    assert np.all(np.isnan(r4[1])) and np.all(np.isnan(nq[1]))
    assert "degenerate" in geometry.failures(2)[1]
    for k in (0, 2):
        alone = Geometry(values[k : k + 1], gradients[k : k + 1], hessians[k : k + 1])
        assert np.array_equal(r4[k], alone.riemann_lowered[0])
        assert np.array_equal(nq[k], alone.nabla_q[0])
        assert np.array_equal(r4[k], riemann_lowered(m, points[k]))
