"""Affinor algebra and circulant closed forms against dense LU oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circulant4 import (
    AFFINOR,
    SingularMetricError,
    affinor_power,
    apply_affinor,
    constant_manifold,
)
from circulant4._oracles import leading_principal_minors
from circulant4.circulant import SLOT_FIELD, _thresholds, inverse_metrics
from circulant4.connection import Connection

T312 = (3.0, 1.0, 2.0)
G312 = np.asarray(T312)[SLOT_FIELD]
ORIGIN = (0.0, 0.0, 0.0, 0.0)

_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def _nondegenerate(tri):
    a, b, c = tri
    # keep a unit margin from every degeneracy surface so the LU oracle
    # itself stays accurate enough to compare against
    return (
        abs(a - c) >= 1.0 and abs(a + c - 2 * b) >= 1.0 and abs(a + c + 2 * b) >= 1.0
    )


nondegenerate_triples = st.tuples(_coords, _coords, _coords).filter(_nondegenerate)

# a > c > b > 0 built from three positive gaps
ordered_triples = st.tuples(
    st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)
).map(lambda g: (g[0] + g[1] + g[2], g[0], g[0] + g[1]))

vectors = st.tuples(*[st.floats(-3.0, 3.0)] * 4).map(np.array)


def test_affinor_matrix():
    expected = np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(AFFINOR, expected)
    with pytest.raises(ValueError):
        AFFINOR[0, 0] = 1.0


def test_affinor_powers():
    identity = np.eye(4)
    assert np.array_equal(affinor_power(0), identity)
    assert np.array_equal(affinor_power(4), identity)
    assert np.array_equal(np.linalg.matrix_power(AFFINOR, 4), identity)
    q2 = affinor_power(2)
    assert not np.array_equal(q2, identity)
    assert not np.array_equal(q2, -identity)
    assert np.array_equal(affinor_power(3), AFFINOR.T)
    assert np.array_equal(affinor_power(-1), affinor_power(3))
    for k in range(8):
        assert np.array_equal(affinor_power(k), np.linalg.matrix_power(AFFINOR, k % 4))


def test_affinor_triple_contraction():
    # q composed with itself and with q^3 reproduces q, exactly
    q3 = affinor_power(3)
    assert np.array_equal(np.einsum("at,ja,ti->ji", AFFINOR, AFFINOR, q3), AFFINOR)


def test_apply_affinor():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(apply_affinor(1, v), [4, 1, 2, 3])
    assert np.array_equal(apply_affinor(2, v), [3, 4, 1, 2])
    assert np.array_equal(apply_affinor(4, v), v)
    # components transform as (qv)^j = q_i^{.j} v^i
    for k in range(4):
        assert np.array_equal(apply_affinor(k, v), affinor_power(k).T @ v)
    with pytest.raises(ValueError):
        apply_affinor(1, [1.0, 2.0])


def test_metric_components_layout():
    g = Connection.at(constant_manifold(*T312), ORIGIN).finite_row("metric")
    # circulant with first row (a, b, c, b)
    expected = np.array(
        [
            [3, 1, 2, 1],
            [1, 3, 1, 2],
            [2, 1, 3, 1],
            [1, 2, 1, 3],
        ],
        dtype=float,
    )
    assert np.array_equal(g, expected)
    assert np.array_equal(g, g.T)
    assert np.array_equal(g, G312)


def test_determinant_closed_form():
    # det g = (a - c)^2 ((a + c)^2 - 4 b^2), and d of `inverse_metrics` is
    # (a - c)((a + c)^2 - 4 b^2)
    triples = np.array([T312, (2, 0, 2), (3, 2, 1)], dtype=float)
    _, d, _ = inverse_metrics(triples.T)
    assert ((triples[:, 0] - triples[:, 2]) * d).tolist() == [21.0, 0.0, 0.0]


@given(nondegenerate_triples)
def test_determinant_matches_brute_force(t):
    brute = np.linalg.det(np.asarray(t)[SLOT_FIELD])
    _, (d,), _ = inverse_metrics(np.transpose([t]))
    assert abs((t[0] - t[2]) * d - brute) <= 1e-10 * (1 + abs(brute))


def test_inverse_closed_form():
    ginv = inverse_metrics(np.transpose([T312]))[0][..., 0]
    expected = (
        np.array(
            [
                [13, -1, -8, -1],
                [-1, 13, -1, -8],
                [-8, -1, 13, -1],
                [-1, -8, -1, 13],
            ],
            dtype=float,
        )
        / 21.0
    )
    assert np.allclose(ginv, expected, rtol=0, atol=1e-14)
    assert np.allclose(G312 @ ginv, np.eye(4), atol=1e-14)
    # the pass at a point of the constant manifold reads the same inverse
    assert np.array_equal(Connection.at(constant_manifold(*T312), ORIGIN).inverse[..., 0], ginv)


@given(nondegenerate_triples)
def test_inverse_matches_lu(t):
    g = np.asarray(t)[SLOT_FIELD]
    ginv = inverse_metrics(np.transpose([t]))[0][..., 0]
    assert np.max(np.abs(g @ ginv - np.eye(4))) <= 1e-10
    assert np.allclose(ginv, np.linalg.inv(g), rtol=0, atol=1e-10)


def test_singular_triples_raise():
    triples = [(2, 0, 2), (1, 1, 1), (3, 2, 1), (1 + 1e-13, 0.25, 1)]
    assert inverse_metrics(np.transpose(triples))[2].all()
    for t in triples:
        with pytest.raises(SingularMetricError, match="is numerically degenerate"):
            Connection.at(constant_manifold(*t), ORIGIN)


def test_an_overflowing_cube_gives_an_infinite_threshold_without_a_warning():
    # 1 + |a| + |b| + |c| cubed is past the float range, and so are d and
    # det g: the inverse is refused as overflowing, not as degenerate
    t = (1e200, 1.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _thresholds(*np.array([t]).T).tolist() == [math.inf]
        _, (d,), (degenerate,) = inverse_metrics(np.transpose([t]))
        assert (t[0] - t[2]) * d == math.inf and degenerate
        with pytest.raises(SingularMetricError, match="overflowing closed-form inverse"):
            Connection.at(constant_manifold(*t), ORIGIN)


def test_degeneracy_threshold_scales_with_size():
    small, big = _thresholds(*np.array([T312, (300, 100, 200)]).T)
    assert small == pytest.approx(1e-12 * 7.0**3)
    assert big > small


def test_ordering_test():
    # positivity is code 0 of `domain_reasons`; the origin is on no locus of a constant manifold
    triples = np.array([T312, (30, 24, 22), (3, 2.5, 2), (-3, -2, -1)])
    codes, reasons = constant_manifold(*T312).domain_reasons(np.zeros((4, 4)), triples.T)
    assert [reasons[code] for code in codes] == [
        None, "C > B violated", "C > B violated", "A > C violated"
    ]


def test_leading_principal_minors():
    minors = leading_principal_minors(G312)
    assert np.allclose(minors, [3, 8, 13, 21], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        leading_principal_minors(np.eye(3))


@given(ordered_triples)
def test_ordered_triples_are_positive_definite(t):
    codes, _ = constant_manifold(*t).domain_reasons([ORIGIN], np.transpose([t]))
    assert codes.tolist() == [0]
    g = np.asarray(t)[SLOT_FIELD]
    assert np.all(leading_principal_minors(g) > 0)
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_inner_values():
    # g(u, v) = u @ g @ v, with g the metric of the pass at a point
    g = Connection.at(constant_manifold(1, 0, 0), ORIGIN).metric[..., 0]
    assert np.arange(1.0, 5.0) @ g @ np.arange(1.0, 5.0) == 30.0
    assert np.ones(4) @ G312 @ np.ones(4) == 28.0


@given(ordered_triples, vectors, vectors)
def test_isometry_of_affinor_powers(t, u, v):
    g = np.asarray(t)[SLOT_FIELD]
    base = float(u @ g @ v)
    assert float(v @ g @ u) == pytest.approx(base, abs=1e-12 * (1 + abs(base)))
    for k in (1, 2, 3):
        moved = float(apply_affinor(k, u) @ g @ apply_affinor(k, v))
        assert abs(moved - base) <= 1e-12 * (1 + abs(base))


def _scalar_inverse(a, b, c):
    """The closed form in Python floats, one triple at a time, powers as products."""
    d = (a - c) * ((a + c) * (a + c) - 4.0 * b * b)
    s = 1.0 + abs(a) + abs(b) + abs(c)
    if abs(d) <= 1e-12 * (s * s * s):
        return None
    abar = (a * (a + c) - 2.0 * b * b) / d
    bbar = (b * (c - a)) / d
    cbar = (2.0 * b * b - c * (a + c)) / d
    return np.array([abar, bbar, cbar])[SLOT_FIELD]


@given(st.lists(st.tuples(_coords, _coords, _coords), max_size=12))
def test_batched_inverse_matches_scalar_formula_bitwise(triples):
    # exact zeros of d and a near-singular triple ride along in every batch
    triples = triples + [(2.0, 0.0, 2.0), (3.0, 2.0, 1.0), (1 + 1e-13, 0.25, 1.0), (3.0, 1.0, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ginv, d, degenerate = inverse_metrics(np.transpose(triples))
    assert ginv.shape == (4, 4, len(triples))
    for row, flag, triple in zip(np.moveaxis(ginv, -1, 0), degenerate, triples):
        expected = _scalar_inverse(*triple)
        alone, _, (alone_flag,) = inverse_metrics(np.transpose([triple]))
        alone = alone[..., 0]
        assert flag == alone_flag == (expected is None)
        if flag:
            assert np.all(np.isnan(row)) and np.all(np.isnan(alone))
        else:
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))
            assert np.array_equal(alone.view(np.int64), row.view(np.int64))


def test_inverse_metrics_is_exact_over_fractions():
    rng = np.random.default_rng(11)
    numerators, denominators = rng.integers(-40, 41, (20, 3)), rng.integers(1, 13, (20, 3))
    triples = np.array(
        [list(map(Fraction, *row)) for row in zip(numerators.tolist(), denominators.tolist())],
        dtype=object,
    )
    ginv, d, degenerate = inverse_metrics(triples.T)
    assert not degenerate.any()
    identity = np.eye(4, dtype=int)
    for triple, inverse, dk in zip(triples, np.moveaxis(ginv, -1, 0), d):
        assert all(type(x) is Fraction for x in (*inverse.flat, dk))
        assert (triple[SLOT_FIELD].dot(inverse) == identity).all()


def test_inverse_metrics_raises_on_an_exact_zero_determinant():
    with pytest.raises(ZeroDivisionError):
        inverse_metrics(np.array([[Fraction(2)], [Fraction(1, 3)], [Fraction(2)]], dtype=object))
