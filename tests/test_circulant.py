"""Affinor algebra and circulant closed forms against dense LU oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from circulant4.circulant import SLOT_FIELD, inverse_metrics

T312 = CirculantTriple(3.0, 1.0, 2.0)

_coords = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def _nondegenerate(tri):
    a, b, c = tri
    # keep a unit margin from every degeneracy surface so the LU oracle
    # itself stays accurate enough to compare against
    return (
        abs(a - c) >= 1.0 and abs(a + c - 2 * b) >= 1.0 and abs(a + c + 2 * b) >= 1.0
    )


nondegenerate_triples = (
    st.tuples(_coords, _coords, _coords)
    .filter(_nondegenerate)
    .map(lambda tri: CirculantTriple(*tri))
)

# a > c > b > 0 built from three positive gaps
ordered_triples = st.tuples(
    st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0)
).map(lambda g: CirculantTriple(g[0] + g[1] + g[2], g[0], g[0] + g[1]))

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
    g = metric_components(T312)
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


def test_triple_validation():
    t = CirculantTriple(3, 1, 2)
    assert isinstance(t.a, float)
    with pytest.raises(ValueError):
        CirculantTriple(float("nan"), 1.0, 2.0)
    with pytest.raises(ValueError):
        CirculantTriple(1.0, float("inf"), 2.0)


def test_determinant_closed_form():
    assert metric_determinant(T312) == 21.0
    assert metric_determinant(CirculantTriple(2, 0, 2)) == 0.0
    assert metric_determinant(CirculantTriple(3, 2, 1)) == 0.0


@given(nondegenerate_triples)
def test_determinant_matches_brute_force(t):
    brute = np.linalg.det(metric_components(t))
    assert abs(metric_determinant(t) - brute) <= 1e-10 * (1 + abs(brute))


def test_inverse_closed_form():
    ginv = inverse_metric(T312)
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
    assert np.allclose(metric_components(T312) @ ginv, np.eye(4), atol=1e-14)


@given(nondegenerate_triples)
def test_inverse_matches_lu(t):
    g = metric_components(t)
    ginv = inverse_metric(t)
    assert np.max(np.abs(g @ ginv - np.eye(4))) <= 1e-10
    assert np.allclose(ginv, np.linalg.inv(g), rtol=0, atol=1e-10)


def test_singular_triples_raise():
    for t in [(2, 0, 2), (1, 1, 1), (3, 2, 1), (1 + 1e-13, 0.25, 1)]:
        with pytest.raises(SingularMetricError):
            inverse_metric(CirculantTriple(*t))


def test_an_overflowing_cube_gives_an_infinite_threshold_without_a_warning():
    # 1 + |a| + |b| + |c| cubed is past the float range, and so are d and
    # det g: the inverse is refused as overflowing, not as degenerate
    t = CirculantTriple(1e200, 1.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert degeneracy_threshold(t) == math.inf
        assert metric_determinant(t) == math.inf
        with pytest.raises(SingularMetricError, match="overflowing closed-form inverse"):
            inverse_metric(t)


def test_degeneracy_threshold_scales_with_size():
    t = CirculantTriple(3, 1, 2)
    assert degeneracy_threshold(t) == pytest.approx(1e-12 * 7.0**3)
    big = CirculantTriple(300, 100, 200)
    assert degeneracy_threshold(big) > degeneracy_threshold(t)


def test_ordering_test():
    assert is_positive_definite_ordered(T312)
    assert not is_positive_definite_ordered(CirculantTriple(30, 24, 22))
    assert not is_positive_definite_ordered(CirculantTriple(3, 2.5, 2))
    assert not is_positive_definite_ordered(CirculantTriple(-3, -2, -1))


def test_leading_principal_minors():
    minors = leading_principal_minors(metric_components(T312))
    assert np.allclose(minors, [3, 8, 13, 21], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        leading_principal_minors(np.eye(3))


@given(ordered_triples)
def test_ordered_triples_are_positive_definite(t):
    assert is_positive_definite_ordered(t)
    g = metric_components(t)
    assert np.all(leading_principal_minors(g) > 0)
    assert np.all(np.linalg.eigvalsh(g) > 0)


def test_inner_values():
    assert inner(CirculantTriple(1, 0, 0), [1, 2, 3, 4], [1, 2, 3, 4]) == 30.0
    assert inner(T312, np.ones(4), np.ones(4)) == 28.0


@given(ordered_triples, vectors, vectors)
def test_isometry_of_affinor_powers(t, u, v):
    base = inner(t, u, v)
    assert inner(t, v, u) == pytest.approx(base, abs=1e-12 * (1 + abs(base)))
    for k in (1, 2, 3):
        moved = inner(t, apply_affinor(k, u), apply_affinor(k, v))
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
    return metric_components(CirculantTriple(abar, bbar, cbar))


@given(st.lists(st.tuples(_coords, _coords, _coords), max_size=12))
def test_batched_inverse_matches_scalar_formula_bitwise(triples):
    # exact zeros of d and a near-singular triple ride along in every batch
    triples = triples + [(2.0, 0.0, 2.0), (3.0, 2.0, 1.0), (1 + 1e-13, 0.25, 1.0), (3.0, 1.0, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ginv, d, degenerate = inverse_metrics(triples)
    assert ginv.shape == (len(triples), 4, 4)
    for row, flag, triple in zip(ginv, degenerate, triples):
        expected = _scalar_inverse(*triple)
        assert flag == (expected is None)
        if flag:
            assert np.all(np.isnan(row))
            with pytest.raises(SingularMetricError):
                inverse_metric(CirculantTriple(*triple))
        else:
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))
            assert np.array_equal(inverse_metric(CirculantTriple(*triple)), row)


def test_inverse_metrics_is_exact_over_fractions():
    rng = np.random.default_rng(11)
    numerators, denominators = rng.integers(-40, 41, (20, 3)), rng.integers(1, 13, (20, 3))
    triples = np.array(
        [list(map(Fraction, *row)) for row in zip(numerators.tolist(), denominators.tolist())],
        dtype=object,
    )
    ginv, d, degenerate = inverse_metrics(triples)
    assert not degenerate.any()
    identity = np.eye(4, dtype=int)
    for triple, inverse, dk in zip(triples, ginv, d):
        assert all(type(x) is Fraction for x in (*inverse.flat, dk))
        assert (triple[SLOT_FIELD].dot(inverse) == identity).all()


def test_inverse_metrics_raises_on_an_exact_zero_determinant():
    with pytest.raises(ZeroDivisionError):
        inverse_metrics(np.array([[Fraction(2), Fraction(1, 3), Fraction(2)]], dtype=object))
