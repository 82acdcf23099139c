"""Pointwise linear algebra of the circulant metric and the cyclic affinor.

A metric value here is a symmetric circulant 4x4 matrix determined by three
numbers (a, b, c), first row (a, b, c, b). Its determinant and inverse have
closed forms in the triple, which this module uses directly; generic LU
routines serve only as test oracles. The inverse is computed for N triples
at once (`inverse_metrics`); `inverse_metric` is its N = 1 view. The
affinor q is the cyclic forward shift, a (1,1) tensor with q^4 = id and
q^2 != +-id, acting on vector components as (qv)^j = q_i^{.j} v^i, i.e.
qv = (v4, v1, v2, v3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import _points_first

__all__ = [
    "CirculantTriple",
    "SingularMetricError",
    "AFFINOR",
    "AFFINOR_NEXT",
    "AFFINOR_PREVIOUS",
    "SLOT_FIELD",
    "affinor_power",
    "apply_affinor",
    "metric_components",
    "metric_determinant",
    "degeneracy_threshold",
    "inverse_metric",
    "inverse_metrics",
    "degeneracy_error",
    "is_positive_definite_ordered",
    "inner",
]


class SingularMetricError(ValueError):
    """The triple is (numerically) degenerate, no inverse metric exists."""


@dataclass(frozen=True)
class CirculantTriple:
    """The three independent components of a circulant metric value."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


# the triple component (0 = a, 1 = b, 2 = c) in slot (i, j) of the matrix,
# by the offset (j - i) mod 4; the same map places A, B, C and their
# derivatives in the metric, and abar, bbar, cbar in its inverse
SLOT_FIELD = np.array([[(0, 1, 2, 1)[(j - i) % 4] for j in range(4)] for i in range(4)])
SLOT_FIELD.setflags(write=False)

# q_i^{.j}: row i is the lower index, column j the upper one.
AFFINOR = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
    ]
)
AFFINOR.setflags(write=False)
# q as index maps: q_i^{.j} = 1 exactly for j = AFFINOR_NEXT[i], and for
# i = AFFINOR_PREVIOUS[j]; contracting q into a slot shifts that index
AFFINOR_NEXT = AFFINOR.argmax(axis=1)
AFFINOR_PREVIOUS = AFFINOR.argmax(axis=0)

_POWERS = []
for _k in range(4):
    _m = np.linalg.matrix_power(AFFINOR, _k)
    _m.setflags(write=False)
    _POWERS.append(_m)
_POWERS = tuple(_POWERS)


def affinor_power(k: int) -> np.ndarray:
    """The matrix of q^k (read-only); exponents are taken mod 4."""
    return _POWERS[k % 4]


def _as_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {out.shape}")
    return out


def apply_affinor(k: int, v) -> np.ndarray:
    """Apply q^k to a vector: one forward cyclic shift per power of q."""
    return np.roll(_as_vector(v), k % 4)


def metric_components(t: CirculantTriple) -> np.ndarray:
    return np.array([t.a, t.b, t.c])[SLOT_FIELD]


def metric_determinant(t: CirculantTriple) -> float:
    """det g = (a - c)^2 ((a + c)^2 - 4 b^2), exact in the triple; inf past the float range."""
    return (t.a - t.c) * (t.a - t.c) * ((t.a + t.c) * (t.a + t.c) - 4.0 * t.b * t.b)


def _thresholds(a, b, c) -> np.ndarray:
    s = 1.0 + np.abs(a) + np.abs(b) + np.abs(c)
    # a cube past the float range is inf, and so is the threshold
    with np.errstate(over="ignore"):
        return 1e-12 * (s * s * s)


def degeneracy_threshold(t: CirculantTriple) -> float:
    """Scale-aware cutoff below which the inverse is refused."""
    return float(_thresholds(*np.array([[t.a], [t.b], [t.c]]))[0])


def degeneracy_error(a: float, b: float, c: float, d: float) -> SingularMetricError:
    """The error for a degenerate triple, d as in `inverse_metrics`."""
    problem = "is numerically degenerate"
    if math.isinf(d):
        problem = "has an overflowing closed-form inverse"
    return SingularMetricError(f"circulant metric ({a}, {b}, {c}) {problem} (d = {d:.3e})")


def inverse_metrics(triples):
    """Closed-form inverses of N metric values, each circulant with first row
    (abar, bbar, cbar, bbar)/d.

    triples is an (N, 3) array of (a, b, c). Returns (ginv (N, 4, 4), d (N,),
    degenerate (N,)): a point is degenerate when |d|, with
    d = (a - c)((a + c)^2 - 4 b^2), falls at or below the degeneracy
    threshold or is not finite, and its ginv is NaN. The square in d and the
    cube in the threshold are products, as the jets form powers; the
    arithmetic is elementwise, so each row equals its N = 1 result bit for
    bit.
    ginv is a view of a (4, 4, N) array, the points last, as the geometry
    pass reads it: `fields._points_last` gives it back without a copy.
    """
    a, b, c = np.asarray(triples, dtype=float).T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = (a - c) * ((a + c) * (a + c) - 4.0 * b * b)
        # written so that a NaN d (inf - inf) counts as degenerate; where d
        # overflows to inf, so does the threshold
        degenerate = ~(np.abs(d) > _thresholds(a, b, c))
        bars = np.stack(
            [
                (a * (a + c) - 2.0 * b * b) / d,
                (b * (c - a)) / d,
                (2.0 * b * b - c * (a + c)) / d,
            ]
        )
    bars[:, degenerate] = np.nan
    return _points_first(bars[SLOT_FIELD]), d, degenerate


def inverse_metric(t: CirculantTriple) -> np.ndarray:
    """The inverse at one triple; raises SingularMetricError where it is degenerate."""
    ginv, d, degenerate = inverse_metrics([[t.a, t.b, t.c]])
    if degenerate[0]:
        raise degeneracy_error(t.a, t.b, t.c, float(d[0]))
    return ginv[0]


def is_positive_definite_ordered(t: CirculantTriple) -> bool:
    """Sufficient ordering test a > c > b > 0 for positive definiteness."""
    return t.a > t.c > t.b > 0.0


def inner(t: CirculantTriple, u, v) -> float:
    """g(u, v) for the metric value t."""
    u = _as_vector(u)
    v = _as_vector(v)
    return float(u @ metric_components(t) @ v)
