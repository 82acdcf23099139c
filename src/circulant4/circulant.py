"""Pointwise linear algebra of the circulant metric and the cyclic affinor.

A metric value here is a symmetric circulant 4x4 matrix determined by three
numbers (a, b, c), first row (a, b, c, b). Its determinant and inverse have
closed forms in the triple, which this module uses directly; generic LU
routines serve only as test oracles. The inverse is computed for N triples
at once (`inverse_metrics`), and det g is (a - c) times its d. The affinor
q is the cyclic forward shift, a (1,1) tensor with q^4 = id and
q^2 != +-id, acting on vector components as (qv)^j = q_i^{.j} v^i, i.e.
qv = (v4, v1, v2, v3).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularMetricError",
    "AFFINOR",
    "AFFINOR_NEXT",
    "AFFINOR_PREVIOUS",
    "SLOT_FIELD",
    "affinor_power",
    "apply_affinor",
    "inverse_metrics",
    "degeneracy_error",
]


class SingularMetricError(ValueError):
    """The triple is (numerically) degenerate, no inverse metric exists."""


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


def _thresholds(a, b, c) -> np.ndarray:
    s = 1.0 + np.abs(a) + np.abs(b) + np.abs(c)
    # a cube past the float range is inf, and so is the threshold
    with np.errstate(over="ignore"):
        return 1e-12 * (s * s * s)


def degeneracy_error(a: float, b: float, c: float, d: float) -> SingularMetricError:
    """The error for a degenerate triple, d as in `inverse_metrics`."""
    problem = "is numerically degenerate"
    if math.isinf(d):
        problem = "has an overflowing closed-form inverse"
    return SingularMetricError(f"circulant metric ({a}, {b}, {c}) {problem} (d = {d:.3e})")


def inverse_metrics(triples):
    """Closed-form inverses of N metric values, each circulant with first row
    (abar, bbar, cbar, bbar)/d.

    triples is a (3, N) array of (a, b, c), the points last, as the jets give
    the values. Returns (ginv (4, 4, N), d (N,), degenerate (N,)): a point is
    degenerate when |d|, with d = (a - c)((a + c)^2 - 4 b^2), falls at or
    below the degeneracy threshold or is not finite, and its ginv is NaN.
    The square in d and the cube in the threshold are products, as the jets
    form powers; the arithmetic is elementwise, so each point's inverse
    equals its N = 1 result bit for bit. The bars are divided into one
    (3, N) array, and ginv gathers them by `SLOT_FIELD`.

    An object array of `fractions.Fraction` triples takes the same
    operations and stays exact but for the thresholds (an exact d = 0 raises
    ZeroDivisionError); any other dtype is cast to float.
    """
    triples = np.asarray(triples)
    if triples.dtype != object:
        triples = triples.astype(float, copy=False)
    a, b, c = triples
    bars = np.empty((3, len(a)), triples.dtype)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s, bb = a + c, 2 * b * b
        d = (a - c) * (s * s - 4 * b * b)
        # written so that a NaN d (inf - inf) counts as degenerate; where d
        # overflows to inf, so does the threshold
        degenerate = ~(np.abs(d) > _thresholds(a, b, c))
        np.divide(a * s - bb, d, out=bars[0])
        np.divide(b * (c - a), d, out=bars[1])
        np.divide(bb - c * s, d, out=bars[2])
    bars[:, degenerate] = np.nan
    return bars[SLOT_FIELD], d, degenerate
