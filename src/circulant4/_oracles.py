"""Reference routes for the tests and demos, outside the public API.

`exact_geometry` is the `Geometry` pass itself over Fractions, the exact
reference for the float pass. The others recompute something by another
method: positive definiteness by generic minors, lowering and raising an
index, and the slot-transfer identity one basis 4-tuple at a time.
"""

import math
from fractions import Fraction

import numpy as np

from .circulant import apply_affinor, inverse_metric, metric_components
from .curvature import Geometry, contract_lowered, riemann_lowered
from .manifolds import ManifoldSpec


def exact_jets(fields, points) -> tuple:
    """Values (N, F), gradients (N, F, 4) and Hessians (N, F, 4, 4) of fields at points.

    Object arrays of Fractions: each stored float coefficient and each
    coordinate is taken exactly, and the terms are differentiated exactly.
    """
    def partial(terms, k):
        return {(*e[:k], e[k] - 1, *e[k + 1 :]): c * e[k] for e, c in terms.items() if e[k]}

    slots = []  # per field, its terms and those of its 4 first and 16 second partials
    for f in fields:
        terms = {e: Fraction(c) for e, c in f.terms().items()}
        firsts = [partial(terms, k) for k in range(4)]
        slots.append([terms, *firsts, *(partial(t, k) for t in firsts for k in range(4))])
    points = [[Fraction(x) for x in p] for p in points]
    block = np.array([[[sum((c * math.prod(map(pow, p, e)) for e, c in s.items()), Fraction(0))
                        for s in field] for field in slots] for p in points], dtype=object)
    return block[..., 0], block[..., 1:5], block[..., 5:].reshape(*block.shape[:2], 4, 4)


def exact_geometry(manifold: ManifoldSpec, points) -> Geometry:
    """The `Geometry` pass over Fractions at N points, from `exact_jets`.

    The pass runs as it is, `inverse_metrics` too, so every stage but the
    scales (1 + a Fraction) is exact; an exact d = 0 raises
    ZeroDivisionError. `failures` and `finite_row` are not for it: their
    np.isfinite takes no object array.
    """
    return Geometry(*exact_jets((manifold.A, manifold.B, manifold.C), points))


def leading_principal_minors(matrix) -> np.ndarray:
    """Determinants of the four leading principal submatrices.

    All strictly positive iff the matrix is positive definite; kept separate
    from the ordering test so the two can corroborate each other.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    return np.array([np.linalg.det(matrix[:k, :k]) for k in range(1, 5)])


def lower_index(t, r13: np.ndarray) -> np.ndarray:
    """r4[h, k, j, i] = g_lh r13[l, k, j, i] for the metric value t."""
    return np.einsum("lh,lkji->hkji", metric_components(t), r13)


def raise_index(t, r4: np.ndarray) -> np.ndarray:
    """Inverse of lower_index, contracting with the inverse metric."""
    return np.einsum("hl,hkji->lkji", inverse_metric(t), r4)


def curvature_q_invariance_residual(m: ManifoldSpec, p, x, y, z, u) -> float:
    """|R(x, y, z, qu) - R(x, y, q^3 z, u)| at p."""
    r4 = riemann_lowered(m, p)
    lhs = contract_lowered(r4, x, y, z, apply_affinor(1, u))
    rhs = contract_lowered(r4, x, y, apply_affinor(3, z), u)
    return abs(lhs - rhs)
