"""Reference routes for the tests and demos, outside the public API.

`exact_geometry` is the `Geometry` pass itself over Fractions, the exact
reference for the float pass. The others recompute something by another
method: d Gamma, the route to R that the pass avoids, positive
definiteness by generic minors, lowering and raising an index, and the
slot-transfer identity at given vectors, through `contract_lowered`.
"""

import math
from fractions import Fraction

import numpy as np

from .circulant import SLOT_FIELD, apply_affinor, inverse_metrics
from .curvature import Geometry
from .manifolds import ManifoldSpec


def exact_jets(fields, points) -> tuple:
    """Values (F, N), gradients (F, 4, N) and Hessians (F, 4, 4, N) of fields at points.

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
                        for p in points] for s in field] for field in slots], dtype=object)
    fields, _, n = block.shape
    return block[:, 0], block[:, 1:5], block[:, 5:].reshape(fields, 4, 4, n)


def exact_geometry(manifold: ManifoldSpec, points) -> Geometry:
    """The `Geometry` pass over Fractions at N points, from `exact_jets`.

    The pass runs as it is, `inverse_metrics` too, so every stage but the
    scales (1 + a Fraction) is exact; an exact d = 0 raises
    ZeroDivisionError. `failures` and `finite_row` are not for it: their
    np.isfinite takes no object array.
    """
    return Geometry(*exact_jets((manifold.A, manifold.B, manifold.C), points))


def christoffel_partials(geometry: Geometry) -> np.ndarray:
    """dgamma[m, s, i, j, n] = d_m Gamma^s_ij of a pass, fully analytic, (4, 4, 4, 4, N).

    By the product rule, d_m Gamma^s_ij = g^{as} (dt[m, a, i, j] / 2
    - d_m g_ab Gamma^b_ij) with dt[m, a, i, j] = d_m t[a, i, j], from the
    pass's Hessians, so it runs on a pass over Fractions too.
    """
    hessians = geometry.hessians[SLOT_FIELD]  # [a, j, m, i] = d_m d_i g_aj
    first = hessians.transpose(2, 0, 3, 1, 4)  # d_m d_i g_aj at [m, a, i, j]
    dt = first + first.transpose(0, 1, 3, 2, 4) - hessians.transpose(2, 3, 0, 1, 4)
    dg_gamma = np.einsum("mabn,bijn->maijn", geometry.metric_partials, geometry.christoffel)
    return np.einsum("asn,maijn->msijn", geometry.inverse, dt / 2 - dg_gamma)


def leading_principal_minors(matrix) -> np.ndarray:
    """Determinants of the four leading principal submatrices.

    All strictly positive iff the matrix is positive definite; kept separate
    from the ordering test so the two can corroborate each other.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    return np.array([np.linalg.det(matrix[:k, :k]) for k in range(1, 5)])


def lower_index(triple, r13: np.ndarray) -> np.ndarray:
    """r4[h, k, j, i] = g_lh r13[l, k, j, i] for the metric value (a, b, c)."""
    return np.einsum("lh,lkji->hkji", np.asarray(triple)[SLOT_FIELD], r13)


def raise_index(triple, r4: np.ndarray) -> np.ndarray:
    """Inverse of lower_index, contracting with the inverse metric (NaN where it is degenerate)."""
    ginv = inverse_metrics(np.asarray(triple)[:, None])[0][..., 0]
    return np.einsum("hl,hkji->lkji", ginv, r4)


def contract_lowered(r4: np.ndarray, x, y, z, u) -> float:
    """R(x, y, z, u) from the (0,4) component array."""
    return float(np.einsum("hkji,j,i,k,h->", r4, x, y, z, u))


def curvature_q_invariance_residual(m: ManifoldSpec, p, x, y, z, u) -> float:
    """|R(x, y, z, qu) - R(x, y, q^3 z, u)| at p."""
    r4 = Geometry.at(m, p).finite_row("riemann_lowered")
    lhs = contract_lowered(r4, x, y, z, apply_affinor(1, u))
    rhs = contract_lowered(r4, x, y, apply_affinor(3, z), u)
    return abs(lhs - rhs)
