"""Riemann curvature and the structure identities tied to the affinor.

The (1,3) curvature follows the standard convention

    (R(e_j, e_i) e_k)^l = d_j Gamma^l_ik - d_i Gamma^l_jk
                          + Gamma^l_js Gamma^s_ik - Gamma^l_is Gamma^s_jk

stored as r[l, k, j, i], and the (0,4) tensor lowers the first index,
r4[h, k, j, i] = g_lh r[l, k, j, i], so that R(x, y, z, u) contracts x into
axis j, y into i, z into k and u into h.

The Christoffel partials entering d Gamma are assembled analytically from
the field Hessians together with d g^{-1} = -g^{-1} (d g) g^{-1}. The
tests compare every stage with the same pass in Fractions, kept in the
private `circulant4._oracles`.

On manifolds where q is parallel the curvature satisfies two structure
identities: the (0,4) tensor absorbs q from the last slot into the third as
q^3, R(x, y, z, q u) = R(x, y, q^3 z, u), equivalently R(x, y, q z, q u)
= R(x, y, z, u), and each endomorphism R(x, y) commutes with q. The gaps
by which they fail are zero up to roundoff when they hold.

`Geometry` extends the batched `Connection` pass with d Gamma, R, the
lowered R and both gaps, each computed once for N points. The scan checks
read the gaps from it; `christoffel_partials`, `riemann`, `riemann_lowered`,
`max_curvature_q_invariance_residual` and `curvature_q_commutation_residual`
are its N = 1 views. Like the report records, they raise
ValueError(CURVATURE_NOT_FINITE) where a value overflows.

Like `Connection`, `Geometry` keeps the points on the last axis (see the
`connection` module): d Gamma and R are (4, 4, 4, 4, N), their einsums
are those of the formulas above with n last, never optimized, and each
gap, and the scale its check compares it with (1 + the largest entry of
|R| or of the lowered |R|), is a maximum over the leading axes, (N,). The
stage attributes are the (N, ...) views, bit for bit what a points-first
pass computes.

Each rank-5 stage takes 4^4 N floats, 512 KiB at 256 points. A pass
forms its three in one block, (3, 4, 4, 4, 4, N): slot 0 holds d Gamma,
slot 1 R and slot 2 the lowered R. The stages form in that order, each
reading the one before, so while a stage is formed the slots after its
own are free and serve as its scratch:

- d Gamma sums its two einsum terms into slot 0. The Hessian term reads
  dt[m, a, i, j] = d_m d_i g_aj + d_m d_j g_ai - d_m d_a g_ij, formed in
  slot 1: `np.take` of the Hessians, by index tables built once, places
  the first term in slot 2, the second is its view with i and j swapped,
  and a second `np.take` into slot 2 gives the last. The einsum of the
  Hessian term then goes to slot 2.
- R sums its terms into slot 1, with the product term E1 (the third term
  of the formula) in slot 2. The fourth term E2 is E1 with j and i
  swapped, E2[l, k, j, i] = E1[l, k, i, j]: both are the same sum over s
  of the same products, so the transposed view of E1 gives E2's bits
  without a second einsum.
- The lowered R is an einsum into slot 2.

As q is the cyclic shift, each gap is four block subtractions of slices
of R into one buffer, with no shifted copy of R, and its scale takes |R|
in the same buffer. Each element goes through the same operations in the
same order as in the out-of-place sums, so the bits are the same. The
block takes the dtype of Gamma and the Hessians, and d Gamma, like Gamma,
is halved by `/ 2`, so a pass over object arrays of `fractions.Fraction`,
given an exact inverse, stays exact through the gaps; only the scales
add the float 1.

One block instead of a buffer per stage and term is also what lets the
allocator keep the memory between passes: glibc serves the first 1.5 MB
block by mmap, and freeing it raises the mmap and trim thresholds above
what a pass holds, so later passes reuse heap pages instead of mapping
and faulting in fresh ones. At 256 points that took the all-check scan
of a 4^4 grid from about 550 minor page faults per call, of 1.5-3.6 us
each, to none (glibc 2.36, 2-vCPU Xeon).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .circulant import SLOT_FIELD, metric_components
from .connection import Connection, _stage_view
from .manifolds import ManifoldSpec

__all__ = [
    "CURVATURE_NOT_FINITE",
    "Geometry",
    "christoffel_partials",
    "riemann",
    "riemann_lowered",
    "lower_index",
    "contract_lowered",
    "max_curvature_q_invariance_residual",
    "curvature_q_commutation_residual",
]


# what a report record says where a curvature check's tensor or residual overflows
CURVATURE_NOT_FINITE = "curvature is not finite"


def _hessian_tables() -> tuple:
    """Which rows of the flat (3 * 16, N) Hessians form dt, two tables [m, a, i, j].

    dt[m, a, i, j] = d_m d_i g_aj + d_m d_j g_ai - d_m d_a g_ij, and
    d_x d_y g_ab is row 16 f + 4 x + y, f = SLOT_FIELD[a, b], of the flat
    Hessians. The tables pick the first term and the last; the second is
    the first with i and j swapped.
    """
    m, a, i, j = np.indices((4, 4, 4, 4))
    tables = (16 * SLOT_FIELD[a, j] + 4 * m + i, 16 * SLOT_FIELD[i, j] + 4 * m + a)
    for table in tables:
        table.setflags(write=False)
    return tables


_DT_FIRST, _DT_LAST = _hessian_tables()


def _assemble_riemann(gamma, dgamma, out, scratch) -> np.ndarray:
    """r[l, k, j, i, n], the (1,3) curvature from Gamma and d Gamma, the points last.

    Summed ((T1 - T2) + E1) - E2 into `out`, with E1 in `scratch`, both of
    d Gamma's shape; E2 is E1 with its j and i axes swapped (see the module
    docstring). `out` is in C order, and so is the lowered R, which takes
    its layout, so that a block of the first two axes, as the gaps read
    them, is a run of whole contiguous rows: both gaps took 54 us at one
    point and 379 us at 256, against 74 and 573 us in the order that the
    transposes of d Gamma give (2-vCPU Xeon, numpy 2.4).
    """
    np.subtract(
        dgamma.transpose(1, 3, 0, 2, 4),  # "jlikn->lkjin"
        dgamma.transpose(1, 3, 2, 0, 4),  # "iljkn->lkjin"
        out=out,
    )
    e1 = np.einsum("ljsn,sikn->lkjin", gamma, gamma, out=scratch)
    out += e1
    out -= e1.transpose(0, 1, 3, 2, 4)  # E2, "lisn,sjkn->lkjin"
    return out


def _lower_index(g, r13, out) -> np.ndarray:
    """r4[h, k, j, i, n] = g_lh r13[l, k, j, i, n] into `out`, the points last."""
    return np.einsum("lhn,lkjin->hkjin", g, r13, out=out)


class Geometry(Connection):
    """The connection pass of `Connection` plus curvature, for N points.

    Adds d Gamma, R, the lowered R, the two curvature gaps and the scales
    they are compared against, each computed once, on first use, with the
    points last as in `Connection`; both curvature checks read the same R.
    Needs the Hessians.
    """

    jet_order = 2
    not_finite = CURVATURE_NOT_FINITE

    @cached_property
    def _curvature_block(self) -> np.ndarray:
        """d Gamma, R and the lowered R, in this order, (3, 4, 4, 4, 4, N)."""
        dtype = np.result_type(self._christoffel, self._hessians)
        return np.empty((3, 4, 4, 4, 4, self._values.shape[-1]), dtype)

    @cached_property
    def _christoffel_partials(self) -> np.ndarray:
        out, dt, term = self._curvature_block  # R's and the lowered R's slots as scratch
        ginv = self._inverse
        dginv = -np.einsum("abn,mbcn,cdn->madn", ginv, self._metric_partials, ginv)
        np.einsum("masn,aijn->msijn", dginv, self._first_kind, out=out)
        del dginv
        hessians = self._hessians.reshape(3 * 16, -1)
        # mode="clip" writes straight into out=, which the default mode buffers
        first = np.take(hessians, _DT_FIRST, axis=0, out=term, mode="clip")
        np.add(first, first.transpose(0, 1, 3, 2, 4), out=dt)
        dt -= np.take(hessians, _DT_LAST, axis=0, out=term, mode="clip")
        out += np.einsum("asn,maijn->msijn", ginv, dt, out=term)
        out /= 2
        return out

    christoffel_partials = _stage_view(
        "_christoffel_partials", "dgamma[n, m, s, i, j] = d_m Gamma^s_ij, fully analytic."
    )

    @cached_property
    def _riemann(self) -> np.ndarray:
        _, out, scratch = self._curvature_block  # the lowered R's slot as scratch
        return _assemble_riemann(self._christoffel, self._christoffel_partials, out, scratch)

    riemann = _stage_view("_riemann", "r[n, l, k, j, i], the (1,3) curvature.")

    @cached_property
    def _riemann_lowered(self) -> np.ndarray:
        return _lower_index(self._metric, self._riemann, self._curvature_block[2])

    riemann_lowered = _stage_view("_riemann_lowered", "r4[n, h, k, j, i], the (0,4) curvature.")

    @cached_property
    def _q_invariance(self) -> tuple:
        return _gap_and_scale(self._riemann_lowered, _Q_INVARIANCE_BLOCKS)

    q_invariance_gap = property(
        lambda self: self._q_invariance[0],
        doc="max over basis 4-tuples of |R(x, y, z, qu) - R(x, y, q^3 z, u)|, (N,).",
    )
    q_invariance_scale = property(
        lambda self: self._q_invariance[1],
        doc="1 + max |r4| per point, what the curvature31 check scales tol by, (N,).",
    )

    @cached_property
    def _q_commutation(self) -> tuple:
        return _gap_and_scale(self._riemann, _Q_COMMUTATION_BLOCKS)

    q_commutation_gap = property(
        lambda self: self._q_commutation[0],
        doc="Largest entry of the commutators of q with the R(e_j, e_i), (N,).",
    )
    q_commutation_scale = property(
        lambda self: self._q_commutation[1],
        doc="1 + max |r| per point, what the curvature32 check scales tol by, (N,).",
    )


# q is the cyclic shift, q_i^{.j} = 1 for j = i + 1 (mod 4), so contracting
# it into a slot moves that index to the next one (AFFINOR_NEXT) or the
# previous one (AFFINOR_PREVIOUS). Along an axis of length 4 either move is
# two blocks of (target, source) slices.
_NEXT = ((slice(0, 3), slice(1, 4)), (slice(3, 4), slice(0, 1)))
_PREVIOUS = ((slice(1, 4), slice(0, 3)), (slice(0, 1), slice(3, 4)))


def _shift_blocks(up: int) -> tuple:
    """The (target, minuend, subtrahend) indices of the four blocks of a q-gap.

    The gap's difference is r with the index on axis `up` moved to the
    next one, minus r with the index on the other of the first two axes
    moved to the previous one.
    """

    def at(up_slice, down_slice):
        return (up_slice, down_slice) if up == 0 else (down_slice, up_slice)

    return tuple(
        (at(up_to, down_to), at(up_from, down_to), at(up_to, down_from))
        for up_to, up_from in _NEXT
        for down_to, down_from in _PREVIOUS
    )


# R(x, y, z, qu) - R(x, y, q^3 z, u) at [h, k, ...] is r4[h + 1, k] - r4[h, k - 1]
_Q_INVARIANCE_BLOCKS = _shift_blocks(0)
# the commutator of q with R(e_j, e_i) at [l, k, ...] is r[l, k + 1] - r[l - 1, k]
_Q_COMMUTATION_BLOCKS = _shift_blocks(1)


def _gap_and_scale(r, blocks) -> tuple:
    """(max |d|, 1 + max |r|) over the leading axes of r, (N,) each.

    d, the difference of `_shift_blocks`, is formed block by block in one
    buffer, which |r| then reuses.
    """
    d = np.empty_like(r)
    for target, minuend, subtrahend in blocks:
        np.subtract(r[minuend], r[subtrahend], d[target])
    axes = tuple(range(r.ndim - 1))
    gap = np.abs(d, d).max(axis=axes)
    scale = 1.0 + np.abs(r, d).max(axis=axes)
    return gap, scale


def christoffel_partials(m: ManifoldSpec, p) -> np.ndarray:
    """dgamma[m, s, i, j] = d_m Gamma^s_ij, fully analytic.

    Like `riemann` and `riemann_lowered`, this raises the errors of
    `Geometry.at`, and ValueError(CURVATURE_NOT_FINITE) where it overflows.
    """
    return Geometry.at(m, p).finite_row("christoffel_partials")


def riemann(m: ManifoldSpec, p) -> np.ndarray:
    """The (1,3) curvature r[l, k, j, i], antisymmetric in (j, i)."""
    return Geometry.at(m, p).finite_row("riemann")


def lower_index(t, r13: np.ndarray) -> np.ndarray:
    """r4[h, k, j, i] = g_lh r13[l, k, j, i] for the metric value t."""
    r13 = np.asarray(r13)[..., None]
    return _lower_index(metric_components(t)[..., None], r13, np.empty(r13.shape))[..., 0]


def riemann_lowered(m: ManifoldSpec, p) -> np.ndarray:
    """The (0,4) curvature with the classical pair symmetries."""
    return Geometry.at(m, p).finite_row("riemann_lowered")


def contract_lowered(r4: np.ndarray, x, y, z, u) -> float:
    """R(x, y, z, u) from the (0,4) component array."""
    return float(np.einsum("hkji,j,i,k,h->", r4, x, y, z, u))


def max_curvature_q_invariance_residual(m: ManifoldSpec, p) -> float:
    """The slot-transfer residual maximized over all basis 4-tuples."""
    return float(Geometry.at(m, p).finite_row("q_invariance_gap"))


def curvature_q_commutation_residual(m: ManifoldSpec, p) -> float:
    """Largest entry of the commutator of q with the endomorphisms R(e_j, e_i)."""
    return float(Geometry.at(m, p).finite_row("q_commutation_gap"))
