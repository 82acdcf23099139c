"""Riemann curvature and the structure identities tied to the affinor.

The (1,3) curvature follows the standard convention

    (R(e_j, e_i) e_k)^l = d_j Gamma^l_ik - d_i Gamma^l_jk
                          + Gamma^l_js Gamma^s_ik - Gamma^l_is Gamma^s_jk

stored as r[l, k, j, i], and the (0,4) tensor lowers the first index,
r4[h, k, j, i] = g_lh r[l, k, j, i], so that R(x, y, z, u) contracts x into
axis j, y into i, z into k and u into h.

The pass forms the lowered R first, by the classical formula of the first
kind, and R from it. With t[a, i, j] = d_i g_aj + d_j g_ai - d_a g_ij,
twice the symbols of the first kind, g_hs Gamma^s_ik = t[h, i, k] / 2, so
g_hl d_j Gamma^l_ik = d_j t[h, i, k] / 2 - d_j g_hs Gamma^s_ik. As
d_j g_hs - t[h, j, s] / 2 = t[s, j, h] / 2, that gives

    r4[h, k, j, i] = G[h, k, j, i] / 2 - G[h, k, i, j] / 2
    G[h, k, j, i] = d_j d_k g_hi - d_j d_h g_ik - t[s, j, h] Gamma^s_ik

and R is g^{lh} r4[h, k, j, i]. So a pass needs no derivative of Gamma or
of g^{-1}, and runs two rank-5 einsums. Through d Gamma, R would sum terms
of the size of |Gamma|^2 and |d g^{-1}| |t| that cancel: on `example`,
which is flat, this route keeps the largest |r4| over the 1 223 valid
points of a seeded sample of [0.5, 2]^4 at 2.6e-12.

The tests compare every stage with the same pass in Fractions, and R with
the route through d Gamma and with exact central differences of the exact
Gamma, all kept in the private `circulant4._oracles`.

On manifolds where q is parallel the curvature satisfies two structure
identities: the (0,4) tensor absorbs q from the last slot into the third as
q^3, R(x, y, z, q u) = R(x, y, q^3 z, u), equivalently R(x, y, q z, q u)
= R(x, y, z, u), and each endomorphism R(x, y) commutes with q. The gaps
by which they fail are zero up to roundoff when they hold.

`Geometry` extends the batched `Connection` pass with R, the lowered R and
both gaps, each computed once for N points. The scan checks
read the gaps from it, and `Geometry.at(m, p).finite_row(stage)` reads any
stage at one point; like the report records, it raises
ValueError(CURVATURE_NOT_FINITE) where the row overflows.

Like `Connection`, `Geometry` keeps the points on the last axis (see the
`connection` module): R and the lowered R are (4, 4, 4, 4, N), their
einsums are those of the formulas above with n last, never optimized, and
each gap, and the scale its check compares it with (1 + the largest entry
of |R| or of the lowered |R|), is a maximum over the leading axes, (N,).

Each rank-5 stage takes 4^4 N floats, 512 KiB at 256 points. A pass
holds the lowered R, R and the gaps' scratch in one block, (3, 4, 4, 4,
4, N), in this order. The lowered R forms first, with the other two
slots as its scratch. The Hessians and t are halved into the gaps' slot.
`np.take` of the halved Hessians, by index tables built once, places the
first second-derivative term of G / 2 in slot 1 and the second in slot
0, which slot 1 then subtracts, and the einsum term, from t / 2, goes
through slot 0 in the same way. G / 2 minus its (j, i) transpose, into
slot 0, is the lowered R. Halving the inputs, a third of a slot's
entries, in place of the lowered R divides fewer entries and gives the
same bits wherever nothing overflows or underflows. R is an einsum from
slot 0 into slot 1.

As q is the cyclic shift, each gap is four block subtractions of slices
of R into slot 2, with no shifted copy of R, and its scale takes |R| in
the same slot. Each element goes through the same operations in the same
order as in the out-of-place sums, so the bits are the same. The block
takes the dtype of Gamma and the Hessians, and the halves, like Gamma,
are taken by `/ 2`, so a pass over object arrays of `fractions.Fraction`,
whose inverse `inverse_metrics` keeps exact, stays exact through the
gaps; only the scales add the float 1.

One block instead of a buffer per stage, term and gap is also what lets
the allocator keep the memory between passes: glibc serves the first
such block by mmap, and freeing it raises the mmap threshold to its size
and the trim threshold to twice that, above what a pass holds, so later
passes reuse heap pages instead of mapping and faulting in fresh ones.
At 256 points the all-check scan of a 4^4 grid faults in no page per
call, where a buffer per stage costs about 550 minor page faults, of
1.5-3.6 us each (glibc 2.36, 2-vCPU Xeon). The gaps' scratch is a slot of
the block too: a block of two slots sets the trim threshold below the
pass's peak.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .circulant import SLOT_FIELD
from .connection import Connection

__all__ = ["CURVATURE_NOT_FINITE", "Geometry"]


# what a report record says where a curvature check's tensor or residual overflows
CURVATURE_NOT_FINITE = "curvature is not finite"


def _hessian_tables() -> tuple:
    """Which rows of the flat (3 * 16, N) Hessians form G, two tables [h, k, j, i].

    d_x d_y g_ab is row 16 f + 4 x + y, f = SLOT_FIELD[a, b], of the flat
    Hessians. The tables pick d_j d_k g_hi and d_j d_h g_ik, the two
    second-derivative terms of G (see the module docstring).
    """
    h, k, j, i = np.indices((4, 4, 4, 4))
    tables = (16 * SLOT_FIELD[h, i] + 4 * j + k, 16 * SLOT_FIELD[i, k] + 4 * j + h)
    for table in tables:
        table.setflags(write=False)
    return tables


_G_FIRST, _G_SECOND = _hessian_tables()


class Geometry(Connection):
    """The connection pass of `Connection` plus curvature, for N points.

    Adds R, the lowered R, the two curvature gaps and the scales
    they are compared against, each computed once, on first use, with the
    points last as in `Connection`; both curvature checks read the same R.
    Needs the Hessians.
    """

    jet_order = 2
    not_finite = CURVATURE_NOT_FINITE

    @cached_property
    def _curvature_block(self) -> np.ndarray:
        """The lowered R, R and the gaps' scratch, in this order, (3, 4, 4, 4, 4, N)."""
        dtype = np.result_type(self.christoffel, self.hessians)
        return np.empty((3, 4, 4, 4, 4, self.values.shape[-1]), dtype)

    @cached_property
    def riemann_lowered(self) -> np.ndarray:
        """r4[h, k, j, i, n], the (0,4) curvature."""
        out, half_g, scratch = self._curvature_block  # G / 2 in R's slot
        # the halves of the Hessians and of t, in the gaps' slot
        half_hessians = np.divide(self.hessians, 2, out=scratch[0, :3]).reshape(3 * 16, -1)
        half_t = np.divide(self.first_kind, 2, out=scratch[1])
        # mode="clip" writes straight into out=, which the default mode buffers
        np.take(half_hessians, _G_FIRST, axis=0, out=half_g, mode="clip")
        half_g -= np.take(half_hessians, _G_SECOND, axis=0, out=out, mode="clip")
        half_g -= np.einsum("sjhn,sikn->hkjin", half_t, self.christoffel, out=out)
        return np.subtract(half_g, half_g.transpose(0, 1, 3, 2, 4), out=out)

    @cached_property
    def riemann(self) -> np.ndarray:
        """r[l, k, j, i, n] = g^{lh} r4[h, k, j, i, n], the (1,3) curvature."""
        r4 = self.riemann_lowered
        return np.einsum("lhn,hkjin->lkjin", self.inverse, r4, out=self._curvature_block[1])

    @cached_property
    def _q_invariance(self) -> tuple:
        scratch = self._curvature_block[2]
        return _gap_and_scale(self.riemann_lowered, _Q_INVARIANCE_BLOCKS, scratch)

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
        scratch = self._curvature_block[2]
        return _gap_and_scale(self.riemann, _Q_COMMUTATION_BLOCKS, scratch)

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


def _gap_and_scale(r, blocks, d) -> tuple:
    """(max |d|, 1 + max |r|) over the leading axes of r, (N,) each.

    d, the difference of `_shift_blocks`, is formed block by block in the
    buffer d, of r's shape, which |r| then reuses.
    """
    for target, minuend, subtrahend in blocks:
        np.subtract(r[minuend], r[subtrahend], d[target])
    axes = tuple(range(r.ndim - 1))
    gap = np.abs(d, d).max(axis=axes)
    scale = 1.0 + np.abs(r, d).max(axis=axes)
    return gap, scale
