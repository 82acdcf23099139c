"""Riemann curvature and the structure identities tied to the affinor.

The (1,3) curvature follows the standard convention

    (R(e_j, e_i) e_k)^l = d_j Gamma^l_ik - d_i Gamma^l_jk
                          + Gamma^l_js Gamma^s_ik - Gamma^l_is Gamma^s_jk

stored as r[l, k, j, i], and the (0,4) tensor lowers the first index,
r4[h, k, j, i] = g_lh r[l, k, j, i], so that R(x, y, z, u) contracts x into
axis j, y into i, z into k and u into h.

The Christoffel partials entering d Gamma are assembled analytically from
the field Hessians together with d g^{-1} = -g^{-1} (d g) g^{-1}. The
central-difference route that the tests compare them with lives in the
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
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .circulant import AFFINOR_NEXT, AFFINOR_PREVIOUS, SLOT_FIELD, metric_components
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


def _assemble_riemann(gamma, dgamma) -> np.ndarray:
    """r[l, k, j, i, n], the (1,3) curvature from Gamma and d Gamma, the points last."""
    return (
        dgamma.transpose(1, 3, 0, 2, 4)  # "jlikn->lkjin"
        - dgamma.transpose(1, 3, 2, 0, 4)  # "iljkn->lkjin"
        + np.einsum("ljsn,sikn->lkjin", gamma, gamma)
        - np.einsum("lisn,sjkn->lkjin", gamma, gamma)
    )


def _lower_index(g, r13) -> np.ndarray:
    """r4[h, k, j, i, n] = g_lh r13[l, k, j, i, n], the points last."""
    return np.einsum("lhn,lkjin->hkjin", g, r13)


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
    def _christoffel_partials(self) -> np.ndarray:
        ginv = self._inverse
        # hessians[f, m, i, n] placed at [a, j, m, i, n], read as hg[m, i, a, j, n]
        hg = self._hessians[SLOT_FIELD].transpose(2, 3, 0, 1, 4)  # d_m d_i g_aj
        # "miajn->maijn" + "mjain->maijn" - hg
        dt = hg.transpose(0, 2, 1, 3, 4) + hg.transpose(0, 2, 3, 1, 4) - hg
        dginv = -np.einsum("abn,mbcn,cdn->madn", ginv, self._metric_partials, ginv)
        return 0.5 * (
            np.einsum("masn,aijn->msijn", dginv, self._first_kind)
            + np.einsum("asn,maijn->msijn", ginv, dt)
        )

    christoffel_partials = _stage_view(
        "_christoffel_partials", "dgamma[n, m, s, i, j] = d_m Gamma^s_ij, fully analytic."
    )

    @cached_property
    def _riemann(self) -> np.ndarray:
        return _assemble_riemann(self._christoffel, self._christoffel_partials)

    riemann = _stage_view("_riemann", "r[n, l, k, j, i], the (1,3) curvature.")

    @cached_property
    def _riemann_lowered(self) -> np.ndarray:
        return _lower_index(self._metric, self._riemann)

    riemann_lowered = _stage_view("_riemann_lowered", "r4[n, h, k, j, i], the (0,4) curvature.")

    @cached_property
    def q_invariance_gap(self) -> np.ndarray:
        """max over basis 4-tuples of |R(x, y, z, qu) - R(x, y, q^3 z, u)|, (N,)."""
        r4 = self._riemann_lowered
        return np.abs(r4[AFFINOR_NEXT] - r4[:, AFFINOR_PREVIOUS]).max(axis=(0, 1, 2, 3))

    @cached_property
    def q_invariance_scale(self) -> np.ndarray:
        """1 + max |r4| per point, what the curvature31 check scales tol by, (N,)."""
        return 1.0 + np.abs(self._riemann_lowered).max(axis=(0, 1, 2, 3))

    @cached_property
    def q_commutation_gap(self) -> np.ndarray:
        """Largest entry of the commutators of q with the R(e_j, e_i), (N,)."""
        r13 = self._riemann
        return np.abs(r13[:, AFFINOR_NEXT] - r13[AFFINOR_PREVIOUS]).max(axis=(0, 1, 2, 3))

    @cached_property
    def q_commutation_scale(self) -> np.ndarray:
        """1 + max |r| per point, what the curvature32 check scales tol by, (N,)."""
        return 1.0 + np.abs(self._riemann).max(axis=(0, 1, 2, 3))


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
    return _lower_index(metric_components(t)[..., None], np.asarray(r13)[..., None])[..., 0]


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
