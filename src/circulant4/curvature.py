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
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .circulant import AFFINOR_NEXT, AFFINOR_PREVIOUS, SLOT_FIELD, metric_components
from .connection import Connection
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


def _riemann(gamma, dgamma) -> np.ndarray:
    """r[n, l, k, j, i], the (1,3) curvature from Gamma and d Gamma."""
    return (
        np.einsum("njlik->nlkji", dgamma)
        - np.einsum("niljk->nlkji", dgamma)
        + np.einsum("nljs,nsik->nlkji", gamma, gamma)
        - np.einsum("nlis,nsjk->nlkji", gamma, gamma)
    )


def _lower_index(g, r13) -> np.ndarray:
    """r4[n, h, k, j, i] = g_lh r13[n, l, k, j, i]."""
    return np.einsum("nlh,nlkji->nhkji", g, r13)


class Geometry(Connection):
    """The connection pass of `Connection` plus curvature, for N points.

    Adds d Gamma, R, the lowered R and the two curvature gaps, each
    computed once, on first use; both curvature checks read the same R.
    Needs the Hessians.
    """

    jet_order = 2
    not_finite = CURVATURE_NOT_FINITE

    @cached_property
    def christoffel_partials(self) -> np.ndarray:
        """dgamma[n, m, s, i, j] = d_m Gamma^s_ij, fully analytic."""
        ginv = self.inverse
        hg = np.einsum("najmi->nmiaj", self.hessians[:, SLOT_FIELD])  # d_m d_i g_aj
        dt = np.einsum("nmiaj->nmaij", hg) + np.einsum("nmjai->nmaij", hg) - hg
        dginv = -np.einsum("nab,nmbc,ncd->nmad", ginv, self.metric_partials, ginv)
        return 0.5 * (
            np.einsum("nmas,naij->nmsij", dginv, self.first_kind)
            + np.einsum("nas,nmaij->nmsij", ginv, dt)
        )

    @cached_property
    def riemann(self) -> np.ndarray:
        return _riemann(self.christoffel, self.christoffel_partials)

    @cached_property
    def riemann_lowered(self) -> np.ndarray:
        return _lower_index(self.metric, self.riemann)

    @cached_property
    def q_invariance_gap(self) -> np.ndarray:
        """max over basis 4-tuples of |R(x, y, z, qu) - R(x, y, q^3 z, u)|, (N,)."""
        r4 = self.riemann_lowered
        return np.abs(r4[:, AFFINOR_NEXT] - r4[:, :, AFFINOR_PREVIOUS]).max(axis=(1, 2, 3, 4))

    @cached_property
    def q_commutation_gap(self) -> np.ndarray:
        """Largest entry of the commutators of q with the R(e_j, e_i), (N,)."""
        r13 = self.riemann
        return np.abs(r13[:, :, AFFINOR_NEXT] - r13[:, AFFINOR_PREVIOUS]).max(axis=(1, 2, 3, 4))


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
    return _lower_index(metric_components(t)[None], np.asarray(r13)[None])[0]


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
