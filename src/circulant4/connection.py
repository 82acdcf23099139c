"""Levi-Civita connection and the parallelism of the affinor.

Christoffel symbols come from 2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai
- d_a g_ij), with the metric partials read off the field gradients: the
slot (a, j) of the circulant metric is A, B or C according to the offset
(j - a) mod 4, so d_i g_aj is the i-th partial of that field.

The affinor q is constant, hence nabla_i q^s_j = Gamma^s_ik q^k_j
- Gamma^k_ij q^s_k. Vanishing of this tensor is equivalent to a linear
first-order system on the coefficient gradients; both the expanded
16-relation form and the reduced 8-relation form are exposed as labeled
residual reports, and `parallelism_verdict` requires the differential and
algebraic criteria to agree.

Every quantity is computed for N points at once by `Connection`, each
stage once, on first use. The per-point functions (`christoffel`,
`nabla_q`, ...) are its N = 1 views; they raise the reason that
`Connection.failures` gives for a point with no result, which scan records
report. `check_tolerance` is the one rule for a usable tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circulant import (
    AFFINOR_NEXT,
    AFFINOR_PREVIOUS,
    SLOT_FIELD,
    SingularMetricError,
    degeneracy_error,
    inverse_metrics,
)
from .fields import as_point
from .manifolds import ManifoldSpec

__all__ = [
    "DomainError",
    "ResidualReport",
    "Connection",
    "check_tolerance",
    "metric_partials",
    "metric_partials_batch",
    "christoffel",
    "nabla_q",
    "gradient_condition_residuals",
    "gradient_condition_batch",
    "full_system_residuals",
    "full_system_batch",
    "parallelism_verdict",
]


class DomainError(ValueError):
    """The point lies on an excluded locus of the manifold."""


def check_tolerance(tol: float, name: str = "tolerance") -> None:
    """Raise ValueError unless tol is positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol}")


@dataclass(frozen=True)
class ResidualReport:
    """Labeled non-negative residuals, in a fixed order."""

    entries: tuple[tuple[str, float], ...]

    @property
    def max_residual(self) -> float:
        return max((value for _, value in self.entries), default=0.0)

    def __getitem__(self, label: str) -> float:
        for key, value in self.entries:
            if key == label:
                return value
        raise KeyError(label)

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)


# Subscripts denote partials: A1 is dA/dx1 and so on.
REDUCED_LABELS = (
    "A1 - C3",
    "A2 - C4",
    "A3 - C1",
    "A4 - C2",
    "B1 - B3",
    "B2 - B4",
    "2*B1 - C4 - C2",
    "2*B2 - C1 - C3",
)
FULL_LABELS = (
    "A4 - B1 + B3 - C2",
    "A4 + B1 - B3 - C2",
    "2*A2 + A4 - 3*B1 - B3 + C2",
    "A3 + B2 - B4 - C1",
    "A3 - B2 + B4 - C1",
    "A2 - B1 + B3 - C4",
    "A2 + B1 - B3 - C4",
    "A4 - B1 - 3*B3 + C2 + 2*C4",
    "A2 + 2*A4 - 3*B1 - B3 + C4",
    "A2 + 2*A4 - B1 - 3*B3 + C4",
    "A1 + 2*A3 - 3*B2 - B4 + C3",
    "A1 - B2 + B4 - C3",
    "A3 - B2 - 3*B4 + C1 + 2*C3",
    "A1 - B2 - 3*B4 + 2*C1 + C3",
    "2*A1 + A3 - B2 - 3*B4 + C1",
    "A2 - B1 - 3*B3 + 2*C2 + C4",
)


def metric_partials_batch(gradients) -> np.ndarray:
    """dg[n, i, a, j] = d_i g_aj, from the field gradients (N, 3, 4)."""
    return np.moveaxis(gradients[:, SLOT_FIELD], 3, 1)


def gradient_condition_batch(gradients) -> np.ndarray:
    """The eight reduced residuals (in `REDUCED_LABELS` order) at N points, (N, 8)."""
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4) = np.moveaxis(gradients, 0, 2)
    return np.abs(
        np.stack(
            [
                a1 - c3,
                a2 - c4,
                a3 - c1,
                a4 - c2,
                b1 - b3,
                b2 - b4,
                2.0 * b1 - c4 - c2,
                2.0 * b2 - c1 - c3,
            ],
            axis=1,
        )
    )


def full_system_batch(gradients) -> np.ndarray:
    """The sixteen expanded residuals (in `FULL_LABELS` order) at N points, (N, 16)."""
    (a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4) = np.moveaxis(gradients, 0, 2)
    return np.abs(
        np.stack(
            [
                a4 - b1 + b3 - c2,
                a4 + b1 - b3 - c2,
                2.0 * a2 + a4 - 3.0 * b1 - b3 + c2,
                a3 + b2 - b4 - c1,
                a3 - b2 + b4 - c1,
                a2 - b1 + b3 - c4,
                a2 + b1 - b3 - c4,
                # -3*B3 here: the +3*B3 variant equals 3*(C2 + C4) under the
                # reduced relations, so it is not implied by them.
                a4 - b1 - 3.0 * b3 + c2 + 2.0 * c4,
                a2 + 2.0 * a4 - 3.0 * b1 - b3 + c4,
                a2 + 2.0 * a4 - b1 - 3.0 * b3 + c4,
                a1 + 2.0 * a3 - 3.0 * b2 - b4 + c3,
                a1 - b2 + b4 - c3,
                a3 - b2 - 3.0 * b4 + c1 + 2.0 * c3,
                a1 - b2 - 3.0 * b4 + 2.0 * c1 + c3,
                2.0 * a1 + a3 - b2 - 3.0 * b4 + c1,
                a2 - b1 - 3.0 * b3 + 2.0 * c2 + c4,
            ],
            axis=1,
        )
    )


class Connection:
    """The connection of a manifold at N points, from the jets of A, B, C there.

    Built from values (N, 3), gradients (N, 3, 4) and, for curvature,
    Hessians (N, 3, 4, 4), as `ManifoldSpec.jets` returns them. The inverse
    metric is computed at once, every later stage once, for all N points,
    on first use. Points where the metric is numerically degenerate are
    flagged in `degenerate`; their rows of every derived array are NaN.
    `failures` says which points have no result, and why.
    """

    jet_order = 1

    def __init__(self, values, gradients, hessians=None):
        self.values = values
        self.gradients = gradients
        self.hessians = hessians
        self.inverse, self.d, self.degenerate = inverse_metrics(values)

    @classmethod
    def at(cls, manifold: ManifoldSpec, p):
        """The pass at the single point p.

        Raises DomainError on an excluded locus, SingularMetricError where
        the metric is numerically degenerate and ValueError naming the
        field where a value or a derivative the pass needs is not finite.
        """
        p = as_point(p)
        _check_domain(manifold, p)
        result = cls(*manifold.jets(p[None], cls.jet_order))
        failure = result.failures(cls.jet_order)[0]
        if failure is not None:
            singular = result.degenerate[0] and np.isfinite(result.values).all()
            raise (SingularMetricError if singular else ValueError)(failure)
        return result

    def failures(self, order: int) -> list:
        """Why each point has no result from derivatives up to order, None where it has one.

        The first that applies: a field value is not finite, the metric is
        degenerate, a field's gradient (order >= 1), then its Hessian
        (order 2), is not all finite.
        """
        failures = [None] * len(self.values)
        # a field value that is not finite makes d so too, and the point degenerate
        for n in np.flatnonzero(self.degenerate).tolist():
            values = self.values[n].tolist()
            bad = [name for name, value in zip("ABC", values) if not math.isfinite(value)]
            error = degeneracy_error(*values, float(self.d[n]))
            failures[n] = f"{bad[0]} is not finite" if bad else str(error)
        for name, jet in (("gradient", self.gradients), ("Hessian", self.hessians))[:order]:
            finite = np.isfinite(jet.reshape(len(jet), 3, -1)).all(axis=2)
            for n, f in zip(*np.nonzero(~finite)):
                failures[n] = failures[n] or f"{name} of {'ABC'[f]} is not finite"
        return failures

    @cached_property
    def metric(self) -> np.ndarray:
        """g[n, a, j], (N, 4, 4)."""
        return self.values[:, SLOT_FIELD]

    @cached_property
    def metric_partials(self) -> np.ndarray:
        return metric_partials_batch(self.gradients)

    @cached_property
    def first_kind(self) -> np.ndarray:
        """t[n, a, i, j] = d_i g_aj + d_j g_ai - d_a g_ij, twice the symbols of the first kind."""
        dg = self.metric_partials
        return np.einsum("niaj->naij", dg) + np.einsum("njai->naij", dg) - dg

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma[n, s, i, j] = g^{as} t[n, a, i, j] / 2."""
        return 0.5 * np.einsum("nas,naij->nsij", self.inverse, self.first_kind)

    @cached_property
    def nabla_q(self) -> np.ndarray:
        """nq[n, i, s, j] = Gamma^s_ik q^k_j - Gamma^k_ij q^s_k.

        q is a permutation, so both products only pick entries of Gamma.
        """
        gamma = self.christoffel
        return (gamma[..., AFFINOR_NEXT] - gamma[:, AFFINOR_PREVIOUS]).transpose(0, 2, 1, 3)

    @cached_property
    def nabla_q_max(self) -> np.ndarray:
        """max |nabla q| per point, (N,)."""
        return np.abs(self.nabla_q).max(axis=(1, 2, 3))

    @cached_property
    def gradient_conditions(self) -> np.ndarray:
        return gradient_condition_batch(self.gradients)


def _check_domain(m: ManifoldSpec, p):
    for locus in m.excluded_loci:
        if locus.contains(p):
            raise DomainError(
                f"point {tuple(float(x) for x in p)} lies on excluded locus "
                f"{locus.label}"
            )


def _gradients_at(m: ManifoldSpec, p) -> np.ndarray:
    _, gradients, _ = m.jets(as_point(p)[None], order=1)
    return gradients


def metric_partials(m: ManifoldSpec, p) -> np.ndarray:
    """dg[i, a, j] = d_i g_aj at p."""
    return metric_partials_batch(_gradients_at(m, p))[0]


def christoffel(m: ManifoldSpec, p) -> np.ndarray:
    """Gamma[s, i, j] = Gamma^s_ij at p, symmetric in (i, j).

    Raises DomainError on an excluded locus, SingularMetricError when the
    metric is numerically degenerate there and ValueError naming the field
    whose value or gradient is not finite.
    """
    return Connection.at(m, p).christoffel[0]


def nabla_q(m: ManifoldSpec, p) -> np.ndarray:
    """nq[i, s, j] = nabla_i q^s_j; identically zero iff q is parallel at p."""
    return Connection.at(m, p).nabla_q[0]


def gradient_condition_residuals(m: ManifoldSpec, p) -> ResidualReport:
    """The reduced system on the coefficient gradients, eight residuals.

    All eight vanish exactly when nabla q vanishes at p.
    """
    residuals = gradient_condition_batch(_gradients_at(m, p))[0]
    return ResidualReport(tuple(zip(REDUCED_LABELS, residuals.tolist())))


def full_system_residuals(m: ManifoldSpec, p) -> ResidualReport:
    """The expanded 16-relation form of the same conditions.

    Each expression is a signed combination of the reduced relations with
    coefficient sums at most 8, so its residual is bounded by 8 times the
    largest reduced residual.
    """
    residuals = full_system_batch(_gradients_at(m, p))[0]
    return ResidualReport(tuple(zip(FULL_LABELS, residuals.tolist())))


def parallelism_verdict(m: ManifoldSpec, p, tol: float = 1e-8):
    """Decide whether q is parallel at p, by both criteria at once.

    Returns (verdict, report): the verdict is true only if the largest
    component of nabla q and the largest reduced-system residual both fall
    within tol. The report lists the eight reduced residuals followed by
    the nabla q maximum.
    """
    check_tolerance(tol)
    connection = Connection.at(m, p)
    nq_max = float(connection.nabla_q_max[0])
    conditions = connection.gradient_conditions[0].tolist()
    verdict = nq_max <= tol and max(conditions) <= tol
    report = ResidualReport(
        tuple(zip(REDUCED_LABELS, conditions)) + (("max |nabla q|", nq_max),)
    )
    return verdict, report
