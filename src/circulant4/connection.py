"""Levi-Civita connection and the parallelism of the affinor.

Christoffel symbols come from 2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai
- d_a g_ij), with the metric partials read off the field gradients: the
slot (a, j) of the circulant metric is A, B or C according to the offset
(j - a) mod 4, so d_i g_aj is the i-th partial of that field.

The affinor q is constant, hence nabla_i q^s_j = Gamma^s_ik q^k_j
- Gamma^k_ij q^s_k. Vanishing of this tensor is equivalent to a linear
first-order system on the coefficient gradients; the residuals of the
expanded 16-relation form and of the reduced 8-relation form are stages
of the pass, the reduced one also a labeled report, and
`parallelism_verdict` requires the differential and algebraic criteria to
agree.

Every quantity is computed for N points at once by `Connection`, each
stage once, on first use. The pass at one point is `Connection.at(m, p)`,
and `finite_row(stage)` reads a stage's row there: `at` raises the reason
that `Connection.failures` gives for a point with no result, and
`finite_row` PARALLEL_NOT_FINITE where the row overflows, as scan records
report. `gradient_condition_residuals` reads only the gradients, so a
degenerate metric or an excluded locus does not stop it; a field value or
gradient that is not finite does. `check_tolerance` is the one rule for a
usable tolerance.

Every array of the pass keeps the points on the last axis, from the jets
to the per-point maxima: a stage is (..., N), and its row at point n is
stage[..., n]. numpy's loops are fast when their inner loop is long and
contiguous, and here it runs over the N points instead of a tensor axis of
length 4. The layout changes no bit: elementwise stages do the same
operations, each einsum has the subscripts of its formula with n last and
is never optimized, so it forms the same products and sums each entry over
the same indices in the same order, and the maxima are exact.
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
from .manifolds import _NOT_FINITE_TEXTS, ManifoldSpec

__all__ = [
    "PARALLEL_NOT_FINITE",
    "DomainError",
    "ResidualReport",
    "Connection",
    "check_tolerance",
    "gradient_condition_residuals",
    "parallelism_verdict",
]


class DomainError(ValueError):
    """The point lies on an excluded locus of the manifold."""


# what a report record says where the parallel check's residuals overflow
PARALLEL_NOT_FINITE = "parallel residuals are not finite"


def _is_parallel(nabla_q_max, gradient_condition_max, tol: float):
    """The rule of `parallelism_verdict` and the parallel check: both maxima within tol."""
    return (nabla_q_max <= tol) & (gradient_condition_max <= tol)


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """tol as a float; ValueError unless it is positive and finite, and not a bool."""
    if isinstance(tol, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {tol}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol}")
    return float(tol)


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


# Each relation is a signed sum of gradient components, written once here;
# subscripts denote partials: A1 is dA/dx1 and so on. The residuals are
# computed from these labels, term by term in the order written.
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
    # -3*B3 here: the +3*B3 variant equals 3*(C2 + C4) under the reduced
    # relations, so it is not implied by them
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


def _relation_table(labels) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, columns), each (terms, relations), from the labels.

    Row t holds the t-th term of every relation, in label order. A column
    entry is a row of the gradients flattened to (12, N), A1..A4, B1..B4, C1..C4;
    relations with fewer terms are padded with 1 times column 12, a zero.
    """
    width = max((len(label.split()) + 1) // 2 for label in labels)
    coefficients = np.ones((width, len(labels)))
    columns = np.full((width, len(labels)), 12)
    for r, label in enumerate(labels):
        sign, t = 1.0, 0
        for word in label.split():
            if word in ("+", "-"):
                sign = 1.0 if word == "+" else -1.0
                continue
            factor, _, name = word.rpartition("*")
            coefficients[t, r] = sign * float(factor or 1)
            columns[t, r] = 4 * "ABC".index(name[0]) + int(name[1]) - 1
            t += 1
    coefficients.setflags(write=False)
    columns.setflags(write=False)
    return coefficients, columns


# the coefficient tables of the two systems, computed once
REDUCED_TERMS = _relation_table(REDUCED_LABELS)
FULL_TERMS = _relation_table(FULL_LABELS)


def _relation_residuals(table, gradients) -> np.ndarray:
    """|relation| for every relation of a table at N points, (relations, N).

    gradients is (3, 4, N), the points last. All terms are gathered at
    once, (terms, relations, N), and summed over their outer axis, which
    numpy adds row by row, so each relation is summed term by term in label
    order. Adding c * y for c = -1 is subtracting y in IEEE arithmetic, and
    adding the zero padding changes at most the sign of a zero, so after
    the absolute value the residuals are those of the relations written
    out by hand, bit for bit.
    """
    coefficients, columns = table
    points = gradients.shape[-1]
    flat = np.concatenate([gradients.reshape(12, points), np.zeros((1, points))])
    return np.abs((coefficients[:, :, None] * flat[columns]).sum(axis=0))


class Connection:
    """The connection of a manifold at N points, from the jets of A, B, C there.

    Built from values (3, N), gradients (3, 4, N) and, for curvature,
    Hessians (3, 4, 4, N), as `ManifoldSpec.jets` returns them, and kept as
    given. Every stage, the inverse metric too, is computed once for all N
    points, on first use, so the stages that read only the gradients never
    invert g. Points where the metric is numerically degenerate are flagged
    in `degenerate`; their entries of every derived array are NaN.
    `failures` says which points have no result, and why, as text.
    """

    jet_order = 1
    # what `finite_row` raises, the error text of the checks this pass serves
    not_finite = PARALLEL_NOT_FINITE

    def __init__(self, values, gradients, hessians=None):
        self.values = values
        self.gradients = gradients
        self.hessians = hessians

    @classmethod
    def at(cls, manifold: ManifoldSpec, p):
        """The pass at the single point p.

        Raises DomainError on an excluded locus, SingularMetricError where
        the metric is numerically degenerate and ValueError naming the
        field where a value or a derivative the pass needs is not finite.
        """
        p = as_point(p)
        for locus in manifold.excluded_loci:
            if locus.contains_points(p[None])[0]:
                raise DomainError(
                    f"point {tuple(float(x) for x in p)} lies on excluded locus "
                    f"{locus.label}"
                )
        result = cls(*manifold.jets(p[None], cls.jet_order))
        (code,), texts = result._failure_codes(cls.jet_order)
        if code:
            singular = code >= len(_NOT_FINITE_TEXTS)  # a degeneracy text
            raise (SingularMetricError if singular else ValueError)(texts[code])
        return result

    def failures(self, order: int) -> list:
        """Why each point has no result from derivatives up to order, None where it has one.

        The first that applies: a field value is not finite, the metric is
        degenerate, a field's gradient (order >= 1), then its Hessian
        (order 2), is not all finite. `at` raises, and a scan records, the
        same texts, by the codes of `_failure_codes`.
        """
        codes, texts = self._failure_codes(order)
        return list(map(texts.__getitem__, codes.tolist()))

    def _failure_codes(self, order: int) -> tuple:
        """`failures` as (N,) codes into `_NOT_FINITE_TEXTS` plus each degenerate point's text."""
        codes = np.where(self._non_finite <= 3 + 3 * order, self._non_finite, 0)
        # a field value that is not finite makes d so too, and the point degenerate
        degenerate = np.flatnonzero(self.degenerate & ((codes == 0) | (codes > 3)))
        codes[degenerate] = len(_NOT_FINITE_TEXTS) + np.arange(len(degenerate))
        rows = zip(self.values[:, degenerate].T.tolist(), self.d[degenerate].tolist())
        return codes, _NOT_FINITE_TEXTS + tuple(str(degeneracy_error(*t, d)) for t, d in rows)

    @cached_property
    def _non_finite(self) -> np.ndarray:
        """Per point, the index in _NOT_FINITE_TEXTS of its first jet that is not all finite.

        Each jet is tested by one np.isfinite, once per pass.
        """
        jets = [jet for jet in (self.values, self.gradients, self.hessians) if jet is not None]
        # a leading row of True, so the first False row is 0 where every jet is finite
        finite = [np.ones((1, self.values.shape[-1]), dtype=bool)]
        finite += [np.isfinite(j).all(axis=tuple(range(1, j.ndim - 1))) for j in jets]
        return np.concatenate(finite).argmin(axis=0)

    def finite_row(self, stage: str) -> np.ndarray:
        """stage[..., 0], the first point's row of a stage, as `at` gives the pass at one point.

        It is computed without numpy warnings, and ValueError(not_finite),
        the text a report record gives, is raised where it is not all finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            # [()] gives the scalar, not a 0-d array, for a stage (N,)
            row = getattr(self, stage)[..., 0][()]
        if not np.isfinite(row).all():
            raise ValueError(self.not_finite)
        return row

    @cached_property
    def _inverse_metrics(self) -> tuple:
        return inverse_metrics(self.values)

    @property
    def inverse(self) -> np.ndarray:
        """g^{ab} per point, (4, 4, N); NaN where the metric is degenerate."""
        return self._inverse_metrics[0]

    @property
    def d(self) -> np.ndarray:
        """The determinant factor (a - c)((a + c)^2 - 4 b^2) per point, (N,)."""
        return self._inverse_metrics[1]

    @property
    def degenerate(self) -> np.ndarray:
        """Where the metric is numerically degenerate, (N,) bool."""
        return self._inverse_metrics[2]

    @cached_property
    def metric(self) -> np.ndarray:
        """g[a, j, n], (4, 4, N)."""
        return self.values[SLOT_FIELD]

    @cached_property
    def metric_partials(self) -> np.ndarray:
        """dg[i, a, j, n] = d_i g_aj, (4, 4, 4, N)."""
        # gradients[f, i, n] placed at [a, j, i, n], read as [i, a, j, n]
        return self.gradients[SLOT_FIELD].transpose(2, 0, 1, 3)

    @cached_property
    def first_kind(self) -> np.ndarray:
        """t[a, i, j, n] = d_i g_aj + d_j g_ai - d_a g_ij, twice the symbols of the first kind."""
        dg = self.metric_partials
        # dg[i, a, j] + dg[j, a, i] - dg[a, i, j] at [a, i, j]
        return dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma[s, i, j, n] = g^{as} t[a, i, j, n] / 2, (4, 4, 4, N)."""
        return np.einsum("asn,aijn->sijn", self.inverse, self.first_kind) / 2

    @cached_property
    def nabla_q(self) -> np.ndarray:
        """nq[i, s, j, n] = Gamma^s_ik q^k_j - Gamma^k_ij q^s_k, (4, 4, 4, N)."""
        # q is a permutation, so both products only pick entries of Gamma
        gamma = self.christoffel
        return (gamma[:, :, AFFINOR_NEXT] - gamma[AFFINOR_PREVIOUS]).transpose(1, 0, 2, 3)

    @cached_property
    def nabla_q_max(self) -> np.ndarray:
        """max |nabla q| per point, (N,)."""
        return np.abs(self.nabla_q).max(axis=(0, 1, 2))

    @cached_property
    def gradient_conditions(self) -> np.ndarray:
        """The eight reduced residuals, in `REDUCED_LABELS` order, (8, N)."""
        return _relation_residuals(REDUCED_TERMS, self.gradients)

    @cached_property
    def gradient_condition_max(self) -> np.ndarray:
        """The largest of the eight reduced residuals per point, (N,)."""
        return self.gradient_conditions.max(axis=0)

    @cached_property
    def full_system(self) -> np.ndarray:
        """The sixteen expanded residuals, in `FULL_LABELS` order, (16, N)."""
        return _relation_residuals(FULL_TERMS, self.gradients)


def _gradient_row(m: ManifoldSpec, p, stage: str) -> np.ndarray:
    """The row at p of a stage that reads only the gradients.

    Those are `metric_partials`, `gradient_conditions` and `full_system`.
    Degenerate metrics and excluded loci still have them, as these stages
    need no inverse. ValueError names the field whose value or
    gradient is not finite, as `Connection.failures` does.
    """
    connection = Connection(*m.jets(as_point(p)[None], 1))
    code = connection._non_finite[0]
    if code:
        raise ValueError(_NOT_FINITE_TEXTS[code])
    return connection.finite_row(stage)


def gradient_condition_residuals(m: ManifoldSpec, p) -> ResidualReport:
    """The reduced system on the coefficient gradients, eight residuals.

    All eight vanish exactly when nabla q vanishes at p.
    """
    residuals = _gradient_row(m, p, "gradient_conditions")
    return ResidualReport(tuple(zip(REDUCED_LABELS, residuals.tolist())))


def parallelism_verdict(m: ManifoldSpec, p, tol: float = 1e-8):
    """Decide whether q is parallel at p, by both criteria at once.

    Returns (verdict, report): the verdict is true only if the largest
    component of nabla q and the largest reduced-system residual both fall
    within tol. The report lists the eight reduced residuals followed by
    the nabla q maximum.
    """
    tol = check_tolerance(tol)
    connection = Connection.at(m, p)
    nq_max = float(connection.finite_row("nabla_q_max"))
    conditions = connection.finite_row("gradient_conditions").tolist()
    verdict = _is_parallel(nq_max, max(conditions), tol)
    report = ResidualReport(
        tuple(zip(REDUCED_LABELS, conditions)) + (("max |nabla q|", nq_max),)
    )
    return verdict, report
