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

Every quantity is computed for N points at once by `Connection`, the only
batch API, each stage once, on first use. Every per-point function
(`christoffel`, `nabla_q`, `metric_partials`, the residual reports) is an
N = 1 view that reads the pass through `Connection.finite_row`; it raises
the reason that `Connection.failures` gives for a point with no result,
and PARALLEL_NOT_FINITE where a residual overflows, as scan records
report. The views that read only the gradients (`metric_partials` and the
two residual reports) need no inverse, so a degenerate metric or an
excluded locus does not stop them; a field value or gradient that is not
finite does. `check_tolerance` is the one rule for a usable tolerance.

The pass keeps the points on the last axis, contiguous, from the jets to
the per-point maxima: each stage is an array (..., N) and its public
attribute the (N, ...) view. numpy's loops are fast when their inner loop
is long and contiguous, and here it runs over the N points instead of a
tensor axis of length 4. The layout changes no bit: elementwise stages do
the same operations, each einsum has the subscripts of its formula with
n last and is never optimized, so it forms the same products and sums each
entry over the same indices in the same order, and the maxima are exact.
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
from .fields import _points_first, _points_last, as_point
from .manifolds import ManifoldSpec

__all__ = [
    "PARALLEL_NOT_FINITE",
    "DomainError",
    "ResidualReport",
    "Connection",
    "check_tolerance",
    "metric_partials",
    "christoffel",
    "nabla_q",
    "gradient_condition_residuals",
    "full_system_residuals",
    "parallelism_verdict",
]


class DomainError(ValueError):
    """The point lies on an excluded locus of the manifold."""


# what a report record says where the parallel check's residuals overflow
PARALLEL_NOT_FINITE = "parallel residuals are not finite"

# why a point has no result where a jet is not finite, indexed by `Connection._non_finite`
_NOT_FINITE_TEXTS = (None,) + tuple(
    f"{jet}{name} is not finite" for jet in ("", "gradient of ", "Hessian of ") for name in "ABC"
)


def _is_parallel(nabla_q_max: float, gradient_condition_max: float, tol: float) -> bool:
    """The rule of `parallelism_verdict` and the parallel check: both maxima within tol."""
    return nabla_q_max <= tol and gradient_condition_max <= tol


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """tol as a float; ValueError unless it is positive and finite."""
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
    indexes the gradients flattened to (N, 12), A1..A4, B1..B4, C1..C4;
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


def _stage_view(stage: str, doc: str) -> property:
    """The (N, ...) view of a stage that the pass keeps with the points last."""
    return property(lambda self: _points_first(getattr(self, stage)), doc=doc)


class Connection:
    """The connection of a manifold at N points, from the jets of A, B, C there.

    Built from values (N, 3), gradients (N, 3, 4) and, for curvature,
    Hessians (N, 3, 4, 4), as `ManifoldSpec.jets` returns them. Every
    stage, the inverse metric too, is computed once for all N points, on
    first use, so the stages that read only the gradients never invert g.
    Points where the metric is numerically degenerate are flagged in
    `degenerate`; their rows of every derived array are NaN.
    `failures` says which points have no result, and why.

    The pass keeps the points on the last axis, as the module docstring
    says. Each stage is an array (..., N), named after its public attribute
    with a leading underscore, and the public attribute is its (N, ...)
    view. The jets of `ManifoldSpec.jets` and the inverse of
    `inverse_metrics` are already views of points-last arrays, so reading
    them that way copies nothing. The tests pin every stage, bit for bit,
    against a points-first pass.
    """

    jet_order = 1
    # what `finite_row` raises, the error text of the checks this pass serves
    not_finite = PARALLEL_NOT_FINITE

    def __init__(self, values, gradients, hessians=None):
        self.values = values
        self.gradients = gradients
        self.hessians = hessians
        # the jets with the points last; views of the block `jets` evaluates
        self._values = _points_last(values)
        self._gradients = _points_last(gradients)
        self._hessians = None if hessians is None else _points_last(hessians)

    @classmethod
    def at(cls, manifold: ManifoldSpec, p):
        """The pass at the single point p.

        Raises DomainError on an excluded locus, SingularMetricError where
        the metric is numerically degenerate and ValueError naming the
        field where a value or a derivative the pass needs is not finite.
        """
        p = as_point(p)
        for locus in manifold.excluded_loci:
            if locus.contains(p):
                raise DomainError(
                    f"point {tuple(float(x) for x in p)} lies on excluded locus "
                    f"{locus.label}"
                )
        result = cls(*manifold.jets(p[None], cls.jet_order))
        failure = result.failures(cls.jet_order)[0]
        if failure is not None:
            singular = failure not in _NOT_FINITE_TEXTS  # the degeneracy text
            raise (SingularMetricError if singular else ValueError)(failure)
        return result

    def failures(self, order: int) -> list:
        """Why each point has no result from derivatives up to order, None where it has one.

        The first that applies: a field value is not finite, the metric is
        degenerate, a field's gradient (order >= 1), then its Hessian
        (order 2), is not all finite. The texts are gathered from
        `_non_finite`, and only degenerate rows format their own.
        """
        codes = self._non_finite.tolist()
        texts = _NOT_FINITE_TEXTS[: 4 + 3 * order] + (None,) * (6 - 3 * order)  # none above order
        failures = list(map(texts.__getitem__, codes))
        for n in np.flatnonzero(self.degenerate).tolist():
            # a field value that is not finite makes d so too, and the point degenerate
            if not 1 <= codes[n] <= 3:
                failures[n] = str(degeneracy_error(*self.values[n].tolist(), float(self.d[n])))
        return failures

    @cached_property
    def _non_finite(self) -> np.ndarray:
        """Per point, the index in _NOT_FINITE_TEXTS of its first jet that is not all finite.

        Each jet is tested by one np.isfinite, once per pass.
        """
        jets = [jet for jet in (self._values, self._gradients, self._hessians) if jet is not None]
        # a leading row of True, so the first False row is 0 where every jet is finite
        finite = [np.ones((1, self._values.shape[-1]), dtype=bool)]
        finite += [np.isfinite(j).all(axis=tuple(range(1, j.ndim - 1))) for j in jets]
        return np.concatenate(finite).argmin(axis=0)

    def finite_row(self, stage: str) -> np.ndarray:
        """The first point's row of a stage, for the per-point functions.

        It is computed without numpy warnings, and ValueError(not_finite),
        the text a report record gives, is raised where it is not all finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            row = getattr(self, stage)[0]
        if not np.isfinite(row).all():
            raise ValueError(self.not_finite)
        return row

    @cached_property
    def _inverse_metrics(self) -> tuple:
        return inverse_metrics(self.values)

    @cached_property
    def _inverse(self) -> np.ndarray:
        return _points_last(self._inverse_metrics[0])

    @property
    def inverse(self) -> np.ndarray:
        """g^{ab} per point, (N, 4, 4); NaN where the metric is degenerate."""
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
    def _metric(self) -> np.ndarray:
        return self._values[SLOT_FIELD]

    metric = _stage_view("_metric", "g[n, a, j], (N, 4, 4).")

    @cached_property
    def _metric_partials(self) -> np.ndarray:
        # gradients[f, i, n] placed at [a, j, i, n], read as [i, a, j, n]
        return self._gradients[SLOT_FIELD].transpose(2, 0, 1, 3)

    metric_partials = _stage_view("_metric_partials", "dg[n, i, a, j] = d_i g_aj, (N, 4, 4, 4).")

    @cached_property
    def _first_kind(self) -> np.ndarray:
        dg = self._metric_partials
        # dg[i, a, j] + dg[j, a, i] - dg[a, i, j] at [a, i, j]
        return dg.transpose(1, 0, 2, 3) + dg.transpose(1, 2, 0, 3) - dg

    first_kind = _stage_view(
        "_first_kind",
        "t[n, a, i, j] = d_i g_aj + d_j g_ai - d_a g_ij, twice the symbols of the first kind.",
    )

    @cached_property
    def _christoffel(self) -> np.ndarray:
        return np.einsum("asn,aijn->sijn", self._inverse, self._first_kind) / 2

    christoffel = _stage_view("_christoffel", "Gamma[n, s, i, j] = g^{as} t[n, a, i, j] / 2.")

    @cached_property
    def _nabla_q(self) -> np.ndarray:
        # q is a permutation, so both products only pick entries of Gamma
        gamma = self._christoffel
        return (gamma[:, :, AFFINOR_NEXT] - gamma[AFFINOR_PREVIOUS]).transpose(1, 0, 2, 3)

    nabla_q = _stage_view(
        "_nabla_q", "nq[n, i, s, j] = Gamma^s_ik q^k_j - Gamma^k_ij q^s_k, (N, 4, 4, 4)."
    )

    @cached_property
    def nabla_q_max(self) -> np.ndarray:
        """max |nabla q| per point, (N,)."""
        return np.abs(self._nabla_q).max(axis=(0, 1, 2))

    @cached_property
    def _gradient_conditions(self) -> np.ndarray:
        return _relation_residuals(REDUCED_TERMS, self._gradients)

    gradient_conditions = _stage_view(
        "_gradient_conditions", "The eight reduced residuals, in `REDUCED_LABELS` order, (N, 8)."
    )

    @cached_property
    def gradient_condition_max(self) -> np.ndarray:
        """The largest of the eight reduced residuals per point, (N,)."""
        return self._gradient_conditions.max(axis=0)

    @cached_property
    def _full_system(self) -> np.ndarray:
        return _relation_residuals(FULL_TERMS, self._gradients)

    full_system = _stage_view(
        "_full_system", "The sixteen expanded residuals, in `FULL_LABELS` order, (N, 16)."
    )


def _gradient_row(m: ManifoldSpec, p, stage: str) -> np.ndarray:
    """The row of a stage at p, for the views that read only the gradients.

    Degenerate metrics and excluded loci still have residuals, as these
    stages need no inverse. ValueError names the field whose value or
    gradient is not finite, as `Connection.failures` does.
    """
    connection = Connection(*m.jets(as_point(p)[None], 1))
    failure = _NOT_FINITE_TEXTS[connection._non_finite[0]]
    if failure is not None:
        raise ValueError(failure)
    return connection.finite_row(stage)


def metric_partials(m: ManifoldSpec, p) -> np.ndarray:
    """dg[i, a, j] = d_i g_aj at p."""
    return _gradient_row(m, p, "metric_partials")


def christoffel(m: ManifoldSpec, p) -> np.ndarray:
    """Gamma[s, i, j] = Gamma^s_ij at p, symmetric in (i, j).

    Raises DomainError on an excluded locus, SingularMetricError when the
    metric is numerically degenerate there, ValueError naming the field
    whose value or gradient is not finite and ValueError(PARALLEL_NOT_FINITE)
    where Gamma overflows.
    """
    return Connection.at(m, p).finite_row("christoffel")


def nabla_q(m: ManifoldSpec, p) -> np.ndarray:
    """nq[i, s, j] = nabla_i q^s_j; identically zero iff q is parallel at p."""
    return Connection.at(m, p).finite_row("nabla_q")


def gradient_condition_residuals(m: ManifoldSpec, p) -> ResidualReport:
    """The reduced system on the coefficient gradients, eight residuals.

    All eight vanish exactly when nabla q vanishes at p.
    """
    residuals = _gradient_row(m, p, "gradient_conditions")
    return ResidualReport(tuple(zip(REDUCED_LABELS, residuals.tolist())))


def full_system_residuals(m: ManifoldSpec, p) -> ResidualReport:
    """The expanded 16-relation form of the same conditions.

    Each expression is a signed combination of the reduced relations with
    coefficient sums at most 8, so its residual is bounded by 8 times the
    largest reduced residual.
    """
    residuals = _gradient_row(m, p, "full_system")
    return ResidualReport(tuple(zip(FULL_LABELS, residuals.tolist())))


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
