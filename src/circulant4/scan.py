"""Point checks, grid scans and deterministic reports.

A check evaluates a named criterion at one point of a manifold:

    validity     the point is in the valid domain (loci avoided, ordering)
    parallel     nabla q and the reduced gradient conditions vanish
    curvature31  the (0,4) curvature absorbs q across its last two slots
    curvature32  the endomorphisms R(x, y) commute with q

The two curvature residuals are compared against tol scaled by 1 + the
largest curvature component. Checks other than validity are skipped (null
in the report) at invalid points, and triple components that are not
finite are reported as null. A check fails with an error instead of
residuals where `Connection.failures` says why the point has no result
or where its residual is not finite, so reports hold no NaN or infinity.

Points are evaluated serially, in chunks of CHUNK_SIZE, by one batched
pass: the field jets, validity and one `Geometry` (Gamma, nabla q,
d Gamma, R) that every check reads. `evaluate_point` is the same pass at
a single point.

Reports are plain mappings rendered to JSON or CSV. Rendering is
deterministic: fixed key order, records in row-major grid order, floats in
shortest round-trip form, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import math
from csv import writer as csv_writer
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from . import __version__
from .connection import check_tolerance
from .curvature import Geometry, q_commutation_gaps, q_invariance_gaps
from .fields import as_point
from .manifolds import ManifoldSpec

__all__ = [
    "CHECKS",
    "AxisSpec",
    "ScanConfig",
    "Report",
    "CHUNK_SIZE",
    "evaluate_point",
    "run_check",
    "run_scan",
    "render_report",
]

CHECKS = ("validity", "parallel", "curvature31", "curvature32")

_VERSION = __version__

# grid points per batched pass; larger chunks amortize more numpy calls per
# point but hold proportionally larger curvature temporaries
CHUNK_SIZE = 64


def _canonical_checks(checks) -> tuple[str, ...]:
    """The named checks in CHECKS order; ValueError on an unknown name or none."""
    checks = tuple(checks)
    unknown = sorted(set(checks) - set(CHECKS))
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    if not checks:
        raise ValueError("at least one check is required")
    return tuple(c for c in CHECKS if c in checks)


@dataclass(frozen=True)
class AxisSpec:
    """One grid axis: count values evenly spaced over [start, stop]."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis bounds must be finite")
        if self.start > self.stop:
            raise ValueError(f"axis start {self.start} exceeds stop {self.stop}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"axis count must be a positive integer, got {self.count!r}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScanConfig:
    """A four-axis grid, the checks to run on it and the tolerance."""

    axes: tuple[AxisSpec, AxisSpec, AxisSpec, AxisSpec]
    checks: tuple[str, ...] = CHECKS
    tolerance: float = 1e-8

    def __post_init__(self):
        if len(self.axes) != 4 or not all(isinstance(a, AxisSpec) for a in self.axes):
            raise ValueError("exactly four AxisSpec axes are required")
        # canonical order, so equivalent configs report identically
        object.__setattr__(self, "checks", _canonical_checks(self.checks))
        check_tolerance(self.tolerance)


def _parallel_outcomes(geometry: Geometry, tol: float) -> list[dict]:
    nq_max = geometry.nabla_q_max.tolist()
    gradient_max = np.max(geometry.gradient_conditions, axis=1).tolist()
    return [
        {"passed": nq <= tol and gm <= tol, "nabla_q_max": nq, "gradient_condition_max": gm}
        if math.isfinite(nq) and math.isfinite(gm)
        else {"passed": False, "error": "parallel residuals are not finite"}
        for nq, gm in zip(nq_max, gradient_max)
    ]


def _curvature_outcomes(tensor: np.ndarray, gaps, tol: float) -> list[dict]:
    scales = (1.0 + np.abs(tensor).max(axis=(1, 2, 3, 4))).tolist()
    return [
        {"passed": residual <= tol * scale, "residual": residual, "scale": scale}
        if math.isfinite(residual) and math.isfinite(scale)
        else {"passed": False, "error": "curvature is not finite"}
        for residual, scale in zip(gaps(tensor).tolist(), scales)
    ]


# each check past validity: the highest derivative of A, B, C it needs and
# its outcomes at the points of a Geometry g, for the tolerance t
_GEOMETRY_CHECKS = {
    "parallel": (1, _parallel_outcomes),
    "curvature31": (2, lambda g, t: _curvature_outcomes(g.riemann_lowered, q_invariance_gaps, t)),
    "curvature32": (2, lambda g, t: _curvature_outcomes(g.riemann, q_commutation_gaps, t)),
}


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def _evaluate_chunk(manifold: ManifoldSpec, points, checks, tolerance: float) -> list[dict]:
    """The records of an (N, 4) array of points, from one batched pass."""
    outcomes = {check: [None] * len(points) for check in checks if check != "validity"}
    order = max((_GEOMETRY_CHECKS[check][0] for check in outcomes), default=0)
    values, gradients, hessians = manifold.jets(points, order)
    reasons = manifold.domain_reasons(points, values)
    rows = [n for n, reason in enumerate(reasons) if reason is None]
    if outcomes and rows:
        geometry = Geometry(
            values[rows], gradients[rows], None if hessians is None else hessians[rows]
        )
        failures = {
            jet_order: geometry.failures(jet_order)
            for jet_order in {_GEOMETRY_CHECKS[check][0] for check in outcomes}
        }
        # rows that get an error outcome may hold inf and NaN, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for check, column in outcomes.items():
                jet_order, evaluate = _GEOMETRY_CHECKS[check]
                results = evaluate(geometry, tolerance)
                for n, failure, outcome in zip(rows, failures[jet_order], results):
                    column[n] = outcome if failure is None else {"passed": False, "error": failure}
    records = []
    for n, (point, triple, reason) in enumerate(zip(points.tolist(), values.tolist(), reasons)):
        valid = reason is None
        record = {
            "point": point,
            "triple": dict(zip("ABC", map(_finite_or_none, triple))),
            "valid": valid,
            "reason": reason,
            "checks": {},
        }
        for check in checks:
            if check == "validity":
                record["checks"]["validity"] = {"passed": valid}
            else:
                record["checks"][check] = outcomes[check][n]
        records.append(record)
    return records


def evaluate_point(
    manifold: ManifoldSpec, point, checks=CHECKS, tolerance: float = 1e-8
) -> dict:
    """One record of the report: triple, validity and check outcomes at point."""
    checks = _canonical_checks(checks)
    check_tolerance(tolerance)
    return _evaluate_chunk(manifold, as_point(point)[None], checks, tolerance)[0]


def _record_residual(check: str, outcome: dict) -> float | None:
    if outcome is None or "error" in outcome:
        return None
    if check == "parallel":
        return max(outcome["nabla_q_max"], outcome["gradient_condition_max"])
    if check in ("curvature31", "curvature32"):
        return outcome["residual"]
    return None


def _summarize(records: list[dict], checks) -> dict:
    total = len(records)
    valid = sum(1 for r in records if r["valid"])
    per_check = {}
    all_passed = True
    for check in checks:
        if check == "validity":
            per_check["validity"] = {"passed": valid, "failed": total - valid}
            if valid != total:
                all_passed = False
            continue
        passed = failed = skipped = 0
        max_residual = None
        for record in records:
            outcome = record["checks"][check]
            if outcome is None:
                skipped += 1
                continue
            if outcome["passed"]:
                passed += 1
            else:
                failed += 1
            residual = _record_residual(check, outcome)
            if residual is not None and (max_residual is None or residual > max_residual):
                max_residual = residual
        per_check[check] = {
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
            "max_residual": max_residual,
        }
        if failed:
            all_passed = False
    return {
        "points": total,
        "valid_points": valid,
        "checks": per_check,
        "all_passed": all_passed,
    }


@dataclass(frozen=True)
class Report:
    meta: dict = field(default_factory=dict)
    points: tuple = ()
    summary: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return bool(self.summary.get("all_passed", False))

    def to_mapping(self) -> dict:
        return {"meta": self.meta, "points": list(self.points), "summary": self.summary}


def _meta(manifold: ManifoldSpec, kind: str, checks, tolerance: float) -> dict:
    return {
        "generator": "circulant4",
        "version": _VERSION,
        "kind": kind,
        "manifold": manifold.name,
        "checks": list(checks),
        "tolerance": tolerance,
    }


def run_check(
    manifold: ManifoldSpec, point, checks=CHECKS, tolerance: float = 1e-8
) -> Report:
    """Evaluate the checks at a single point and wrap them as a report."""
    checks = _canonical_checks(checks)
    record = evaluate_point(manifold, point, checks, tolerance)
    meta = _meta(manifold, "check", checks, tolerance)
    meta["point"] = record["point"]
    return Report(meta, (record,), _summarize([record], checks))


def _grid_chunks(axes, size: int):
    """The grid points in row-major order (last axis fastest), in (n, 4) arrays of n <= size."""
    values = [axis.values() for axis in axes]
    shape = tuple(axis.count for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, size):
        index = np.unravel_index(np.arange(start, min(start + size, total)), shape)
        yield np.stack([v[i] for v, i in zip(values, index)], axis=1)


def run_scan(manifold: ManifoldSpec, config: ScanConfig) -> Report:
    """Evaluate the configured checks over the whole grid, CHUNK_SIZE points at a time."""
    records = [
        record
        for chunk in _grid_chunks(config.axes, CHUNK_SIZE)
        for record in _evaluate_chunk(manifold, chunk, config.checks, config.tolerance)
    ]
    meta = _meta(manifold, "scan", config.checks, config.tolerance)
    meta["box"] = [
        {"start": a.start, "stop": a.stop, "count": a.count} for a in config.axes
    ]
    return Report(meta, tuple(records), _summarize(records, config.checks))


_CSV_COLUMNS = (
    "x1", "x2", "x3", "x4", "A", "B", "C", "valid", "reason",
    "parallel_passed", "parallel_max_residual",
    "curvature31_passed", "curvature31_residual",
    "curvature32_passed", "curvature32_residual",
)


def _csv_bool(value) -> str:
    return "true" if value else "false"


def _csv_cells(record: dict) -> list[str]:
    cells = [repr(x) for x in record["point"]]
    cells += ["" if record["triple"][k] is None else repr(record["triple"][k]) for k in "ABC"]
    cells.append(_csv_bool(record["valid"]))
    cells.append(record["reason"] or "")
    for check in ("parallel", "curvature31", "curvature32"):
        outcome = record["checks"].get(check)
        if outcome is None:
            cells += ["", ""]
            continue
        cells.append(_csv_bool(outcome["passed"]))
        residual = _record_residual(check, outcome)
        cells.append("" if residual is None else repr(residual))
    return cells


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report; json round-trips exactly, csv is one row per point."""
    if fmt == "json":
        return json.dumps(report.to_mapping(), indent=2) + "\n"
    if fmt == "csv":
        buffer = StringIO()
        table = csv_writer(buffer, lineterminator="\n")
        table.writerow(_CSV_COLUMNS)
        for record in report.points:
            table.writerow(_csv_cells(record))
        return buffer.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")
