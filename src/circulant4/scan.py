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

`_GEOMETRY_CHECKS` describes each check past validity once: the pass class
it needs (`Connection` or `Geometry`, whose `jet_order` and `not_finite`
are its jet order and overflow error), its outcome builder and the
residual of an outcome with results. Records, summary and CSV read it.

Points are evaluated serially, in chunks of CHUNK_SIZE, by one batched
pass: the field jets, validity and one `Geometry` (Gamma, nabla q,
d Gamma, R) that every check reads. `evaluate_point` is the same pass at
a single point. A grid may hold at most MAX_POINTS points.

Reports are plain mappings rendered to JSON or CSV. Rendering is
deterministic: fixed key order, records in row-major grid order, floats in
shortest round-trip form, so identical inputs give byte-identical output.
JSON reports come from a dedicated writer (`_write_json`) that gives the
same bytes as `json.dumps(report, indent=2)`, whose indenting encoder runs
in pure Python, through a chain of generators, and takes longer.
"""

from __future__ import annotations

import math
from csv import writer as csv_writer
from dataclasses import dataclass, field
from io import StringIO
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .connection import Connection, check_tolerance
from .curvature import Geometry
from .fields import as_point
from .manifolds import ManifoldSpec

__all__ = [
    "CHECKS",
    "AxisSpec",
    "ScanConfig",
    "Report",
    "CHUNK_SIZE",
    "MAX_POINTS",
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

# grid points per scan; every record stays in memory (about 6 KB each), so
# this bounds a report to a few GB
MAX_POINTS = 1_000_000


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
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"axis span {self.start}:{self.stop} is not finite")
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
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_POINTS:
            raise ValueError(f"grid has {points} points, more than MAX_POINTS = {MAX_POINTS}")


def _parallel_outcomes(geometry: Geometry, tol: float) -> list:
    nq_max = geometry.nabla_q_max.tolist()
    gradient_max = np.max(geometry.gradient_conditions, axis=1).tolist()
    return [
        {"passed": nq <= tol and gm <= tol, "nabla_q_max": nq, "gradient_condition_max": gm}
        if math.isfinite(nq) and math.isfinite(gm)
        else None
        for nq, gm in zip(nq_max, gradient_max)
    ]


def _curvature_outcomes(tensor: np.ndarray, gaps: np.ndarray, tol: float) -> list:
    scales = (1.0 + np.abs(tensor).max(axis=(1, 2, 3, 4))).tolist()
    return [
        {"passed": residual <= tol * scale, "residual": residual, "scale": scale}
        if math.isfinite(residual) and math.isfinite(scale)
        else None
        for residual, scale in zip(gaps.tolist(), scales)
    ]


class _GeometryCheck(NamedTuple):
    stage: type[Connection]  # the pass class: jet_order and not_finite
    outcomes: Callable[[Geometry, float], list]  # per point, None where it overflows
    residual: Callable[[dict], float]  # of an outcome with results


_GEOMETRY_CHECKS = {
    "parallel": _GeometryCheck(
        Connection,
        _parallel_outcomes,
        lambda o: max(o["nabla_q_max"], o["gradient_condition_max"]),
    ),
    "curvature31": _GeometryCheck(
        Geometry,
        lambda g, t: _curvature_outcomes(g.riemann_lowered, g.q_invariance_gap, t),
        itemgetter("residual"),
    ),
    "curvature32": _GeometryCheck(
        Geometry,
        lambda g, t: _curvature_outcomes(g.riemann, g.q_commutation_gap, t),
        itemgetter("residual"),
    ),
}


def _evaluate_chunk(manifold: ManifoldSpec, points, checks, tolerance: float) -> list[dict]:
    """The records of an (N, 4) array of points, from one batched pass."""
    geometric = {check: _GEOMETRY_CHECKS[check] for check in checks if check != "validity"}
    order = max((check.stage.jet_order for check in geometric.values()), default=0)
    values, gradients, hessians = manifold.jets(points, order)
    reasons = manifold.domain_reasons(points, values)
    records = []
    for point, triple, reason in zip(points.tolist(), values.tolist(), reasons):
        outcomes = dict.fromkeys(checks)
        if "validity" in outcomes:
            outcomes["validity"] = {"passed": reason is None}
        records.append({
            "point": point,
            "triple": {k: x if math.isfinite(x) else None for k, x in zip("ABC", triple)},
            "valid": reason is None,
            "reason": reason,
            "checks": outcomes,
        })
    rows = [n for n, reason in enumerate(reasons) if reason is None]
    if geometric and rows:
        geometry = Geometry(
            values[rows], gradients[rows], None if hessians is None else hessians[rows]
        )
        failures = {
            stage: geometry.failures(stage.jet_order)
            for stage in {check.stage for check in geometric.values()}
        }
        # rows that get an error outcome may hold inf and NaN, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for name, check in geometric.items():
                results = check.outcomes(geometry, tolerance)
                for n, failure, outcome in zip(rows, failures[check.stage], results):
                    if failure is not None or outcome is None:
                        outcome = {"passed": False, "error": failure or check.stage.not_finite}
                    records[n]["checks"][name] = outcome
    return records


def evaluate_point(
    manifold: ManifoldSpec, point, checks=CHECKS, tolerance: float = 1e-8
) -> dict:
    """One record of the report: triple, validity and check outcomes at point."""
    checks = _canonical_checks(checks)
    check_tolerance(tolerance)
    return _evaluate_chunk(manifold, as_point(point)[None], checks, tolerance)[0]


def _summarize(records: list[dict], checks) -> dict:
    per_check = {}
    for check in checks:
        outcomes = [record["checks"][check] for record in records]
        ran = [outcome for outcome in outcomes if outcome is not None]
        passed = sum(outcome["passed"] for outcome in ran)
        per_check[check] = {"passed": passed, "failed": len(ran) - passed}
        if check in _GEOMETRY_CHECKS:
            residual = _GEOMETRY_CHECKS[check].residual
            per_check[check]["skipped"] = len(outcomes) - len(ran)
            per_check[check]["max_residual"] = max(
                (residual(outcome) for outcome in ran if "error" not in outcome), default=None
            )
    return {
        "points": len(records),
        "valid_points": sum(record["valid"] for record in records),
        "checks": per_check,
        "all_passed": not any(counts["failed"] for counts in per_check.values()),
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
    record = evaluate_point(manifold, point, checks, tolerance)
    checks = tuple(record["checks"])
    meta = _meta(manifold, "check", checks, tolerance)
    meta["point"] = record["point"]
    return Report(meta, (record,), _summarize([record], checks))


def _grid_chunks(axes):
    """The grid points in row-major order (last axis fastest), in chunks of CHUNK_SIZE."""
    values = [axis.values() for axis in axes]
    shape = tuple(axis.count for axis in axes)
    total = math.prod(shape)
    for start in range(0, total, CHUNK_SIZE):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_SIZE, total)), shape)
        yield np.stack([v[i] for v, i in zip(values, index)], axis=1)


def run_scan(manifold: ManifoldSpec, config: ScanConfig) -> Report:
    """Evaluate the configured checks over the whole grid, CHUNK_SIZE points at a time."""
    records = [
        record
        for chunk in _grid_chunks(config.axes)
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
    for check, spec in _GEOMETRY_CHECKS.items():
        outcome = record["checks"].get(check)
        if outcome is None:
            cells += ["", ""]
            continue
        cells.append(_csv_bool(outcome["passed"]))
        cells.append("" if "error" in outcome else repr(spec.residual(outcome)))
    return cells


# the float spellings json.dumps changes
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(value, newline: str, out: list) -> None:
    """Append the text json.dumps(value, indent=2) gives for value to out.

    newline is a line break followed by the indentation of value's line.
    Scalars are written as json writes them: strings through json's C
    escaper, floats (subclasses too) by float.__repr__ with NaN, Infinity
    and -Infinity, ints by int.__repr__. Dicts keep their insertion order
    and need string keys; lists and tuples are arrays. Anything else
    raises TypeError.
    """
    if isinstance(value, float):
        text = float.__repr__(value)
        out.append(_JSON_FLOATS.get(text, text))
    elif isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _json_str(key) + ": ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report; json round-trips exactly, csv is one row per point."""
    if fmt == "json":
        out = []
        _write_json(report.to_mapping(), "\n", out)
        out.append("\n")
        return "".join(out)
    if fmt == "csv":
        buffer = StringIO()
        table = csv_writer(buffer, lineterminator="\n")
        table.writerow(_CSV_COLUMNS)
        for record in report.points:
            table.writerow(_csv_cells(record))
        return buffer.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")
