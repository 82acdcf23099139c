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
are its jet order and overflow error), the two numbers of its outcome,
its pass rule and the residual the summary and CSV give. Records,
summary and both writers read it.

Points are evaluated serially, by one batched pass per chunk: the field
jets, validity and one `Geometry` (Gamma, nabla q, the lowered R and R)
that every check reads. Validity alone needs no derivatives, so it runs
in chunks of VALIDITY_CHUNK_SIZE; the other checks run in chunks of
CHUNK_SIZE. A grid may hold at most MAX_POINTS points.

A grid is a product of four axes (`_Axes`), and a chunk holds its points
as their (4, N) index on the axes, in row-major order. The jets and the
domain read the chunk's points, gathered from the axes once; the writers
write each axis value's text once per report and gather it by the index.
A one-point check is the grid of one value per axis, so it takes the
same path.

A chunk's result is columnar (`_Columns`): the axes and index, triples,
a reason code per point with the table of reason texts it indexes (from
`ManifoldSpec.domain_reasons`: a point is valid where its code is 0, the
reason None), and for each geometry check an outcome code per point
(`_outcomes`) and its two numbers. No record dict is built on the way to
the report. `Report.points`, and the record `evaluate_point` returns, are
built from those columns (`_records`) on first use, and the summary is
counted from them (`_summarize`).

Reports are plain mappings rendered to JSON or CSV. Rendering is
deterministic: fixed key order, records in row-major grid order, floats in
shortest round-trip form (`float.__repr__`), so identical inputs give
byte-identical output, the same bytes as json.dumps(report, indent=2) and
the csv module give for the mapping. Both writers read the records from
the columns, one chunk at a time, from columns of texts: the coordinates
from the axes, the triples and check numbers with each distinct float of
a long chunk written once (`_float_texts`), and valid and reason as one
text per reason that occurs in the chunk, gathered by code
(`_per_code`), and so each skipped or error outcome, with results
formed only where a check passed or failed (`_per_outcome`). CSV joins
each row's cells with commas, quoted by the csv module. JSON fills one
record template per chunk with one `%`-template per outcome shape (null,
validity, parallel or curvature results, error).
The JSON `meta` and `summary` are json.dumps(indent=2)'s own text,
indented one level.
"""

from __future__ import annotations

import json
import math
import operator
from csv import writer as csv_writer
from dataclasses import dataclass, field
from functools import cache, cached_property
from io import StringIO
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .connection import Connection, _is_parallel, check_tolerance
from .curvature import Geometry
from .fields import _jet_views, as_point
from .manifolds import ManifoldSpec

__all__ = [
    "CHECKS",
    "AxisSpec",
    "ScanConfig",
    "Report",
    "CHUNK_SIZE",
    "VALIDITY_CHUNK_SIZE",
    "MAX_POINTS",
    "evaluate_point",
    "run_check",
    "run_scan",
    "render_report",
]

CHECKS = ("validity", "parallel", "curvature31", "curvature32")

_VERSION = __version__

# grid points per batched pass, by the jet order the checks need. Validity
# alone reads only field values (order 0), and its writers share the texts
# of repeated triples within a chunk, so it gains from large chunks. The
# CSV scan of the 9^4 grid of example (cli.main in one process, the sizes
# alternating, 200 rounds, three runs) took 0.85, 0.74-0.78 and 0.82-0.85
# of the time at 1024 in chunks of 2048, 4096 and 8192 (one chunk), and of
# the 15^4 grid 0.75, 0.65 and 0.65; the tracemalloc peak of the 9^4 scan
# is 1.40, 1.39, 1.56 and 2.21 MB at 1024 to 8192.
#
# A pass with derivatives gains less from larger chunks, and its curvature
# stages grow with them: R and the lowered R take 4^4 floats per point
# each, 512 KiB at 256. All checks on the 8^4 grid of the cubic manifold
# took 143, 132 and 134 ms in chunks of 64, 128 and 256 (medians of 60,
# alternating in one process; paired, 0.91 and 0.92 of the time at 64),
# and the peak RSS of the 4^4 all-check scan process (perfbench
# scan-cubic, 10 s) was 38.8, 39.0 and 39.9 MB. 256 has half the
# per-chunk steps of 128 (jets, domain, writers) at the same pass time.
# The pass holds its curvature stages in one block (see `curvature`), so
# repeated scans reuse its pages instead of faulting them in again; the
# tracemalloc peak of a 256-point chunk is 1.75 MB (2-vCPU Xeon, Python
# 3.11, numpy 2.4, glibc 2.36).
CHUNK_SIZE = 256
VALIDITY_CHUNK_SIZE = 4096

# grid points per scan. A report keeps its columns in memory, about 180 B
# per point with every check, and rendering it peaks at about 1.7 KB per
# point for JSON (the text, twice) and under 1 KB for CSV (tracemalloc, all
# checks on the cubic manifold), so this bounds a scan to about 2 GB. The
# record dicts of `Report.points` take several KB per point more, if asked
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
    """One grid axis: count values evenly spaced over [start, stop].

    An axis of count 1 is its start alone, as np.linspace gives it: a
    start of -0.0 as 0.0, at any count. The bounds are kept as floats and
    the count as an int, whatever real and integer types they came as; a
    bool is neither a bound nor a count.
    """

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if any(isinstance(bound, (bool, np.bool_)) for bound in (self.start, self.stop)):
            raise ValueError(f"axis bounds must not be bools, got {self.start}:{self.stop}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis bounds must be finite")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        if self.start > self.stop:
            raise ValueError(f"axis start {self.start} exceeds stop {self.stop}")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"axis span {self.start}:{self.stop} is not finite")
        try:
            count = operator.index(self.count)
        except TypeError:
            count = 0
        if isinstance(self.count, bool) or count < 1:
            raise ValueError(f"axis count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "count", count)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScanConfig:
    """A four-axis grid, the checks to run on it and the tolerance."""

    axes: tuple[AxisSpec, AxisSpec, AxisSpec, AxisSpec]
    checks: tuple[str, ...] = CHECKS
    tolerance: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.axes) != 4 or not all(isinstance(a, AxisSpec) for a in self.axes):
            raise ValueError("exactly four AxisSpec axes are required")
        # canonical order, so equivalent configs report identically
        object.__setattr__(self, "checks", _canonical_checks(self.checks))
        object.__setattr__(self, "tolerance", check_tolerance(self.tolerance))
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_POINTS:
            raise ValueError(f"grid has {points} points, more than MAX_POINTS = {MAX_POINTS}")


class _GeometryCheck(NamedTuple):
    stage: type[Connection]  # the pass class: jet_order and not_finite
    keys: tuple[str, str]  # the two numbers of an outcome with results
    numbers: Callable[[Geometry], tuple]  # both, (N,) each, at the points of the pass
    passes: Callable  # of the two numbers, (N,) each, and tol: (N,) bool
    residual: Callable[[float, float], float]  # of the summary and CSV


def _curvature_check(gap: str, scale: str) -> _GeometryCheck:
    """The check that a `Geometry` gap is within tol times its scale, 1 + max |R|."""
    return _GeometryCheck(
        Geometry,
        ("residual", "scale"),
        lambda g: (getattr(g, gap), getattr(g, scale)),
        lambda residual, scale, tol: residual <= tol * scale,
        lambda residual, scale: residual,
    )


_GEOMETRY_CHECKS = {
    "parallel": _GeometryCheck(
        Connection,
        ("nabla_q_max", "gradient_condition_max"),
        lambda g: (g.nabla_q_max, g.gradient_condition_max),
        _is_parallel,
        max,
    ),
    "curvature31": _curvature_check("q_invariance_gap", "q_invariance_scale"),
    "curvature32": _curvature_check("q_commutation_gap", "q_commutation_scale"),
}


def _jet_order(checks) -> int:
    """The highest derivative order the checks read, 0 for validity alone."""
    return max((_GEOMETRY_CHECKS[c].stage.jet_order for c in checks if c != "validity"), default=0)


# The outcome of a geometry check at a point is a code: skipped (at an
# invalid point), passed, failed, or an error, which indexes the chunk's
# error texts: _ERROR_TEXTS, with the checks' overflow errors, and past
# them the table of `Connection._failure_codes`.
_SKIPPED, _PASSED, _FAILED = range(3)
_ERROR_TEXTS = (None, None, None, Connection.not_finite, Geometry.not_finite)


def _outcomes(names, block: np.ndarray, order: int, tolerance: float) -> tuple:
    """The outcome codes (C, V), numbers (C, 2, V) and error texts of C checks at V points."""
    checks = [_GEOMETRY_CHECKS[name] for name in names]
    geometry = Geometry(*_jet_views(block, order))  # the pass, at the points of the jets block
    # points that get an error outcome may hold inf and NaN, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        numbers = np.array([check.numbers(geometry) for check in checks])
        codes = _FAILED - np.array([c.passes(*n, tolerance) for c, n in zip(checks, numbers)])
    # the numbers of every check in one test, and no error text unless a point errs
    finite = np.isfinite(numbers)
    if finite.all() and not np.count_nonzero(geometry._non_finite | geometry.degenerate):
        return codes, numbers, _ERROR_TEXTS
    failures = {o: geometry._failure_codes(o) for o in {check.stage.jet_order for check in checks}}
    for check, row, finite_row in zip(checks, codes, finite.all(axis=1)):
        row[~finite_row] = _ERROR_TEXTS.index(check.stage.not_finite)
        failed, texts = failures[check.stage.jet_order]
        np.copyto(row, len(_ERROR_TEXTS) + failed, where=failed > 0)
    np.copyto(numbers, -np.inf, where=(codes > _FAILED)[:, None])
    # the degenerate points, and so the tables, are the same at every order
    return codes, numbers, _ERROR_TEXTS + texts


class _Axes:
    """The values of the four axes of a grid, shared by the chunks of its report.

    A chunk holds its points as their index on each axis: coordinate k of
    point n is values[k][index[k][n]]. A scan chunk's index is a (4, N)
    array; a one-point check is the grid of one value per axis, and its
    index is slice(None) on each.
    """

    def __init__(self, values):
        self.values = tuple(values)

    def points(self, index: np.ndarray) -> np.ndarray:
        """The (N, 4) points of an index on the axes, a transposed view."""
        return np.array([v[i] for v, i in zip(self.values, index)]).T

    @cached_property
    def texts(self) -> tuple:
        """float.__repr__ of each value of each axis, written once per report."""
        return tuple(
            np.array(list(map(float.__repr__, v.tolist())), dtype=object) for v in self.values
        )


class _Columns(NamedTuple):
    """The records of a chunk of N points, one column per field."""

    axes: _Axes  # the grid's axes
    index: np.ndarray | tuple  # the points' index on each axis, as `_Axes` takes it
    values: np.ndarray  # (3, N) the triples, reported as null where not finite
    codes: np.ndarray  # (N,) intp, why a point is invalid, an index into reasons
    reasons: tuple  # the reason texts of `domain_reasons`, None (valid) first
    checks: tuple  # the checks run, in CHECKS order
    geometric: tuple  # the C geometry checks among them
    outcomes: np.ndarray  # (C, N) intp, the outcome code of each
    numbers: np.ndarray  # (C, 2, N) the two numbers of each where it passed or failed, else -inf
    errors: tuple  # the texts of the error codes, _ERROR_TEXTS first


def _evaluate_chunk(
    manifold: ManifoldSpec, axes: _Axes, index, checks, tolerance: float
) -> _Columns:
    """The columns of the N points of an index on axes, from one batched pass."""
    points = axes.points(index)
    order = _jet_order(checks)
    block = manifold.compiled.evaluate(points, order)
    # the report keeps a copy of the values, not the block of every jet slot
    values = block[:, 0].copy()
    codes, reasons = manifold.domain_reasons(points, values)
    geometric = tuple(name for name in checks if name != "validity")
    rows = np.flatnonzero(codes == 0) if geometric else ()
    if 0 < len(rows) == len(codes):
        # every point is valid, and the pass reads the block uncopied
        outcomes, numbers, errors = _outcomes(geometric, block, order, tolerance)
    else:
        outcomes = np.zeros((len(geometric), len(codes)), np.intp)  # _SKIPPED
        numbers = np.full((len(geometric), 2, len(codes)), -np.inf)
        errors = _ERROR_TEXTS
    if 0 < len(rows) < len(codes):
        # the pass reads the block at the valid rows, taken along its point
        # axis, which stays last and contiguous, and frees the rest
        block = np.take(block, rows, axis=-1)
        decided = _outcomes(geometric, block, order, tolerance)
        outcomes[:, rows], numbers[..., rows], errors = decided
    return _Columns(
        axes, index, values, codes, reasons, tuple(checks), geometric, outcomes, numbers, errors
    )


def _records(columns: _Columns) -> list[dict]:
    """The report records of a chunk, built from its columns."""
    reasons = _per_code(columns.codes, columns.reasons, lambda reason: reason)
    per_check = []
    if "validity" in columns.checks:
        per_check.append([{"passed": reason is None} for reason in reasons])
    for name, codes, numbers in zip(columns.geometric, columns.outcomes, columns.numbers):
        first, second = _GEOMETRY_CHECKS[name].keys
        per_check.append([
            None if code == _SKIPPED
            else {"passed": code == _PASSED, first: a, second: b} if code <= _FAILED
            else {"passed": False, "error": columns.errors[code]}
            for code, a, b in zip(codes.tolist(), *numbers.tolist())
        ])
    triples = [
        {k: x if math.isfinite(x) else None for k, x in zip("ABC", triple)}
        for triple in columns.values.T.tolist()
    ]
    return [
        {
            "point": point,
            "triple": triple,
            "valid": reason is None,
            "reason": reason,
            "checks": dict(zip(columns.checks, outcomes)),
        }
        for point, triple, reason, *outcomes in zip(
            columns.axes.points(columns.index).tolist(), triples, reasons, *per_check
        )
    ]


def evaluate_point(
    manifold: ManifoldSpec, point, checks=CHECKS, tolerance: float = 1e-8
) -> dict:
    """One record of the report: triple, validity and check outcomes at point."""
    return run_check(manifold, point, checks, tolerance).points[0]


def _summarize(chunks) -> dict:
    """The summary of a report, counted from the columns of its chunks (of the same checks)."""
    points = sum(len(chunk.codes) for chunk in chunks)
    valid = points - int(sum(np.count_nonzero(chunk.codes) for chunk in chunks))
    per_check = {}
    if "validity" in chunks[0].checks:
        per_check["validity"] = {"passed": valid, "failed": points - valid}
    # per check over the chunks, and the largest of each number; -inf is that of no point
    passed, maxima = [0] * len(chunks[0].geometric), -np.inf
    for chunk in chunks:
        passed = [n + codes.count(_PASSED) for n, codes in zip(passed, chunk.outcomes.tolist())]
        maxima = np.maximum(maxima, chunk.numbers.max(axis=2))
    for name, n, largest in zip(chunks[0].geometric, passed, maxima.tolist()):
        residual = _GEOMETRY_CHECKS[name].residual(*largest)
        per_check[name] = {
            "passed": n,
            "failed": valid - n,
            "skipped": points - valid,
            "max_residual": None if residual == -math.inf else residual,
        }
    return {
        "points": points,
        "valid_points": valid,
        "checks": per_check,
        "all_passed": not any(counts["failed"] for counts in per_check.values()),
    }


@dataclass(frozen=True, eq=False)
class Report:
    """A report: meta, one record per point, and the summary.

    The records are kept as the columns of the chunks of the pass
    (`columns`), as run_scan and run_check build them; `points` builds
    their dicts on first use. Reports with the same meta, records and
    summary are equal.
    """

    meta: dict = field(default_factory=dict)
    columns: tuple = ()
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(isinstance(chunk, _Columns) for chunk in self.columns):
            raise TypeError("Report columns are the chunk columns run_scan and run_check build")

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return (self.meta, self.points, self.summary) == (other.meta, other.points, other.summary)

    @cached_property
    def points(self) -> tuple:
        return tuple(record for chunk in self.columns for record in _records(chunk))

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
    checks, tolerance = _canonical_checks(checks), check_tolerance(tolerance)
    point = as_point(point)
    axes = _Axes(point[:, None])  # the grid of one value per axis
    columns = _evaluate_chunk(manifold, axes, (slice(None),) * 4, checks, tolerance)
    meta = _meta(manifold, "check", checks, tolerance)
    meta["point"] = point.tolist()
    return Report(meta, (columns,), _summarize((columns,)))


def _grid_chunks(shape: tuple, size: int):
    """The (4, n) axis index of the points of a grid of shape, in chunks of size.

    The points are in row-major order, the last axis fastest.
    """
    total = math.prod(shape)
    for start in range(0, total, size):
        yield np.array(np.unravel_index(np.arange(start, min(start + size, total)), shape))


def run_scan(manifold: ManifoldSpec, config: ScanConfig) -> Report:
    """Evaluate the configured checks over the whole grid, one chunk at a time."""
    size = VALIDITY_CHUNK_SIZE if _jet_order(config.checks) == 0 else CHUNK_SIZE
    axes = _Axes(axis.values() for axis in config.axes)
    chunks = tuple(
        _evaluate_chunk(manifold, axes, index, config.checks, config.tolerance)
        for index in _grid_chunks(tuple(axis.count for axis in config.axes), size)
    )
    meta = _meta(manifold, "scan", config.checks, config.tolerance)
    meta["box"] = [
        {"start": a.start, "stop": a.stop, "count": a.count} for a in config.axes
    ]
    return Report(meta, chunks, _summarize(chunks))


def _distinct_bits(values: np.ndarray):
    """The distinct values of a float array and where each value is among them.

    Returns (distinct (D,), inverse of values' shape) with values equal to
    distinct[inverse] bit for bit. Values are told apart by their bits, so
    -0.0 is not 0.0.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
    # the shape of the inverse varies across numpy versions
    return distinct.view(np.float64), inverse.reshape(values.shape)


# From this many values per row on, a block is written one text per
# distinct value. Grid chunks repeat their triples: a 4096-point chunk of
# the 9^4 validity grid of example has 4.9% of its A, B and C distinct, and
# their texts took 0.65 ms shared against 4.4 ms one by one; the 256-point
# chunk of the 4^4 cubic grid 30%, 0.21 against 0.45 ms, and its first 64
# points 60%, 0.14-0.17 against 0.11-0.21 ms. The check numbers of the
# 256-point cubic chunk took 0.10 against 0.23 ms. With no repeated values
# the np.unique that finds that out costs 12% more at 256 values per row
# and 70% at 64 (0.19 against 0.11 ms for three rows), which only the last
# chunk of a scan can reach (2-vCPU Xeon, Python 3.11, numpy 2.4).
_SHARED_TEXTS_FROM = 64


def _float_texts(block: np.ndarray) -> list[list[str]]:
    """float.__repr__ of each value of each row of a (k, N) array, one list per row.

    The writers call it on the triples and the check numbers of a chunk;
    the coordinates are the texts of the axes (`_float_cells`).
    float.__repr__ is the shortest text that reads back the same. In a
    block of _SHARED_TEXTS_FROM values per row or more, with repeated
    values, each distinct value is written once; values are told apart by
    their bits, so -0.0 is not 0.0.
    """
    if block.shape[1] >= _SHARED_TEXTS_FROM:
        distinct, inverse = _distinct_bits(block)
        if len(distinct) < block.size:
            texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
            return texts[inverse].tolist()
    return [list(map(float.__repr__, row)) for row in block.tolist()]


_CSV_COLUMNS = (
    "x1", "x2", "x3", "x4", "A", "B", "C", "valid", "reason",
    "parallel_passed", "parallel_max_residual",
    "curvature31_passed", "curvature31_residual",
    "curvature32_passed", "curvature32_residual",
)

# the spelling of a bool in JSON and CSV, indexed by it
_BOOL_TEXTS = ("false", "true")


def _float_cells(columns: _Columns, missing: str) -> list[list[str]]:
    """The texts of the point and the triple of each record of a chunk, one list per field.

    A coordinate is the text of its axis value (`_Axes.texts`), gathered
    by the chunk's index. A triple component that is not finite is missing.
    """
    cells = [texts[i].tolist() for texts, i in zip(columns.axes.texts, columns.index)]
    cells += _float_texts(columns.values)
    finite = np.isfinite(columns.values)
    if not finite.all():
        for k, n in zip(*np.nonzero(~finite)):
            cells[4 + k][n] = missing
    return cells


def _per_code(codes: np.ndarray, table, text) -> list:
    """text(entry) for each code, an index into table, once per entry that occurs."""
    counts = np.bincount(codes, minlength=len(table)).tolist()
    texts = [text(entry) if n else None for entry, n in zip(table, counts)]
    return list(map(texts.__getitem__, codes.tolist()))


def _csv_quoted(text: str) -> str:
    """text as one cell of a csv module row, quoted where it needs to be."""
    buffer = StringIO()
    csv_writer(buffer, lineterminator="\n").writerow([text])
    return buffer.getvalue()[:-1]


def _per_outcome(columns: _Columns, error, results) -> list[list]:
    """A text per point of each geometry check of a chunk, a list per check.

    error(text) is that of a skipped (text None) or error outcome, formed
    once per code that occurs, and results(name, codes, numbers) those of
    the points that passed or failed, from their codes and (2, R) numbers.
    """
    lists = columns.outcomes.tolist()
    if all({*codes} <= {_PASSED, _FAILED} for codes in lists):
        return list(map(results, columns.geometric, lists, columns.numbers))
    cells = []
    for name, codes, numbers in zip(columns.geometric, columns.outcomes, columns.numbers):
        cells.append(_per_code(codes, columns.errors, error))
        rows = np.flatnonzero((codes == _PASSED) | (codes == _FAILED))
        for n, text in zip(rows.tolist(), results(name, codes[rows].tolist(), numbers[:, rows])):
            cells[-1][n] = text
    return cells


def _csv_results(name: str, codes: list, numbers: np.ndarray) -> list:
    """The two cells of a geometry check that passed or failed, as one, per point."""
    residuals = map(_GEOMETRY_CHECKS[name].residual, *numbers.tolist())
    texts = zip(codes, map(float.__repr__, residuals))
    return [_BOOL_TEXTS[code == _PASSED] + "," + residual for code, residual in texts]


def _csv_chunk(columns: _Columns) -> str:
    """The CSV rows of a chunk.

    The valid and reason cells are one text, and so are the two of each
    geometry check ("," where it did not run); without a geometry check,
    the cells from valid on are.
    """
    cells = _float_cells(columns, "")
    per_check = _per_outcome(columns, lambda text: "false," if text else ",", _csv_results)
    outcomes = dict(zip(columns.geometric, per_check))
    tail = "" if outcomes else ",," * len(_GEOMETRY_CHECKS)
    def valid_reason(reason):
        return ("true," if reason is None else "false," + _csv_quoted(reason)) + tail
    cells.append(_per_code(columns.codes, columns.reasons, valid_reason))
    if outcomes:
        cells += [outcomes.get(name, repeat(",")) for name in _GEOMETRY_CHECKS]
    rows = list(map(",".join, zip(*cells)))
    rows.append("")  # the last line break, and none without rows
    return "\n".join(rows)


# one record of the points array of a JSON report, as json.dumps(indent=2)
# lays it out there: the part up to the outcomes, with the valid and reason
# lines as one text per reason (`_json_valid_reason`), one outcome line per
# check, and the end
_JSON_RECORD = (
    "{\n"
    '      "point": [\n        %s,\n        %s,\n        %s,\n        %s\n      ],\n'
    '      "triple": {\n        "A": %s,\n        "B": %s,\n        "C": %s\n      },\n'
    '      %s,\n'
    '      "checks": {'
)
_JSON_OUTCOME_LINE = '\n        %s: %%s'
_JSON_RECORD_END = "\n      }\n    }"
# the outcome shapes besides null, where a check did not run: validity, an
# error, and results under the two keys of a geometry check
_JSON_VALIDITY = tuple('{\n          "passed": %s\n        }' % b for b in _BOOL_TEXTS)
_JSON_ERROR = '{\n          "passed": false,\n          "error": %s\n        }'
_JSON_RESULTS = {
    name: '{\n          "passed": %%s,\n          %s: %%s,\n          %s: %%s\n        }'
    % tuple(map(_json_str, check.keys))
    for name, check in _GEOMETRY_CHECKS.items()
}


@cache
def _json_record_template(checks: tuple) -> str:
    outcomes = ",".join(_JSON_OUTCOME_LINE % _json_str(name) for name in checks)
    return _JSON_RECORD + outcomes + _JSON_RECORD_END


def _json_valid_reason(reason) -> str:
    """The valid and reason lines of a record, as one text."""
    reason_text = "null" if reason is None else _json_str(reason)
    return '"valid": %s,\n      "reason": %s' % (_BOOL_TEXTS[reason is None], reason_text)


def _json_results(name: str, codes: list, numbers: np.ndarray) -> list:
    """A geometry check's outcome with results, per point."""
    results = _JSON_RESULTS[name]
    texts = zip(codes, *_float_texts(numbers))
    return [results % (_BOOL_TEXTS[code == _PASSED], a, b) for code, a, b in texts]


def _json_chunk(columns: _Columns) -> str:
    """The records of a chunk as JSON array items."""
    cells = _float_cells(columns, "null")
    cells.append(_per_code(columns.codes, columns.reasons, _json_valid_reason))
    if "validity" in columns.checks:
        validity = _per_code(columns.codes, columns.reasons, lambda r: _JSON_VALIDITY[r is None])
        cells.append(validity)
    cells += _per_outcome(
        columns, lambda text: _JSON_ERROR % _json_str(text) if text else "null", _json_results
    )
    template = _json_record_template(columns.checks)
    return ",\n    ".join(map(template.__mod__, zip(*cells)))


def _json_nested(value) -> str:
    """json.dumps(value, indent=2), indented one level to sit inside the report.

    json escapes every line break inside a string, so each one in the text
    starts a line of the layout.
    """
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialize a report; json round-trips exactly, csv is one row per point.

    Both write the records from the columns of the report (JSON from
    `%`-templates, CSV as joined cells), never from its record dicts; the
    JSON meta and summary are json.dumps's own text.
    """
    if fmt == "json":
        out = ['{\n  "meta": ', _json_nested(report.meta)]
        separator = ',\n  "points": [\n    '
        for chunk in report.columns:
            out += (separator, _json_chunk(chunk))
            separator = ",\n    "
        out.append("\n  ]" if report.columns else ',\n  "points": []')
        out += (',\n  "summary": ', _json_nested(report.summary), "\n}\n")
        return "".join(out)
    if fmt == "csv":
        header = ",".join(_CSV_COLUMNS) + "\n"
        return "".join([header, *(_csv_chunk(chunk) for chunk in report.columns)])
    raise ValueError(f"unknown report format {fmt!r}")
