"""Benchmark of circulant4: scan throughput, one-point check latency, layer traces.

    python3 perfbench/run.py --workload scan-cubic --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The program is driven from outside through its public entry point,
`circulant4.cli.main(argv)`, called in this process with stdout captured and
CIRCULANT4_JOBS set explicitly before every call. Only the generated argv
reaches the program; the seed stays here.

Workloads (why each one is here is in `WORKLOADS`):

    scan-cubic     scan, all four checks, JSON, 4^4 grid on [-1, 1]^4 of the
                   cubic q-parallel manifold (manifolds/cubic.cfg)
    scan-validity  scan --checks validity --format csv, 9^4 grid on
                   [0.5, 2]^4 of the built-in example
    check-point    closed loop, one caller: check at seeded points valid on
                   both example and manifolds/perturbed.cfg, alternating

A run repeats rounds of calls for --seconds. A round makes every call of the
workload once at JOBS=1 and once at JOBS=2 (with --trace 1 also once at
JOBS=1 under the tracer); which goes first rotates. A call starts only if the
last call of its kind says it will end within --seconds. Every report is checked:
exit code, parse, one record per grid point in row-major order, summary
recount, byte-identical reports across JOBS and tracing. Verdicts are
compared with the paper's claims and counted, never filtered.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it holds the machine and run facts.
With --trace 1 the spans are written to perfbench/out/ at the end.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CUBIC_CFG = BENCH_DIR / "manifolds" / "cubic.cfg"
PERTURBED_CFG = BENCH_DIR / "manifolds" / "perturbed.cfg"

JOBS_ENV = "CIRCULANT4_JOBS"
GEOMETRY_CHECKS = ("parallel", "curvature31", "curvature32")
SETUP_REPEATS = 7
# Percentile of the call times that the timings report. The host the
# baseline was measured on (a 2-vCPU KVM guest) runs the same code up to
# 1.8x faster for seconds to minutes at a time; medians flip between the
# two speeds from run to run, the 90th percentile stays at the slower one.
SUSTAINED = 90
# spans kept in memory (4 int64 each); traced calls stop once this is passed
SPAN_LIMIT = 2_000_000

WORKLOADS = {
    "scan-cubic": "scan, all checks, JSON, 256-point grid of the cubic q-parallel "
    "manifold: every geometry layer works and R != 0, so the curvature checks test "
    "something",
    "scan-validity": "scan --checks validity, CSV, 6561-point grid of example: "
    "no connection or curvature, time goes to field values, validity, records and "
    "rendering of the largest report",
    "check-point": "one caller, check at one seeded point per call, alternating "
    "example and perturbed (the negative control): the geometry layers at N=1",
}

END_TO_END = {
    "points_per_s": "1/s",
    "points_per_s_jobs2": "1/s",
    "check_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "right_verdict_ratio": "ratio",
}

# per-layer count metric -> the traced label whose calls it counts
COUNTERS = {
    "fields.partial_count": "fields.ScalarField.partial",
    "fields.call_count": "fields.ScalarField.__call__",
    "circulant.inverse_count": "circulant.inverse_metric",
    "manifolds.triple_at_count": "manifolds.ManifoldSpec.triple_at",
    "connection.christoffel_count": "connection.christoffel",
    "curvature.riemann_count": "curvature.riemann",
    "curvature.christoffel_partials_count": "curvature.christoffel_partials",
}
SELF_TIMES = ("fields", "circulant", "manifolds", "connection", "curvature", "scan", "cli")
RENDER_LABEL = "scan.render_report"

PER_LAYER = {
    **{name: "count" for name in COUNTERS},
    **{f"{layer}.self_us": "us" for layer in SELF_TIMES},
    "scan.render_us": "us",
    "scan.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here: no program, bad arguments."""


# ---------------------------------------------------------------- program


def import_program():
    """Import circulant4 from this checkout's src/, never from elsewhere."""
    if not (SRC / "circulant4" / "__init__.py").is_file():
        raise BenchError(f"no circulant4 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import circulant4
        import circulant4.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import circulant4: {exc}") from exc
    if Path(circulant4.__file__).resolve().parent != SRC / "circulant4":
        raise BenchError(f"circulant4 imported from {circulant4.__file__}, not {SRC}")
    return cli


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import circulant4.cli
from circulant4 import example_manifold, load_manifold
for ref in sys.argv[1:]:
    example_manifold() if ref == "example" else load_manifold(ref)
t1 = time.perf_counter()
print(circulant4.__file__)
print(repr(t1 - t0))
"""


def measure_setup(manifold_refs, repeats=SETUP_REPEATS) -> list[float]:
    """Import plus manifold resolution, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, *manifold_refs],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
        )
        lines = done.stdout.split()
        if done.returncode != 0 or len(lines) != 2:
            raise BenchError(f"set-up failed: {done.stderr.strip()[-500:]}")
        if Path(lines[0]).resolve().parent != SRC / "circulant4":
            raise BenchError(f"set-up imported circulant4 from {lines[0]}")
        times.append(float(lines[1]))
    return times


# ----------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Request:
    """One CLI call and what its report must look like."""

    argv: tuple[str, ...]
    fmt: str  # json | csv
    grid: np.ndarray  # (N, 4) expected record points, row-major
    checks: tuple[str, ...]
    truth: str  # "parallel": every geometry check passes; "perturbed": parallel fails


def _grid(start: float, stop: float, count: int) -> np.ndarray:
    axis = np.linspace(start, stop, count)
    return np.array(list(itertools.product(axis, axis, axis, axis)))


def scan_request(manifold_ref, start, stop, count, checks, fmt, truth) -> Request:
    box = ",".join([f"{start!r}:{stop!r}:{count}"] * 4)
    argv = ("scan", "--manifold", manifold_ref, f"--box={box}",
            f"--checks={','.join(checks)}", "--format", fmt)
    return Request(argv, fmt, _grid(start, stop, count), tuple(checks), truth)


def _example_triple(p: np.ndarray):
    x1, x2, x3, x4 = p.T
    a = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
    b = x1 * x2 + x2 * x3 + x1 * x4 + x3 * x4
    c = 2.0 * x1 * x3 + 2.0 * x2 * x4
    return a, b, c


def _ordered(a, b, c):
    # A > C > B > 0 with a margin of 1e-12 of the scale, only so that rounding
    # in this evaluation and the program's cannot disagree; it is far below
    # the gaps of badly conditioned points, which stay in the stream
    margin = 1e-12 * (1.0 + abs(a) + abs(b) + abs(c))
    return (a - c > margin) & (c - b > margin) & (b > margin)


def check_points(seed: int):
    """Endless seeded stream of points in [0.5, 2]^4 valid on example and perturbed.

    Points on the excluded lines (x, x, x, x) and (-x, x, -x, x) have
    probability zero under a continuous draw and are not tested for.
    """
    rng = np.random.default_rng(seed)
    while True:
        batch = rng.uniform(0.5, 2.0, size=(256, 4))
        a, b, c = _example_triple(batch)
        keep = _ordered(a, b, c) & _ordered(a + batch[:, 0], b, c)
        yield from batch[keep]


def check_request(manifold_ref, point, truth) -> Request:
    coords = ",".join(repr(float(x)) for x in point)
    argv = ("check", "--manifold", manifold_ref, f"--point={coords}")
    return Request(argv, "json", np.asarray(point, dtype=float)[None, :], ("validity",) + GEOMETRY_CHECKS, truth)


def workload_rounds(name: str, seed: int, tiny: bool):
    """(manifold refs resolved at set-up, iterator of rounds of requests)."""
    if name == "scan-cubic":
        req = scan_request(str(CUBIC_CFG), -1.0, 1.0, 2 if tiny else 4,
                           ("validity",) + GEOMETRY_CHECKS, "json", "parallel")
        return [str(CUBIC_CFG)], itertools.repeat([req])
    if name == "scan-validity":
        req = scan_request("example", 0.5, 2.0, 3 if tiny else 9,
                           ("validity",), "csv", "parallel")
        return ["example"], itertools.repeat([req])
    if name == "check-point":
        rounds = (
            [check_request("example", p, "parallel"),
             check_request(str(PERTURBED_CFG), p, "perturbed")]
            for p in check_points(seed)
        )
        return ["example", str(PERTURBED_CFG)], rounds
    raise BenchError(f"unknown workload {name!r}")


# ----------------------------------------------------------------- checks


@dataclass
class Tally:
    attempted: int = 0  # grid points and check calls
    failed: int = 0  # of those, ended in an error outcome, exit 2 or exception
    valid: int = 0
    wrong: int = 0  # valid points whose verdicts contradict the paper
    problems: Counter = field(default_factory=Counter)  # message -> times seen

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.valid += other.valid
        self.wrong += other.wrong
        self.problems.update(other.problems)


def _verdict_wrong(truth: str, outcomes: dict) -> bool:
    if truth == "parallel":
        return any(not outcomes[c]["passed"] for c in GEOMETRY_CHECKS if c in outcomes)
    return "parallel" in outcomes and outcomes["parallel"]["passed"]


def _recount(records, checks) -> dict:
    total = len(records)
    valid = sum(1 for r in records if r["valid"])
    per_check, all_passed = {}, True
    for check in checks:
        if check == "validity":
            per_check[check] = {"passed": valid, "failed": total - valid}
            all_passed &= valid == total
            continue
        outcomes = [r["checks"][check] for r in records]
        passed = sum(1 for o in outcomes if o is not None and o["passed"])
        failed = sum(1 for o in outcomes if o is not None and not o["passed"])
        per_check[check] = {"passed": passed, "failed": failed,
                            "skipped": total - passed - failed}
        all_passed &= failed == 0
    return {"points": total, "valid_points": valid, "checks": per_check,
            "all_passed": all_passed}


def check_json_report(req: Request, code: int, text: str) -> Tally:
    """Structure, recount and verdicts of a JSON report; raises if it does not parse."""
    tally = Tally(attempted=len(req.grid))
    report = json.loads(text)
    records, summary = report["points"], report["summary"]
    if len(records) != len(req.grid):
        tally.problems[f"{len(records)} records for {len(req.grid)} points"] += 1
    elif any(r["point"] != list(g) for r, g in zip(records, req.grid.tolist())):
        tally.problems["records are not one per grid point in row-major order"] += 1
    if report["meta"].get("checks") != list(req.checks):
        tally.problems[f"report ran checks {report['meta'].get('checks')}"] += 1
    recount = _recount(records, req.checks)
    for key, value in recount.items():
        got = summary.get(key)
        if key == "checks":
            got = {c: {k: v for k, v in s.items() if k != "max_residual"}
                   for c, s in (got or {}).items()}
        if got != value:
            tally.problems[f"summary {key} {got!r} != recount {value!r}"] += 1
    if code != (0 if summary.get("all_passed") else 1):
        tally.problems[f"exit code {code} disagrees with all_passed"] += 1
    for record in records:
        outcomes = {c: o for c, o in record["checks"].items() if o is not None}
        if any("error" in o for o in outcomes.values()):
            tally.failed += 1
        if record["valid"]:
            tally.valid += 1
            tally.wrong += _verdict_wrong(req.truth, outcomes)
    if req.argv[0] == "check":
        if report["meta"].get("point") != req.grid[0].tolist():
            tally.problems["check report is for another point"] += 1
        if not records[0]["valid"]:
            # the point was drawn valid: an invalid verdict contradicts the paper
            tally.valid += 1
            tally.wrong += 1
    return tally


def check_csv_report(req: Request, code: int, text: str) -> Tally:
    """Structure and validity count of a CSV report; raises if it does not parse.

    Rows are checked as they are read, so that checking a large report does
    not take more memory than the program took to make it.
    """
    tally = Tally(attempted=len(req.grid))
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:9] != ["x1", "x2", "x3", "x4", "A", "B", "C", "valid", "reason"]:
        raise ValueError(f"unexpected csv header {header[:9]}")
    expected = req.grid.tolist()
    rows = misplaced = 0
    for row in reader:
        if len(row) != len(header) or row[7] not in ("true", "false"):
            tally.problems["malformed csv row"] += 1
            continue
        if rows >= len(expected) or [float(x) for x in row[:4]] != expected[rows]:
            misplaced += 1
        rows += 1
        is_valid = row[7] == "true"
        tally.valid += is_valid
        if is_valid == bool(row[8]):
            tally.problems["csv reason disagrees with valid"] += 1
        if any(row[9:]):
            tally.problems["csv columns of checks that did not run are filled"] += 1
    if rows != len(expected):
        tally.problems[f"{rows} rows for {len(expected)} points"] += 1
    elif misplaced:
        tally.problems["rows are not one per grid point in row-major order"] += 1
    if code != (0 if tally.valid == rows else 1):
        tally.problems[f"exit code {code} disagrees with the validity count"] += 1
    return tally


# ---------------------------------------------------------------- calling


@dataclass
class Call:
    seconds: float
    code: int | None
    text: str
    error: str = ""


def call_cli(cli, argv, jobs: int) -> Call:
    """One timed in-process `circulant4` invocation at CIRCULANT4_JOBS=jobs."""
    os.environ[JOBS_ENV] = str(jobs)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - counted as a failed operation
            code = None
            error = traceback.format_exc()
        elapsed = perf_counter() - start
    return Call(elapsed, code, out.getvalue(), error or err.getvalue())


def judge(req: Request, call: Call) -> Tally:
    if call.code not in (0, 1):
        tally = Tally(attempted=len(req.grid), failed=len(req.grid))
        last_line = (call.error.strip().splitlines() or [""])[-1]
        ending = "an exception" if call.code is None else f"exit {call.code}"
        tally.problems[f"{' '.join(req.argv[:3])}: {ending}: {last_line}"] += 1
        return tally
    checker = check_csv_report if req.fmt == "csv" else check_json_report
    try:
        return checker(req, call.code, call.text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        tally = Tally(attempted=len(req.grid), failed=len(req.grid))
        tally.problems[f"{' '.join(req.argv[:3])}: malformed report: {exc!r}"] += 1
        return tally


# -------------------------------------------------------------- measuring


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


@dataclass
class Run:
    tally: Tally = field(default_factory=Tally)
    # per kind: (seconds, points) of every call
    calls: dict = field(default_factory=lambda: {"j1": [], "j2": [], "traced": []})
    layer: dict = field(default_factory=dict)
    traced_points: int = 0
    traced_bytes: int = 0


def run_workload(cli, rounds, seed: int, seconds: float, tracer=None) -> Run:
    """Make the calls of `rounds` for `seconds`; trace some when given a tracer."""
    kinds = ["j1", "j2"] if tracer is None else ["j1", "traced", "j2"]
    run = Run()
    digests = {}  # argv -> sha256 of the first report, for the byte-identity check
    cost = {}  # kind -> wall time of its last call, checks included
    started = perf_counter()
    for index, requests in enumerate(rounds):
        shift = (index + seed) % len(kinds)
        for kind in kinds[shift:] + kinds[:shift]:
            if kind == "traced" and tracer.span_count() > SPAN_LIMIT:
                continue
            for req in requests:
                begin = perf_counter()
                if kind in cost and begin - started + cost[kind] > seconds:
                    return run
                mark = None
                if kind == "traced":
                    tracer.install()
                    mark = tracer.span_count()
                try:
                    call = call_cli(cli, req.argv, 2 if kind == "j2" else 1)
                finally:
                    if kind == "traced":
                        tracer.uninstall()
                run.tally.add(judge(req, call))
                run.calls[kind].append((call.seconds, len(req.grid)))
                digest = hashlib.sha256(call.text.encode()).hexdigest()
                if digests.setdefault(req.argv, digest) != digest:
                    run.tally.problems[
                        f"{' '.join(req.argv[:3])}: report differs between calls"] += 1
                if mark is not None:
                    _accumulate(run, tracer.summary(mark), len(req.grid), len(call.text.encode()))
                del call  # free the report before the next call
                cost[kind] = perf_counter() - begin
    return run


def _accumulate(run: Run, summary: dict, points: int, nbytes: int):
    for key in ("count", "total_ns"):
        into = run.layer.setdefault(key, {})
        for label, value in summary[key].items():
            into[label] = into.get(label, 0) + value
    into = run.layer.setdefault("layer_self_ns", {})
    for layer, value in summary["layer_self_ns"].items():
        into[layer] = into.get(layer, 0) + value
    run.traced_points += points
    run.traced_bytes += nbytes


def seconds_per_point(run: Run, kind: str) -> list[float]:
    return [secs / points for secs, points in run.calls[kind]]


def end_to_end_metrics(run: Run, setup: list[float]) -> dict:
    """Timings from the 90th percentile of the calls, see SUSTAINED."""
    wrong_share = run.tally.wrong / max(run.tally.valid, 1)
    return {
        "points_per_s": 1.0 / percentile(seconds_per_point(run, "j1"), SUSTAINED),
        "points_per_s_jobs2": 1.0 / percentile(seconds_per_point(run, "j2"), SUSTAINED),
        "check_p90_ms": 1e3 * percentile(seconds_per_point(run, "j1"), SUSTAINED),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "right_verdict_ratio": 1.0 - wrong_share,
    }


def per_layer_metrics(run: Run, labels: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced point, and the counted labels that are absent."""
    points = max(run.traced_points, 1)
    us = 1e-3 / points  # microseconds per point, from nanoseconds
    count = run.layer.get("count", {})
    absent = [label for label in (*COUNTERS.values(), RENDER_LABEL) if label not in labels]
    metrics = {name: count.get(label, 0) / points for name, label in COUNTERS.items()}
    layer_self = run.layer.get("layer_self_ns", {})
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_us"] = layer_self.get(layer, 0.0) * us
    metrics["scan.render_us"] = run.layer.get("total_ns", {}).get(RENDER_LABEL, 0.0) * us
    metrics["scan.report_bytes"] = run.traced_bytes / points
    traced = [secs for secs, _ in run.calls["traced"]]
    plain = [secs for secs, _ in run.calls["j1"]]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
    )
    return metrics, absent


# ------------------------------------------------------------------ facts


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit() -> str:
    """HEAD of this checkout, read from .git/ without leaving the checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "none"
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "none"


def machine_facts() -> dict:
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    sources = hashlib.sha256()
    for path in sorted((SRC / "circulant4").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest()[:16],
    }


# ------------------------------------------------------------------- main


def _print_table(metrics: dict, units: dict, notes: dict):
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]:<6} {notes.get(name, '')}")


def bench_one(args) -> int:
    cli = import_program()
    refs, rounds = workload_rounds(args.workload, args.seed, args.tiny)
    setup = measure_setup(refs)
    # everything alive now lives for the whole run: keep it out of the
    # collections that the gc.collect() before each call makes
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    run = run_workload(cli, rounds, args.seed, args.seconds, tracer)
    tally = run.tally
    facts = {
        **machine_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "circulant4_jobs": {kind: (2 if kind == "j2" else 1)
                            for kind, calls in run.calls.items() if calls},
        "calls": {kind: len(calls) for kind, calls in run.calls.items()},
        "attempted": tally.attempted,
        "error_ratio": tally.failed / max(tally.attempted, 1),
        "valid_points": tally.valid,
        "wrong_verdicts": tally.wrong,
        "wrong_verdict_ratio": tally.wrong / max(tally.valid, 1),
    }
    if args.trace:
        metrics, absent = per_layer_metrics(run, tracer.labels)
        units = PER_LAYER
        facts["absent"] = absent + [f"{layer} (module)" for layer in tracer.absent_layers]
        facts["spans"] = tracer.span_count()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz"
        tracer.write(spans_path)
        facts["spans_file"] = str(spans_path.relative_to(ROOT))
        notes = {name: "absent" for name, label in COUNTERS.items() if label in absent}
        notes["trace.overhead_ratio"] = f"n={len(run.calls['traced'])} traced calls"
    else:
        metrics = end_to_end_metrics(run, setup)
        units = END_TO_END
        n1, n2 = len(run.calls["j1"]), len(run.calls["j2"])
        p50 = [1e3 * statistics.median(seconds_per_point(run, k)) for k in ("j1", "j2")]
        notes = {
            "points_per_s": f"at the p90 of n={n1} calls, JOBS=1 (at the median: "
            f"{1e3 / p50[0]:.6g})",
            "points_per_s_jobs2": f"at the p90 of n={n2} calls, JOBS=2 (at the median: "
            f"{1e3 / p50[1]:.6g})",
            "check_p90_ms": f"per checked point, n={n1} calls (p50 {p50[0]:.6g} ms)",
            "setup_s": f"median of n={len(setup)} fresh interpreters",
            "right_verdict_ratio": f"wrong_verdict_ratio={facts['wrong_verdict_ratio']:.6g} "
            f"({tally.wrong} of {tally.valid} valid points)",
        }
    print(f"circulant4 benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    _print_table(metrics, units, notes)
    print(f"  {'error_ratio':<38} {facts['error_ratio']:>16.6g} {'ratio':<6} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem, times in tally.problems.most_common(10):
        print(f"  output check failed ({times}x): {problem}")
    print("facts " + json.dumps(facts, sort_keys=True))
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def bench_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for workload, trace in itertools.product(WORKLOADS, (0, 1)):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(done.stderr)
            raise BenchError(f"{workload} trace {trace} printed no result")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            merged[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="2^4 and 3^4 grids instead of 4^4 and 9^4, for smoke tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return bench_all(args) if args.workload == "all" else bench_one(args)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
