"""Report bytes: golden reports, pinned digests and the writers against the record-dict oracle."""

import dataclasses
import hashlib
import os

import pytest

from circulant4 import example_manifold, load_manifold, scan
from circulant4.cli import main
from circulant4.scan import AxisSpec, Report, ScanConfig, render_report, run_check, run_scan

from helpers import REPO_ROOT, oracle_render

GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "data", "golden")
CUBIC = os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg")
PERTURBED = os.path.join(REPO_ROOT, "perfbench", "manifolds", "perturbed.cfg")
STEEP = os.path.join(REPO_ROOT, "tests", "data", "steep.cfg")
# a grid through both excluded lines of example, with every ordering
# failure and two valid points
EXAMPLE_BOX = "--box=-1:1:3,-1:1:3,-1:2:4,-1:1:3"

# golden file: (argv, exit code). The files hold the stdout of `main` as
# rendered by json.dumps(indent=2) and the csv module, before the records
# were written from templates; any change to their bytes is a report change.
# example-validity-scan.csv was written by the record-dict writers, before
# scans became columnar and validity-only scans went to chunks of 1024: a
# 6^4 grid (1296 points, two chunks) through both excluded lines of example.
GOLDEN = {
    "cubic-scan.json": (["scan", "--manifold", CUBIC, "--box=-1:1:3,-1:1:3,-1:1:3,-1:1:3"], 1),
    "example-scan.json": (["scan", "--manifold", "example", EXAMPLE_BOX], 1),
    "example-scan.csv": (["scan", "--manifold", "example", EXAMPLE_BOX, "--format", "csv"], 1),
    "example-validity-scan.csv": (
        ["scan", "--manifold", "example", "--box=-1:1.5:6,-1:1.5:6,-1:1.5:6,-1:1.5:6",
         "--checks", "validity", "--format", "csv"],
        1,
    ),
    "example-check.json": (["check", "--manifold", "example", "--point", "1,0.1,2,0.2"], 0),
    "perturbed-check.json": (["check", "--manifold", PERTURBED, "--point", "1,0.1,2,0.2"], 1),
    # an ordinary point, an invalid one, an overflowing inverse and an
    # overflowing gradient; then an overflowing Hessian
    "steep-scan.json": (["scan", "--manifold", STEEP, "--box", "1:10.6:2,1:10.6:2,0:0:1,0:0:1"], 1),
    "steep-check.json": (["check", "--manifold", STEEP, "--point", "10.5,10.5,0,0"], 1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden_bytes(name, capsys):
    argv, code = GOLDEN[name]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(os.path.join(GOLDEN_DIR, name), "rb") as golden:
        assert captured.out.encode("utf-8") == golden.read()


# the two scans of the benchmark (perfbench/run.py), argv as it builds
# them, and the sha256 of their stdout: too large to keep as golden files,
# the exact workloads stay byte-identical all the same
BENCHMARK_SCANS = {
    "scan-cubic": (
        ["scan", "--manifold", CUBIC, "--box=" + ",".join(["-1.0:1.0:4"] * 4),
         "--checks=validity,parallel,curvature31,curvature32", "--format", "json"],
        "a3ba516e39e969d46c9ec9232a32de10f93b93c4aaa4f8f59a4a8b190cba63f4",
    ),
    "scan-validity": (
        ["scan", "--manifold", "example", "--box=" + ",".join(["0.5:2.0:9"] * 4),
         "--checks=validity", "--format", "csv"],
        "009a4c64559c1978b56dda11aa77bc56d79709235792163288ea13428874d912",
    ),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SCANS))
def test_benchmark_scans_match_pinned_digests(name, capsys):
    argv, digest = BENCHMARK_SCANS[name]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest


# the chunk count of each golden scan and pinned digest in chunks of 64
# points. At CHUNK_SIZE = 256, 81 (cubic-scan.json), 108 (example-scan.json)
# and 256 (scan-cubic) points are one chunk each; scan-validity's 6561
# points are a few chunks of VALIDITY_CHUNK_SIZE. In chunks of 64 each
# crosses chunk boundaries, scan-validity about a hundred, and every chunk
# gathers its coordinate texts from the axes anew
_SPLIT_SCANS = {
    "cubic-scan.json": 2,
    "example-scan.json": 2,
    "scan-cubic": 4,
    "scan-validity": 103,
}


@pytest.mark.parametrize("name", sorted(_SPLIT_SCANS))
def test_scans_in_chunks_of_64_give_the_same_bytes(name, capsys, monkeypatch):
    chunks = []
    evaluate = scan._evaluate_chunk

    def evaluate_chunk(manifold, axes, index, *args):
        chunks.append(index.shape[1])
        return evaluate(manifold, axes, index, *args)

    monkeypatch.setattr(scan, "CHUNK_SIZE", 64)
    monkeypatch.setattr(scan, "VALIDITY_CHUNK_SIZE", 64)
    monkeypatch.setattr(scan, "_evaluate_chunk", evaluate_chunk)
    if name in GOLDEN:
        argv, code = GOLDEN[name]
        with open(os.path.join(GOLDEN_DIR, name), "rb") as golden:
            expected = hashlib.sha256(golden.read()).hexdigest()
    else:
        (argv, expected), code = BENCHMARK_SCANS[name], 1
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == expected
    assert len(chunks) == _SPLIT_SCANS[name] and max(chunks) == 64


def _scan(manifold, box, checks):
    axes = tuple(AxisSpec(float(a), float(b), int(n)) for a, b, n in (g.split(":") for g in box.split(",")))
    return run_scan(manifold, ScanConfig(axes, checks))


_ALL = ("validity", "parallel", "curvature31", "curvature32")
# report name -> a function building it; together they hold every record
# shape: valid with results, invalid, a null triple component, an error
# outcome of each geometry check, and check subsets
_SHAPES = {
    "check-valid": lambda: run_check(example_manifold(), (1.0, 0.1, 2.0, 0.2)),
    "check-invalid": lambda: run_check(example_manifold(), (1.0, 1.0, 1.0, 1.0)),
    "check-steep-errors": lambda: run_check(load_manifold(STEEP), (10.5, 10.5, 0.0, 0.0)),
    # a meta string json must escape: a line break, quotes, a backslash,
    # a non-ASCII and a control character, through the indented meta
    "check-escaped-name": lambda: run_check(
        dataclasses.replace(example_manifold(), name='a\n"b" \\ é \x01'), (1.0, 0.1, 2.0, 0.2)
    ),
    "cubic-all": lambda: _scan(load_manifold(CUBIC), "-1:1:3,-1:1:3,-1:1:2,-1:1:2", _ALL),
    "example-invalid": lambda: _scan(example_manifold(), EXAMPLE_BOX[6:], _ALL),
    "example-null-triple": lambda: _scan(example_manifold(), "-1e200:1:3,0:1:3,0:1:2,0:1:2", _ALL),
    "example-null-triple-validity": lambda: _scan(
        example_manifold(), "-1e200:1:3,0:1:3,0:1:2,0:1:2", ("validity",)
    ),
    "steep-errors": lambda: _scan(load_manifold(STEEP), "1:10.6:2,1:10.6:2,0:0:1,0:0:1", _ALL),
    "steep-parallel": lambda: _scan(load_manifold(STEEP), "1:10.6:3,1:10.6:3,0:1:2,0:0:1", ("parallel",)),
    "steep-curvature32": lambda: _scan(
        load_manifold(STEEP), "1:10.6:3,1:10.6:3,0:1:2,0:0:1", ("curvature32",)
    ),
    "perturbed-curvature31": lambda: _scan(
        load_manifold(PERTURBED), "0.5:2:3,0.5:2:3,0.5:2:3,0.5:2:3", ("curvature31",)
    ),
    "perturbed-validity-parallel": lambda: _scan(
        load_manifold(PERTURBED), "0.5:2:3,0.5:2:3,0.5:2:3,0.5:2:3", ("validity", "parallel")
    ),
    # 256 points in one chunk, enough for the writers to share the text of
    # repeated values; x1 holds both -0.0 and 0.0, which must stay apart
    "example-signed-zeros": lambda: _scan(
        example_manifold(), "-0.0:-0.0:2,-1:1:8,0.5:2:4,-1:1:4", ("validity",)
    ),
    # coordinates written from the axes' texts: np.linspace ends an axis on
    # its stop, here -0.0, and x2 holds 0.0
    "example-negative-zero-axis": lambda: _scan(
        example_manifold(), "-1:-0.0:3,-1:1:3,0.5:2:2,-0.0:-0.0:2", ("validity",)
    ),
    "empty": Report,
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_writers_match_the_record_dict_oracle(name, fmt):
    report = _SHAPES[name]()
    assert render_report(report, fmt) == oracle_render(report, fmt)


def test_oracle_reports_hold_every_record_shape():
    # the reports above are not vacuous: every outcome shape occurs
    shapes = set()
    for name, build in _SHAPES.items():
        for record in build().points:
            shapes.add(("reason", record["reason"] is not None))
            shapes.add(("null triple", None in record["triple"].values()))
            for check, outcome in record["checks"].items():
                if outcome is None:
                    shapes.add((check, "skipped"))
                elif "error" in outcome:
                    shapes.add((check, "error"))
                else:
                    shapes.add((check, outcome["passed"]))
    for check in _ALL[1:]:
        assert {(check, "skipped"), (check, "error"), (check, True), (check, False)} <= shapes
    assert {("validity", True), ("validity", False)} <= shapes
    assert {("reason", True), ("null triple", True)} <= shapes


def test_reports_compare_by_content_and_refuse_record_dicts():
    point = (1.0, 0.1, 2.0, 0.2)
    report = run_check(example_manifold(), point)
    assert report == run_check(example_manifold(), point)
    assert report != run_check(example_manifold(), (1.0, 1.0, 1.0, 1.0))
    # a report holds the columns of the pass, not record dicts
    with pytest.raises(TypeError):
        Report(report.meta, report.points, report.summary)
