"""Reports, grid scans, rendering determinism and the CLI contract."""

import json
import os
import platform
import tracemalloc
import warnings

import numpy as np
import pytest

from circulant4 import (
    ManifoldSpec,
    ScalarField,
    SingularMetricError,
    __version__,
    christoffel,
    christoffel_partials,
    curvature_q_commutation_residual,
    example_manifold,
    full_system_residuals,
    gradient_condition_residuals,
    load_manifold,
    max_curvature_q_invariance_residual,
    metric_partials,
    nabla_q,
    parallelism_verdict,
    parse_field,
    riemann,
    riemann_lowered,
)
from circulant4.cli import main
from circulant4.fields import MAX_EXPONENT
from circulant4.manifolds import MAX_CONFIG_BYTES
from circulant4.scan import (
    CHECKS,
    CHUNK_SIZE,
    MAX_POINTS,
    VALIDITY_CHUNK_SIZE,
    AxisSpec,
    ScanConfig,
    evaluate_point,
    render_report,
    run_check,
    run_scan,
)

from helpers import (
    REPO_ROOT, grid_points, near_singular_manifold, nonflat_parallel_manifold, run_cli, run_python,
)

P0 = (1.0, 0.1, 2.0, 0.2)
CUBIC = os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg")

# every corner is valid; used when a fully green report is wanted
GOOD_AXES = (
    AxisSpec(0.8, 1.2, 2),
    AxisSpec(0.0, 0.2, 2),
    AxisSpec(1.8, 2.2, 2),
    AxisSpec(0.1, 0.3, 2),
)
GOOD_BOX = "0.8:1.2:2,0:0.2:2,1.8:2.2:2,0.1:0.3:2"

# two valid corners out of eight, six skips with two distinct reasons
MIXED_AXES = (
    AxisSpec(-1.0, 1.0, 2),
    AxisSpec(-1.0, 1.0, 2),
    AxisSpec(2.0, 2.0, 1),
    AxisSpec(0.0, 0.5, 2),
)
MIXED_BOX = "-1:1:2,-1:1:2,2:2:1,0:0.5:2"


def test_axis_spec():
    assert np.array_equal(AxisSpec(0.0, 1.0, 3).values(), np.linspace(0, 1, 3))
    assert np.array_equal(AxisSpec(2.0, 2.0, 1).values(), [2.0])
    with pytest.raises(ValueError):
        AxisSpec(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        AxisSpec(0.0, 1.0, 0)
    # bool is an int, but not a count
    with pytest.raises(ValueError, match="positive integer"):
        AxisSpec(0.0, 1.0, True)
    with pytest.raises(ValueError):
        AxisSpec(float("nan"), 1.0, 2)
    # the span overflows, so linspace would give inf and NaN
    with pytest.raises(ValueError, match="span"):
        AxisSpec(-1e308, 1e308, 3)
    # the grid size is checked before anything is allocated
    ScanConfig(tuple(AxisSpec(0.0, 1.0, count) for count in (MAX_POINTS, 1, 1, 1)))
    for counts in ((MAX_POINTS + 1, 1, 1, 1), (10**20, 1, 1, 1), (1000, 1000, 1000, 1000)):
        with pytest.raises(ValueError, match="MAX_POINTS"):
            ScanConfig(tuple(AxisSpec(0.0, 1.0, count) for count in counts))


def test_numpy_tolerance_gives_python_bools():
    # numpy float tolerance made each pass flag a numpy bool, which no
    # writer could index its texts by
    report = run_check(example_manifold(), P0, tolerance=np.float64(1e-8))
    assert render_report(report, "csv") == render_report(run_check(example_manifold(), P0), "csv")
    assert type(report.meta["tolerance"]) is float
    record = evaluate_point(example_manifold(), P0, tolerance=np.float64(1e-8))
    assert all(type(outcome["passed"]) is bool for outcome in record["checks"].values())


def test_float32_inputs_render():
    # json.dumps refuses a float32 in meta; they are kept as floats
    check = run_check(example_manifold(), P0, tolerance=np.float32(1e-8))
    assert json.loads(render_report(check))["meta"]["tolerance"] == float(np.float32(1e-8))
    axis = AxisSpec(np.float32(0.1), 1.0, 2)
    assert type(axis.start) is float and axis.start == float(np.float32(0.1))
    report = run_scan(example_manifold(), ScanConfig((axis,) + GOOD_AXES[1:], ("validity",)))
    assert json.loads(render_report(report))["meta"]["box"][0]["start"] == axis.start


def test_axis_count_takes_any_integer_but_a_bool():
    axis = AxisSpec(0.0, 1.0, np.int64(3))
    assert axis == AxisSpec(0.0, 1.0, 3) and type(axis.count) is int
    for count in (np.bool_(True), 3.0, "3"):
        with pytest.raises(ValueError, match="positive integer"):
            AxisSpec(0.0, 1.0, count)


def test_int_bounds_and_tolerance_are_written_as_floats():
    # the same text as the CLI, which parses them as floats
    config = ScanConfig(tuple(AxisSpec(0, 1, 2) for _ in range(4)), ("validity",), tolerance=1)
    meta = render_report(run_scan(example_manifold(), config)).split('"summary"')[0]
    assert '"start": 0.0,' in meta and '"stop": 1.0,' in meta and '"tolerance": 1.0,' in meta
    assert '"tolerance": 1.0,' in render_report(run_check(example_manifold(), P0, tolerance=1))


def test_scan_config_normalizes_checks():
    config = ScanConfig(GOOD_AXES, checks=("parallel", "validity"))
    assert config.checks == ("validity", "parallel")
    with pytest.raises(ValueError):
        ScanConfig(GOOD_AXES, checks=("spin",))
    with pytest.raises(ValueError):
        ScanConfig(GOOD_AXES, checks=())
    with pytest.raises(ValueError):
        ScanConfig(GOOD_AXES, tolerance=0.0)
    with pytest.raises(ValueError):
        ScanConfig(GOOD_AXES[:3])


def test_grid_points_are_row_major():
    config = ScanConfig(
        (AxisSpec(0, 1, 2), AxisSpec(5, 5, 1), AxisSpec(7, 7, 1), AxisSpec(0, 1, 2))
    )
    points = [tuple(record["point"]) for record in run_scan(example_manifold(), config).points]
    assert points == [
        (0, 5, 7, 0),
        (0, 5, 7, 1),
        (1, 5, 7, 0),
        (1, 5, 7, 1),
    ]


def test_evaluate_point_record_shape():
    record = evaluate_point(example_manifold(), P0)
    assert list(record) == ["point", "triple", "valid", "reason", "checks"]
    assert record["valid"] is True and record["reason"] is None
    assert list(record["checks"]) == list(CHECKS)
    assert record["checks"]["validity"] == {"passed": True}
    for name in ("parallel", "curvature31", "curvature32"):
        assert record["checks"][name]["passed"] is True
    assert record["checks"]["parallel"]["nabla_q_max"] <= 1e-12
    assert record["checks"]["curvature31"]["scale"] >= 1.0


def test_evaluate_point_skips_at_invalid_points():
    record = evaluate_point(example_manifold(), (1, 2, 3, 4))
    assert record["valid"] is False
    assert record["reason"] == "C > B violated"
    assert record["checks"]["validity"] == {"passed": False}
    assert record["checks"]["parallel"] is None
    assert record["checks"]["curvature31"] is None


def test_evaluate_point_check_subset():
    record = evaluate_point(example_manifold(), P0, checks=("validity",))
    assert list(record["checks"]) == ["validity"]


def test_evaluate_point_reports_errors():
    # valid ordering but a numerically degenerate metric: the failure is
    # reported in the record instead of aborting the scan
    record = evaluate_point(near_singular_manifold(), (1.0, 0.0, 0.0, 0.0))
    assert record["valid"] is True
    outcome = record["checks"]["parallel"]
    assert outcome["passed"] is False
    assert "degenerate" in outcome["error"]


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_evaluate_point_rejects_unusable_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        evaluate_point(example_manifold(), P0, tolerance=tol)


def test_run_check_single_point():
    report = run_check(example_manifold(), P0)
    assert report.meta["kind"] == "check"
    assert report.meta["point"] == list(P0)
    assert len(report.points) == 1
    assert report.all_passed
    with pytest.raises(ValueError):
        run_check(example_manifold(), P0, checks=())
    with pytest.raises(ValueError):
        run_check(example_manifold(), P0, tolerance=-1.0)
    ordered = run_check(example_manifold(), P0, checks=("parallel", "validity"))
    assert ordered.meta["checks"] == ["validity", "parallel"]


def test_scan_good_grid():
    report = run_scan(example_manifold(), ScanConfig(GOOD_AXES))
    assert report.summary["points"] == 16
    assert report.summary["valid_points"] == 16
    assert report.all_passed
    assert report.summary["checks"]["parallel"]["max_residual"] <= 1e-12
    assert report.meta["box"][0] == {"start": 0.8, "stop": 1.2, "count": 2}


def test_scan_mixed_grid_counts():
    report = run_scan(example_manifold(), ScanConfig(MIXED_AXES))
    summary = report.summary
    assert summary["points"] == 8
    assert summary["valid_points"] == 2
    assert summary["checks"]["validity"] == {"passed": 2, "failed": 6}
    assert summary["checks"]["parallel"]["skipped"] == 6
    assert not report.all_passed
    reasons = [r["reason"] for r in report.points]
    assert reasons == ["C > B violated"] * 4 + ["B > 0 violated"] * 2 + [None] * 2


def test_scan_without_validity_ignores_invalid_points():
    config = ScanConfig(MIXED_AXES, checks=("parallel",))
    report = run_scan(example_manifold(), config)
    assert report.summary["checks"]["parallel"]["skipped"] == 6
    # nothing evaluated failed, so the scan as a whole passes
    assert report.all_passed


def test_scan_records_match_run_check():
    config = ScanConfig(GOOD_AXES)
    report = run_scan(example_manifold(), config)
    for point, record in zip(grid_points(config.axes), report.points):
        single = run_check(example_manifold(), point)
        assert single.points[0] == record


def test_render_json_round_trips():
    report = run_scan(example_manifold(), ScanConfig(MIXED_AXES))
    text = render_report(report)
    assert text.endswith("\n")
    assert json.loads(text) == report.to_mapping()
    assert render_report(report) == text
    again = render_report(run_scan(example_manifold(), ScanConfig(MIXED_AXES)))
    assert again == text
    with pytest.raises(ValueError):
        render_report(report, fmt="xml")


def test_render_csv_shape():
    report = run_scan(example_manifold(), ScanConfig(MIXED_AXES))
    lines = render_report(report, fmt="csv").splitlines()
    assert len(lines) == 9
    assert lines[0] == (
        "x1,x2,x3,x4,A,B,C,valid,reason,"
        "parallel_passed,parallel_max_residual,"
        "curvature31_passed,curvature31_residual,"
        "curvature32_passed,curvature32_residual"
    )
    check = run_check(example_manifold(), (1, 2, 3, 4))
    line = render_report(check, fmt="csv").splitlines()[1]
    assert line == "1.0,2.0,3.0,4.0,30.0,24.0,22.0,false,C > B violated,,,,,,"


def test_cli_check_passes(capsys):
    code = main(["check", "--manifold", "example", "--point", "1,0.1,2,0.2"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["kind"] == "check"
    assert payload["summary"]["all_passed"] is True


def test_cli_check_invalid_point_fails(capsys):
    code = main(["check", "--manifold", "example", "--point", "1,1,1,1"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    record = payload["points"][0]
    assert record["reason"] == "excluded locus (x,x,x,x)"
    assert record["checks"]["parallel"] is None


def test_cli_usage_errors(capsys):
    cases = [
        ["check", "--manifold", "example", "--point", "1,2"],
        ["check", "--manifold", "nosuch", "--point", "1,0.1,2,0.2"],
        ["check", "--manifold", "example", "--point", "a,b,c,d"],
        ["check", "--manifold", "example", "--point", "1,0.1,2,0.2", "--tol", "-1"],
        ["scan", "--manifold", "example", "--box", "0:1:2"],
        ["scan", "--manifold", "example", "--box", GOOD_BOX, "--checks", "spin"],
        ["scan", "--manifold", "example", "--box=-1e308:1e308:3,0:1:1,0:1:1,0:1:1"],
        ["scan", "--manifold", "example", "--box", "0:1:100000000000000000000,0:1:1,0:1:1,0:1:1"],
        ["scan", "--manifold", "example", "--box", "0:1:1000,0:1:1000,0:1:1000,0:1:1000"],
        ["scan", "--manifold", "example", "--box", "0:1,0:1:1,0:1:1,0:1:1"],
        ["scan", "--manifold", "example", "--box", "0:1:2.5,0:1:1,0:1:1,0:1:1"],
    ]
    for argv in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")




def test_cli_config_file_manifold(tmp_path, capsys):
    config = tmp_path / "shifted.cfg"
    config.write_text("A = x1^2 + 6\nB = 1\nC = 3\n", encoding="utf-8")
    # the gradient conditions hold at the critical point of A but nowhere
    # around it, so the pointwise parallel check passes while the curvature
    # identities, which see the neighborhood, do not
    code = main(["check", "--manifold", str(config), "--point", "0,0,0,0"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["meta"]["manifold"] == "shifted"
    checks = payload["points"][0]["checks"]
    assert checks["parallel"]["passed"] is True
    assert checks["curvature31"]["passed"] is False
    assert checks["curvature31"]["residual"] > 0.5

    # away from the critical point even the pointwise check fails
    assert main(["check", "--manifold", str(config), "--point", "1,0,0,0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"][0]["checks"]["parallel"]["passed"] is False

    bad = tmp_path / "bad.cfg"
    bad.write_text("A = x9\nB = 1\nC = 3\n", encoding="utf-8")
    assert main(["check", "--manifold", str(bad), "--point", "0,0,0,0"]) == 2
    assert "unknown identifier" in capsys.readouterr().err


def test_cli_check_follows_an_edited_config(tmp_path, capsys):
    config = tmp_path / "edited.cfg"
    argv = ["check", "--manifold", str(config), "--point", "1,0,0,0"]
    config.write_text("A = 7*x1 + 6\nB = 1\nC = 3\n", encoding="utf-8")
    before = config.stat()
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["points"][0]["triple"]["A"] == 13.0
    config.write_text("A = x1^2 + 6\nB = 1\nC = 3\n", encoding="utf-8")
    # the same size and modification time: only the bytes differ
    os.utime(config, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert config.stat().st_size == before.st_size
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["points"][0]["triple"]["A"] == 7.0


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "check",
            "--manifold",
            "example",
            "--point",
            "1,0.1,2,0.2",
            "--out",
            str(target),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["summary"]["all_passed"] is True

    unwritable = tmp_path / "missing" / "report.json"
    assert (
        main(
            [
                "check",
                "--manifold",
                "example",
                "--point",
                "1,0.1,2,0.2",
                "--out",
                str(unwritable),
            ]
        )
        == 2
    )
    assert "error:" in capsys.readouterr().err


def test_cli_csv_format(capsys):
    # a box whose first bound is negative must be spelled --box=... so the
    # parser does not mistake the value for an option
    code = main(
        [
            "scan",
            "--manifold",
            "example",
            "--box=" + MIXED_BOX,
            "--format",
            "csv",
            "--checks",
            "validity,parallel",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("x1,x2,x3,x4,")


def test_cli_subprocess_determinism():
    args = ["scan", "--manifold", "example", "--box", GOOD_BOX]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("{")


def test_cli_subprocess_usage_error():
    result = run_cli(["scan", "--manifold", "example"])
    assert result.returncode == 2


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _line_axes(start, stop, count, rest=(0.1, 2.0, 0.2)):
    """A grid of count points along x1, the other coordinates fixed."""
    return (AxisSpec(start, stop, count),) + tuple(AxisSpec(x, x, 1) for x in rest)


# all checks in chunks of CHUNK_SIZE; validity alone in chunks of
# VALIDITY_CHUNK_SIZE, so its last two counts straddle that boundary and
# 1023 and 1025 fill one chunk in part. 63 and 65 straddle
# _SHARED_TEXTS_FROM = 64, from which a chunk writes each distinct triple
# component and residual once
_CHUNKING_CASES = [
    pytest.param(manifold, count, CHECKS, id=f"{name}-{count}")
    for name, manifold in (("example", example_manifold()), ("cubic", nonflat_parallel_manifold()))
    for count in (1, 63, 65, CHUNK_SIZE - 1, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 1)
] + [
    pytest.param(example_manifold(), count, ("validity",), id=f"example-validity-{count}")
    for count in (1023, 1025, VALIDITY_CHUNK_SIZE - 1, VALIDITY_CHUNK_SIZE + 1)
]


@pytest.mark.parametrize("manifold, count, checks", _CHUNKING_CASES)
def test_records_do_not_depend_on_chunking(manifold, count, checks):
    # every record, whether alone, first, inside or last in its chunk, is
    # byte for byte the record of that point evaluated on its own
    config = ScanConfig(_line_axes(0.3, 2.1, count, rest=(0.2, 1.8, 0.3)), checks)
    report = run_scan(manifold, config)
    assert len(report.points) == count
    assert report.summary["valid_points"] >= (count + 1) // 2
    for point, record in zip(grid_points(config.axes), report.points):
        assert json.dumps(record) == json.dumps(evaluate_point(manifold, point, checks))


# tracemalloc peak bytes per point of run_scan plus render_report for a
# validity-only CSV scan of example when every record was a dict (Python
# 3.11, numpy 2.4); the columns must keep below half of it
_RECORD_DICT_PEAK_PER_POINT = {6: 1263, 9: 1221}


@pytest.mark.parametrize("count, start, stop", [(6, -1.0, 1.5), (9, 0.5, 2.0)])
def test_validity_scan_peak_memory_per_point(count, start, stop):
    manifold = example_manifold()
    config = ScanConfig(tuple(AxisSpec(start, stop, count) for _ in range(4)), ("validity",))
    render_report(run_scan(manifold, config), "csv")  # compiles the fields
    tracemalloc.start()
    try:
        render_report(run_scan(manifold, config), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count**4 < _RECORD_DICT_PEAK_PER_POINT[count] / 2


# tracemalloc peak of run_scan plus render_report for the all-check JSON
# scan of the 4^4 cubic grid, the benchmark's scan-cubic (Python 3.11,
# numpy 2.4): 0.94 MB in chunks of 64 points and 2.70 MB in one chunk of
# 256 with the out-of-place curvature stages, 2.00 MB in one chunk of 256
# with the stages formed in place, 2.00 MB (1 997 120 B) with d Gamma, R
# and the lowered R in one block, and 1.75 MB (1 753 990 B) since a pass
# forms no d Gamma. The 157 valid points' block of the lowered R, R and
# the gaps' scratch (3 x 314 KiB) lives through the pass.
_CUBIC_SCAN_PEAK_BYTES = 1_850_000


def test_cubic_all_check_scan_peak_memory():
    manifold = load_manifold(CUBIC)
    config = ScanConfig(tuple(AxisSpec(-1.0, 1.0, 4) for _ in range(4)), CHECKS)
    assert CHUNK_SIZE >= 256  # one chunk: the peak of a full chunk
    render_report(run_scan(manifold, config), "json")  # compiles the fields
    tracemalloc.start()
    try:
        render_report(run_scan(manifold, config), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _CUBIC_SCAN_PEAK_BYTES


# a fresh interpreter runs the all-check JSON scan of the 4^4 cubic grid
# through the CLI, in process, and prints the minor page faults per call
# of the last 20 of 30 calls
_FAULTS_PER_SCAN = """
import io, resource, sys
from contextlib import redirect_stdout
from circulant4.cli import main

argv = ["scan", "--manifold", sys.argv[1], "--box=" + ",".join(["-1:1:4"] * 4),
        "--checks=validity,parallel,curvature31,curvature32", "--format", "json"]

def scan():
    with redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 1)  # a report was written

for _ in range(10):
    scan()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    scan()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_cubic_scans_reuse_their_pages():
    # the curvature stages of a pass and the gaps' scratch are one block;
    # once glibc has freed the first one, its raised thresholds keep later
    # passes in the heap. With a buffer per stage and term, every call
    # mapped and faulted in its ~2 MB again: about 550 faults per call, and
    # with the gaps' scratch apart from a block of two stages, about 290
    # (glibc 2.36)
    result = run_python("-c", _FAULTS_PER_SCAN, CUBIC)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 20


def test_degenerate_point_stays_local_to_its_chunk():
    # near_singular_manifold plus x2: A - C = 1e-13 x1 + x2, so in row-major
    # order the grid holds an invalid point, the degenerate point of
    # test_evaluate_point_reports_errors, another invalid point and a
    # comfortably invertible one
    base = near_singular_manifold()
    manifold = ManifoldSpec("bumped", base.A + ScalarField.coordinate(2), base.B, base.C)
    config = ScanConfig(
        (AxisSpec(1.0, 1e13, 2), AxisSpec(-1.0, 0.0, 2), AxisSpec(0, 0, 1), AxisSpec(0, 0, 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = run_scan(manifold, config).points
    assert [record["valid"] for record in records] == [False, True, False, True]
    degenerate, fine = records[1]["checks"], records[3]["checks"]
    for check in ("parallel", "curvature31", "curvature32"):
        assert degenerate[check]["passed"] is False
        assert "degenerate" in degenerate[check]["error"]
        assert "error" not in fine[check]
    for point, record in zip(grid_points(config.axes), records):
        assert record == evaluate_point(manifold, point)


def test_overflowing_point_is_an_invalid_record_in_its_chunk():
    config = ScanConfig(_line_axes(1.0, 1e200, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_scan(example_manifold(), config)
    finite, overflow = report.points
    assert finite == evaluate_point(example_manifold(), P0)
    assert overflow["valid"] is False
    assert overflow["reason"] == "A is not finite"
    assert overflow["triple"]["A"] is None
    assert overflow["checks"]["validity"] == {"passed": False}
    assert all(overflow["checks"][c] is None for c in CHECKS[1:])
    _strict_json(render_report(report))
    row = render_report(report, fmt="csv").splitlines()[2]
    assert row.startswith("1e+200,0.1,2.0,0.2,,3e+199,4e+200,false,A is not finite,")


def test_cli_check_overflow_is_a_clean_failure(capsys):
    code = main(["check", "--manifold", "example", "--point", "1e200,0.1,2,0.2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    record = _strict_json(captured.out)["points"][0]
    assert record["valid"] is False
    assert record["reason"] == "A is not finite"
    assert record["triple"] == {"A": None, "B": 3e199, "C": 4e200}
    assert all(record["checks"][c] is None for c in CHECKS[1:])


@pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "0"])
@pytest.mark.parametrize(
    "command",
    [
        ["check", "--manifold", "example", "--point", "1,0.1,2,0.2"],
        ["scan", "--manifold", "example", "--box", GOOD_BOX],
    ],
)
def test_cli_rejects_non_finite_tolerance(capsys, command, tol):
    assert main(command + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol must be positive and finite")


@pytest.mark.parametrize("point", ["nan,0,0,0", "inf,1,2,3", "1e400,0,0,0"])
def test_cli_rejects_non_finite_point(capsys, point):
    assert main(["check", "--manifold", "example", "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point coordinates must be finite\n"


def test_report_version_is_the_package_version():
    assert run_check(example_manifold(), P0).meta["version"] == __version__


@pytest.mark.parametrize(
    "entry",
    [
        lambda checks: ScanConfig(GOOD_AXES, checks=checks).checks,
        lambda checks: tuple(run_check(example_manifold(), P0, checks=checks).meta["checks"]),
        lambda checks: tuple(evaluate_point(example_manifold(), P0, checks=checks)["checks"]),
    ],
    ids=["ScanConfig", "run_check", "evaluate_point"],
)
def test_entry_points_share_one_rule_for_check_names(entry):
    assert entry(("curvature32", "validity", "parallel", "validity")) == (
        "validity",
        "parallel",
        "curvature32",
    )
    with pytest.raises(ValueError, match="unknown checks: spin"):
        entry(("spin",))
    with pytest.raises(ValueError, match="unknown checks: spin"):
        entry(("validity", "spin"))
    with pytest.raises(ValueError, match="at least one check is required"):
        entry(())


# the triple stays small where x1 = x2, but from x1 = 10.42 on the
# Hessian of A overflows and from 10.54 on its gradient does too
STEEP_A = "x1^300 - x2^300 + 10"


def _field_manifold(field):
    """A = field, B = 1, C = 3; the example manifold for None."""
    if field is None:
        return example_manifold()
    return ManifoldSpec("field", parse_field(field), parse_field("1"), parse_field("3"))


def _main_strictly(argv, capsys):
    """Exit code and strict-JSON report of main, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, _strict_json(captured.out)


# valid points where a check has an error instead of residuals: the field A
# (None for the example manifold), the point and the error of each geometry
# check, None where it has residuals
NON_FINITE_CASES = [
    # finite and valid, but d = inf - inf is NaN
    (None, "1e100,1e99,2e100,2e99", ["degenerate"] * 3),
    (STEEP_A, "10.6,10.6,0,0", ["gradient of A is not finite"] * 3),
    (STEEP_A, "10.5,10.5,0,0", [None] + ["Hessian of A is not finite"] * 2),
    # finite jets, but Gamma Gamma overflows in R, or Gamma itself does
    ("1e200*x1 + 10", "0,0,0,0", [None] + ["curvature is not finite"] * 2),
    ("1.5e308*x1 + 10", "0,0,0,0", ["parallel residuals"] + ["curvature"] * 2),
    # the triple is about (3.9e307, 1, 3), positive definite, but d overflows
    (STEEP_A, "10.6,1,0,0", ["overflowing closed-form inverse (d = inf)"] * 3),
    # the coefficients of the derivatives overflow when the field is compiled
    ("1e308*x1^3 + 10", "1e-70,0,0,0", ["gradient of A is not finite"] * 3),
]


@pytest.mark.parametrize("field, point, expected", NON_FINITE_CASES)
def test_cli_check_non_finite_values_are_errors(tmp_path, capsys, field, point, expected):
    manifold = "example"
    if field is not None:
        manifold = str(tmp_path / "field.cfg")
        (tmp_path / "field.cfg").write_text(f"A = {field}\nB = 1\nC = 3\n")
    code, report = _main_strictly(["check", "--manifold", manifold, "--point", point], capsys)
    assert code == 1
    record = report["points"][0]
    assert record["valid"] is True
    for check, error in zip(CHECKS[1:], expected):
        outcome = record["checks"][check]
        assert outcome["passed"] is False
        if error is None:
            assert "error" not in outcome
        else:
            assert error in outcome["error"]
            assert report["summary"]["checks"][check]["max_residual"] is None


def test_non_finite_derivatives_stay_local_to_their_chunk():
    # in row-major order: an ordinary valid point, an invalid one, one whose
    # triple is so large that d overflows, and one whose gradient overflows
    manifold = _field_manifold(STEEP_A)
    config = ScanConfig(
        (AxisSpec(1.0, 10.6, 2), AxisSpec(1.0, 10.6, 2), AxisSpec(0, 0, 1), AxisSpec(0, 0, 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_scan(manifold, config)
        singles = [evaluate_point(manifold, point) for point in grid_points(config.axes)]
    ordinary, invalid, huge, steep = report.points
    assert list(report.points) == singles
    assert invalid["valid"] is False
    assert ordinary["valid"] is True
    for check in CHECKS[1:]:
        assert "error" not in ordinary["checks"][check]
        assert "overflowing closed-form inverse (d = inf)" in huge["checks"][check]["error"]
        assert steep["checks"][check]["error"] == "gradient of A is not finite"
    _strict_json(render_report(report))


# each per-point function and the check whose record error it raises
PER_POINT_VIEWS = (
    (christoffel, "parallel"),
    (nabla_q, "parallel"),
    (parallelism_verdict, "parallel"),
    (christoffel_partials, "curvature31"),
    (riemann, "curvature31"),
    (riemann_lowered, "curvature31"),
    (max_curvature_q_invariance_residual, "curvature31"),
    (curvature_q_commutation_residual, "curvature32"),
)


@pytest.mark.parametrize("field, point", [(field, point) for field, point, _ in NON_FINITE_CASES])
def test_per_point_functions_raise_the_error_of_the_record(field, point, capfd):
    manifold = _field_manifold(field)
    p = [float(x) for x in point.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = evaluate_point(manifold, p)
        for function, check in PER_POINT_VIEWS:
            error = record["checks"][check].get("error")
            if error is None:
                function(manifold, p)
                continue
            with pytest.raises(ValueError) as raised:
                function(manifold, p)
            assert str(raised.value) == error
            assert isinstance(raised.value, SingularMetricError) == ("metric" in error)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "field, point, error",
    [
        (STEEP_A, "10.6,10.6,0,0", "gradient of A is not finite"),
        (STEEP_A, "11,0,0,0", "A is not finite"),
        ("1e308*x1^3 + 10", "1e-70,0,0,0", "gradient of A is not finite"),
        # the record names the overflowing inverse, which these views do not need
        (STEEP_A, "10.6,1,0,0", "gradient of A is not finite"),
        # a degenerate metric at finite gradients still has residuals
        (None, "1e100,1e99,2e100,2e99", None),
    ],
)
def test_gradient_views_raise_where_a_gradient_is_not_finite(field, point, error):
    manifold = _field_manifold(field)
    p = [float(x) for x in point.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function in (metric_partials, gradient_condition_residuals, full_system_residuals):
            if error is None:
                result = function(manifold, p)
                values = result if isinstance(result, np.ndarray) else list(result.as_dict().values())
                assert np.isfinite(values).all()
                continue
            with pytest.raises(ValueError) as raised:
                function(manifold, p)
            assert str(raised.value) == error


@pytest.mark.parametrize(
    "content, fragment",
    [
        # not UTF-8
        (b"\xff\xfeA = x1\n", "cannot read"),
        # refused while parsing, before anything is expanded
        (b"A = x1^100000000\nB = 1\nC = 3\n", "exponent too large"),
        (f"A = x1^{MAX_EXPONENT + 1}\nB = 1\nC = 3\n".encode(), "exponent too large"),
        (b"A = (x1 + x2 + x3 + x4)^300\nB = 1\nC = 3\n", "expansion too large"),
        (b"A = 1e400 - 1e400\nB = 1\nC = 3\n", "literal out of range"),
        # deep nesting and long products are refused, not a RecursionError or a slow scan
        (b"A = " + b"(" * 200 + b"x1+10" + b")" * 200 + b"\nB = 1\nC = 3\n", "nested too deeply"),
        (b"A = " + b"*".join([b"x1"] * 1001) + b"\nB = 1\nC = 3\n", "degree too large"),
    ],
)
def test_cli_unusable_config_exits_2(tmp_path, capsys, content, fragment):
    config = tmp_path / "bin.cfg"
    config.write_bytes(content)
    assert main(["check", "--manifold", str(config), "--point", "1,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err
    assert str(config) in captured.err


def test_cli_refuses_a_config_past_the_size_bound(tmp_path, capsys):
    body = b"A = 6\nB = 1\nC = 3\n#"
    config = tmp_path / "padded.cfg"
    config.write_bytes(body + b"#" * (MAX_CONFIG_BYTES - len(body)))
    assert main(["check", "--manifold", str(config), "--point", "1,0,0,0"]) == 0
    capsys.readouterr()
    config.write_bytes(body + b"#" * (MAX_CONFIG_BYTES + 1 - len(body)))
    assert main(["check", "--manifold", str(config), "--point", "1,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config {config}: larger than {MAX_CONFIG_BYTES} bytes\n"
