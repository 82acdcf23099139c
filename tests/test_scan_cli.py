"""Reports, grid scans, rendering determinism and the CLI contract."""

import json
import warnings

import numpy as np
import pytest

from circulant4 import (
    ManifoldSpec,
    ScalarField,
    SingularMetricError,
    __version__,
    christoffel,
    example_manifold,
    parallelism_verdict,
    parse_field,
    riemann,
)
from circulant4.cli import main
from circulant4.scan import (
    CHECKS,
    CHUNK_SIZE,
    AxisSpec,
    ScanConfig,
    evaluate_point,
    render_report,
    run_check,
    run_scan,
)

from helpers import grid_points, near_singular_manifold, nonflat_parallel_manifold, run_cli

P0 = (1.0, 0.1, 2.0, 0.2)

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
    with pytest.raises(ValueError):
        AxisSpec(float("nan"), 1.0, 2)


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


@pytest.mark.parametrize("count", [1, CHUNK_SIZE - 1, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 1])
@pytest.mark.parametrize(
    "manifold", [example_manifold(), nonflat_parallel_manifold()], ids=["example", "cubic"]
)
def test_records_do_not_depend_on_chunking(manifold, count):
    # every record, whether alone, first, inside or last in its chunk, is
    # byte for byte the record of that point evaluated on its own
    config = ScanConfig(_line_axes(0.3, 2.1, count, rest=(0.2, 1.8, 0.3)))
    report = run_scan(manifold, config)
    assert len(report.points) == count
    assert report.summary["valid_points"] >= (count + 1) // 2
    for point, record in zip(grid_points(config.axes), report.points):
        assert json.dumps(record) == json.dumps(evaluate_point(manifold, point))


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


@pytest.mark.parametrize(
    "field, point",
    # where the pass itself has no result; the curvature rows overflow later,
    # in the residuals, which only the records check
    [(field, point) for field, point, errors in NON_FINITE_CASES if "curvature" not in errors[2]],
)
def test_per_point_functions_raise_the_error_of_the_record(field, point):
    manifold = _field_manifold(field)
    p = [float(x) for x in point.split(",")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = evaluate_point(manifold, p)
        for function, check in (
            (christoffel, "parallel"),
            (parallelism_verdict, "parallel"),
            (riemann, "curvature31"),
        ):
            error = record["checks"][check].get("error")
            if error is None:
                function(manifold, p)
                continue
            with pytest.raises(ValueError) as raised:
                function(manifold, p)
            assert str(raised.value) == error
            assert isinstance(raised.value, SingularMetricError) == ("metric" in error)
