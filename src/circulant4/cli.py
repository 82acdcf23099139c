"""Command line front end: `circulant4 check` and `circulant4 scan`.

Exit codes: 0 when every requested check passed, 1 when some check failed,
2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .connection import check_tolerance
from .fields import as_point
from .manifolds import ConfigError, ManifoldSpec, example_manifold, load_manifold
from .scan import CHECKS, AxisSpec, Report, ScanConfig, render_report, run_check, run_scan

__all__ = ["main", "build_parser"]

_BUILTIN_MANIFOLDS = {"example": example_manifold}


class CliError(Exception):
    """A usage or configuration problem, reported on stderr with exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant4",
        description="Verify circulant-metric manifold structure pointwise or over a grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--manifold",
            required=True,
            help="built-in name ('example') or path to a manifold config file",
        )
        p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    check = sub.add_parser("check", help="run every check at one point")
    common(check)
    check.add_argument(
        "--point", required=True, help="four comma separated coordinates, e.g. 1,0.1,2,0.2"
    )

    scan = sub.add_parser("scan", help="run checks over a rectangular grid")
    common(scan)
    scan.add_argument(
        "--box",
        required=True,
        help="per-axis start:stop:count, comma separated, e.g. 0:1:3,0:1:3,2:2:1,0:1:2",
    )
    scan.add_argument(
        "--checks",
        default=",".join(CHECKS),
        help=f"comma separated subset of {{{','.join(CHECKS)}}}",
    )
    return parser


def _resolve_manifold(ref: str) -> ManifoldSpec:
    if ref in _BUILTIN_MANIFOLDS:
        return _BUILTIN_MANIFOLDS[ref]()
    path = Path(ref)
    if path.exists():
        try:
            return load_manifold(path)
        except ConfigError as exc:
            raise CliError(f"config {path}: {exc}") from exc
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
    raise CliError(f"unknown manifold {ref!r} (not a built-in name or existing file)")


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--point needs 4 comma separated values, got {len(parts)}")
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise CliError(f"bad point {text!r}: {exc}") from exc


def _parse_box(text: str) -> tuple[AxisSpec, ...]:
    groups = text.split(",")
    if len(groups) != 4:
        raise CliError(f"--box needs 4 comma separated axes, got {len(groups)}")
    axes = []
    for k, group in enumerate(groups, start=1):
        pieces = group.split(":")
        if len(pieces) != 3:
            raise CliError(f"axis {k}: expected start:stop:count, got {group!r}")
        try:
            axes.append(AxisSpec(float(pieces[0]), float(pieces[1]), int(pieces[2])))
        except ValueError as exc:
            raise CliError(f"axis {k}: {exc}") from exc
    return tuple(axes)


def _execute(args) -> Report:
    manifold = _resolve_manifold(args.manifold)
    try:
        # the library rejects bad inputs with ValueError; here they exit 2
        check_tolerance(args.tol, "--tol")
        if args.command == "check":
            point = as_point(_parse_point(args.point))
        else:
            checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
            config = ScanConfig(_parse_box(args.box), checks, args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.command == "check":
        return run_check(manifold, point, tolerance=args.tol)
    return run_scan(manifold, config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _execute(args)
        text = render_report(report, args.format)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
