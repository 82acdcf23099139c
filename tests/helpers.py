"""Shared test fixtures: point sampling, manifold corpora, a CLI runner."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

from circulant4 import ManifoldSpec, ScalarField, example_manifold

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

# evaluates at every valid point but pins the interesting residuals away
# from zero; used whenever a test must not be vacuous
PERTURBED_BASE_POINT = (1.0, 0.1, 2.0, 0.2)


def sample_valid_points(manifold, count, rng, low=-3.0, high=3.0, max_draws=100_000):
    """Rejection-sample `count` domain-valid points from the box [low, high]^4."""
    points = []
    for _ in range(max_draws):
        p = rng.uniform(low, high, size=4)
        if manifold.domain_valid(p):
            points.append(p)
            if len(points) == count:
                return points
    raise RuntimeError(f"found only {len(points)} of {count} valid points")


# the 108 points of a grid whose jets are edge cases: -0.0 beside 0.0,
# powers that overflow (1e155 squared, 1e308 cubed) and 1.5 on three axes
JET_EDGE_POINTS = np.array(
    list(
        itertools.product(
            (-0.0, 0.0, 1.5),
            (1e155, -1e155, 1e308, 0.75),
            (1.5, -2.25, 0.5),
            (0.1, 1.5, -0.0),
        )
    )
)


def grid_points(axes):
    """The points of a scan grid in row-major order (last axis fastest)."""
    return list(itertools.product(*(axis.values() for axis in axes)))


def random_polynomial(rng, degree=2, terms=3, scale=1.0):
    """A small random polynomial with no constant term."""
    out = {}
    for _ in range(terms):
        exps = [0, 0, 0, 0]
        for _ in range(int(rng.integers(1, degree + 1))):
            exps[int(rng.integers(0, 4))] += 1
        coeff = float(rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0)) * scale)
        key = tuple(exps)
        out[key] = out.get(key, 0.0) + coeff
    return ScalarField(out)


def exact_central_difference(evaluate, point, h=Fraction(1, 2**30)):
    """(evaluate(p + h e_m) - evaluate(p - h e_m)) / 2h for m = 1..4, stacked first, in Fractions.

    evaluate maps a list of Fraction points to an (N, ...) array. Exact but
    for the O(h^2) of the difference itself, and independent of any formula
    for the derivative.
    """
    p = [Fraction(x) for x in point]
    steps = [
        [x + sign * h * (i == m) for i, x in enumerate(p)] for m in range(4) for sign in (1, -1)
    ]
    at = evaluate(steps)
    at = at.reshape(4, 2, *at.shape[1:])
    return (at[:, 0] - at[:, 1]) / (2 * h)


def perturbed_example(rng, scale=0.3, name="perturbed"):
    """The example manifold with one coefficient field randomly bumped.

    A non-constant bump to any single field breaks the gradient conditions,
    so these manifolds are the negative half of every classification test.
    """
    base = example_manifold()
    target = int(rng.integers(0, 3))
    bump = random_polynomial(rng, degree=2, terms=3, scale=scale)
    fields = [base.A, base.B, base.C]
    fields[target] = fields[target] + bump
    return ManifoldSpec(name, fields[0], fields[1], fields[2], base.excluded_loci)


def perturbed_example_fixed():
    """A + x1: the smallest deterministic way to break parallelism."""
    base = example_manifold()
    return ManifoldSpec(
        "perturbed-fixed",
        base.A + ScalarField.coordinate(1),
        base.B,
        base.C,
        base.excluded_loci,
    )


def nonflat_parallel_manifold():
    """Cubic coefficients keeping q parallel while the curvature is nonzero.

    Writing u = x1 + x3, v = x2 + x4, s = x1 - x3, w = x2 - x4, any pair
    (h, b) with grad-interchange symmetry in (u, v) plus any k(s, w) gives
    A = h - k, B = b, C = h + k satisfying the gradient conditions. The
    quadratic example is the flat member of this family; the cubic h and
    the mixed k below leave |R| of order 0.1 on the sampled region.
    """
    x1, x2, x3, x4 = (ScalarField.coordinate(i) for i in (1, 2, 3, 4))
    u = x1 + x3
    v = x2 + x4
    s = x1 - x3
    w = x2 - x4
    h = u**3 * (1 / 6) + u * v**2 * 0.5
    b = u**2 * v * 0.5 + v**3 * (1 / 6)
    k = s * w * (-1.0) - (s**2 + w**2) * 0.5
    return ManifoldSpec("nonflat", A=h - k + 6.0, B=b + 1.0, C=h + k + 3.0)


def near_singular_manifold():
    """Valid ordering with A - C far below the degeneracy cutoff."""
    return ManifoldSpec(
        "nearsingular",
        A=ScalarField.constant(2.0) + ScalarField.coordinate(1) * 1e-13,
        B=ScalarField.constant(1.0),
        C=ScalarField.constant(2.0),
    )


# every construct the expression grammar supports, round-trip tested
PARSER_CORPUS = (
    "0",
    "1",
    "-1",
    "x1",
    "-x1",
    "x1 + x2",
    "x1 - x2",
    "2*x1*x2",
    "x1^2 + x2^2 + x3^2 + x4^2",
    "x1*x2 + x2*x3 + x1*x4 + x3*x4",
    "2*x1*x3 + 2*x2*x4",
    "(x1 + x2)^2",
    "x1^3 - 3*x1*x2^2",
    "1/2 * x1",
    "-1/4*x2^2",
    "0.5*x1 - 0.25",
    "1e-3*x4",
    "2.5e2",
    "x1*(x2 + x3)*(x2 - x3)",
    "((x1))",
    "x1^0",
    "3 - x1 - x2 - 1/3",
)


def run_python(*args):
    """Run the Python interpreter in a subprocess with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(args):
    """Run the CLI in a subprocess with src/ importable."""
    return run_python("-m", "circulant4", *args)


# the report writers as they were when every record was a dict: json.dumps
# for JSON, and for CSV the cells of each record through the csv module
ORACLE_CSV_COLUMNS = (
    "x1", "x2", "x3", "x4", "A", "B", "C", "valid", "reason",
    "parallel_passed", "parallel_max_residual",
    "curvature31_passed", "curvature31_residual",
    "curvature32_passed", "curvature32_residual",
)
ORACLE_RESIDUALS = {
    "parallel": lambda o: max(o["nabla_q_max"], o["gradient_condition_max"]),
    "curvature31": lambda o: o["residual"],
    "curvature32": lambda o: o["residual"],
}


def _oracle_csv_bool(value):
    return "true" if value else "false"


def _oracle_csv_cells(record):
    cells = [repr(x) for x in record["point"]]
    cells += ["" if record["triple"][k] is None else repr(record["triple"][k]) for k in "ABC"]
    cells.append(_oracle_csv_bool(record["valid"]))
    cells.append(record["reason"] or "")
    for check, residual in ORACLE_RESIDUALS.items():
        outcome = record["checks"].get(check)
        if outcome is None:
            cells += ["", ""]
            continue
        cells.append(_oracle_csv_bool(outcome["passed"]))
        cells.append("" if "error" in outcome else repr(residual(outcome)))
    return cells


def oracle_summary(records, checks):
    """The summary of a report, recounted from its record dicts."""
    per_check = {}
    for check in checks:
        outcomes = [record["checks"][check] for record in records]
        passed = sum(o is not None and o["passed"] for o in outcomes)
        if check == "validity":
            per_check[check] = {"passed": passed, "failed": len(records) - passed}
            continue
        ran = [o for o in outcomes if o is not None]
        per_check[check] = {
            "passed": passed,
            "failed": len(ran) - passed,
            "skipped": len(records) - len(ran),
            "max_residual": max(
                (ORACLE_RESIDUALS[check](o) for o in ran if "error" not in o), default=None
            ),
        }
    return {
        "points": len(records),
        "valid_points": sum(record["valid"] for record in records),
        "checks": per_check,
        "all_passed": not any(counts["failed"] for counts in per_check.values()),
    }


def oracle_render(report, fmt):
    """The text of a report, written from its record dicts."""
    if fmt == "json":
        return json.dumps(report.to_mapping(), indent=2) + "\n"
    buffer = io.StringIO()
    table = csv.writer(buffer, lineterminator="\n")
    table.writerow(ORACLE_CSV_COLUMNS)
    for record in report.points:
        table.writerow(_oracle_csv_cells(record))
    return buffer.getvalue()
