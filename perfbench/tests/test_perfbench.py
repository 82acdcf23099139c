"""Tests of the benchmark itself: its inputs, its tracer and a smoke run per workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", ROOT / "tests", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from helpers import nonflat_parallel_manifold, perturbed_example_fixed  # noqa: E402

import circulant4  # noqa: E402
from circulant4 import example_manifold, gradient_condition_residuals, load_manifold  # noqa: E402
from tracer import Tracer  # noqa: E402

CUBIC = BENCH_DIR / "manifolds" / "cubic.cfg"
PERTURBED = BENCH_DIR / "manifolds" / "perturbed.cfg"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _points(seed, low, high, count=40):
    return np.random.default_rng(seed).uniform(low, high, size=(count, 4))


@pytest.mark.parametrize(
    "path, reference", [(CUBIC, nonflat_parallel_manifold), (PERTURBED, perturbed_example_fixed)]
)
def test_config_equals_reference_term_for_term(path, reference):
    loaded, expected = load_manifold(path), reference()
    for key in "ABC":
        assert getattr(loaded, key).terms() == getattr(expected, key).terms()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cubic_gradient_conditions_vanish(seed):
    cubic = load_manifold(CUBIC)
    for p in _points(seed, -1.0, 1.0):
        assert gradient_condition_residuals(cubic, p).max_residual <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_perturbed_gradient_conditions_do_not_vanish(seed):
    perturbed = load_manifold(PERTURBED)
    for p in _points(seed, 0.5, 2.0):
        # A1 - C3 is exactly 1 everywhere
        assert gradient_condition_residuals(perturbed, p).max_residual >= 0.5


def test_tracer_counts_rebound_names_and_restores_them():
    from circulant4 import curvature, scan

    original = curvature.christoffel
    example = example_manifold()
    tracer = Tracer()
    tracer.install()
    try:
        assert curvature.christoffel is not original
        scan.evaluate_point(example, (1.0, 0.1, 2.0, 0.2))
    finally:
        tracer.uninstall()
    assert curvature.christoffel is original
    assert circulant4.christoffel is original
    assert not hasattr(circulant4.ScalarField.partial, "__wrapped__")
    summary = tracer.summary()
    assert summary["count"]["scan.evaluate_point"] == 1
    assert summary["count"]["connection.christoffel"] == 3
    assert summary["count"]["curvature.riemann"] == 2
    # self times add up to the one root span
    total = summary["total_ns"]["scan.evaluate_point"]
    assert sum(summary["layer_self_ns"].values()) == pytest.approx(total)


def test_tracer_reinstall_keeps_labels_and_reports_missing_layers():
    tracer = Tracer(layers=("fields", "no_such_layer"))
    for _ in range(2):
        tracer.install()
        example_manifold().A((1.0, 2.0, 3.0, 4.0))
        tracer.uninstall()
    assert len(tracer.labels) == len(set(tracer.labels))
    assert tracer.summary()["count"]["fields.ScalarField.__call__"] == 2
    assert tracer.absent_layers == ["no_such_layer"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    if trace and workload == "check-point":
        assert values["fields.partial_count"] == 156
        assert values["connection.christoffel_count"] == 3
        assert values["curvature.riemann_count"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "check-point", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
