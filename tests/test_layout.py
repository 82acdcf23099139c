"""The points-last geometry pass against the same pass written points first.

The pass keeps the points on the last axis, from the jets to the gaps.
`_points_first_pass` below is the same formulas with the points first,
einsum for einsum: the test pins every stage of the points-last pass to
it bit for bit, by int64 views, so a zero changing sign or an inf turning
into a NaN shows. The joint jets are pinned to each field's `__call__`,
`gradient` and `hessian`, and the stages' layout, also on the valid rows
of a scan chunk, to the points last, contiguous.
"""

import os

import numpy as np
import pytest

from circulant4 import Geometry, constant_manifold, example_manifold, load_manifold, scan
from circulant4.circulant import AFFINOR_NEXT, AFFINOR_PREVIOUS, SLOT_FIELD, _thresholds
from circulant4.fields import CompiledField, ScalarField, jets, parse_field
from circulant4.scan import CHUNK_SIZE, AxisSpec, ScanConfig, run_scan

from helpers import JET_EDGE_POINTS, REPO_ROOT

MANIFOLDS = {
    "cubic": os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg"),
    "example": None,
    "perturbed": os.path.join(REPO_ROOT, "perfbench", "manifolds", "perturbed.cfg"),
    "steep": os.path.join(REPO_ROOT, "tests", "data", "steep.cfg"),
}

# 256 is scan.CHUNK_SIZE, the size the all-check scans run at
POINT_COUNTS = (1, 63, 64, 65, 256, 300)


def _manifold(name):
    path = MANIFOLDS[name]
    return example_manifold() if path is None else load_manifold(path)


def _points(name, count):
    """count points, with degenerate ones on example's lines and overflowing ones on steep."""
    rng = np.random.default_rng(20261018 + count)
    if name == "steep":
        # the gradient overflows from |x| > 10.5, the value a little further out
        points = rng.uniform(-11.0, 11.0, (count, 4))
    else:
        points = rng.uniform(-2.0, 2.0, (count, 4))
    # A = C on the line (x, x, x, x): the metric is degenerate there
    points[::7] = points[::7, :1]
    return points


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _points_first_pass(values, gradients, hessians) -> dict:
    """Every stage of the pass, computed points first, as the pass did before."""
    a, b, c = values.T
    d = (a - c) * ((a + c) * (a + c) - 4.0 * b * b)
    degenerate = ~(np.abs(d) > _thresholds(a, b, c))
    bars = np.stack(
        [
            (a * (a + c) - 2.0 * b * b) / d,
            (b * (c - a)) / d,
            (2.0 * b * b - c * (a + c)) / d,
        ],
        axis=1,
    )
    bars[degenerate] = np.nan
    ginv = bars[:, SLOT_FIELD]
    g = values[:, SLOT_FIELD]
    dg = np.moveaxis(gradients[:, SLOT_FIELD], 3, 1)
    first_kind = np.einsum("niaj->naij", dg) + np.einsum("njai->naij", dg) - dg
    gamma = 0.5 * np.einsum("nas,naij->nsij", ginv, first_kind)
    nq = (gamma[..., AFFINOR_NEXT] - gamma[:, AFFINOR_PREVIOUS]).transpose(0, 2, 1, 3)
    hg = np.einsum("najmi->nmiaj", hessians[:, SLOT_FIELD])  # [n, m, i, a, j] = d_m d_i g_aj
    dt = np.einsum("nmiaj->nmaij", hg) + np.einsum("nmjai->nmaij", hg) - hg
    dgamma = np.einsum(
        "nas,nmaij->nmsij", ginv, dt / 2 - np.einsum("nmab,nbij->nmaij", dg, gamma)
    )
    half_hg = hg / 2
    half_g = (
        np.einsum("njkhi->nhkji", half_hg)
        - np.einsum("njhik->nhkji", half_hg)
        - np.einsum("nsjh,nsik->nhkji", first_kind / 2, gamma)
    )
    r4 = half_g - half_g.transpose(0, 1, 2, 4, 3)
    r13 = np.einsum("nlh,nhkji->nlkji", ginv, r4)
    return {
        "inverse": ginv,
        "metric": g,
        "metric_partials": dg,
        "first_kind": first_kind,
        "christoffel": gamma,
        "nabla_q": nq,
        "nabla_q_max": np.abs(nq).max(axis=(1, 2, 3)),
        "christoffel_partials": dgamma,
        "riemann": r13,
        "riemann_lowered": r4,
        "q_invariance_gap": np.abs(r4[:, AFFINOR_NEXT] - r4[:, :, AFFINOR_PREVIOUS]).max(
            axis=(1, 2, 3, 4)
        ),
        "q_commutation_gap": np.abs(r13[:, :, AFFINOR_NEXT] - r13[:, AFFINOR_PREVIOUS]).max(
            axis=(1, 2, 3, 4)
        ),
        "q_invariance_scale": 1.0 + np.abs(r4).max(axis=(1, 2, 3, 4)),
        "q_commutation_scale": 1.0 + np.abs(r13).max(axis=(1, 2, 3, 4)),
    }


@pytest.mark.parametrize("count", POINT_COUNTS)
@pytest.mark.parametrize("name", list(MANIFOLDS))
def test_every_stage_matches_the_points_first_pass_bitwise(name, count):
    m = _manifold(name)
    with np.errstate(all="ignore"):
        jet = m.jets(_points(name, count))
        geometry = Geometry(*jet)
        expected = _points_first_pass(*(np.ascontiguousarray(x) for x in jet))
        got = {stage: getattr(geometry, stage) for stage in expected}
    for stage, reference in expected.items():
        assert got[stage].shape == reference.shape, stage
        assert np.array_equal(_bits(got[stage]), _bits(reference)), stage
    assert np.array_equal(
        _bits(geometry.gradient_condition_max), _bits(np.max(geometry.gradient_conditions, axis=1))
    )
    # not vacuous: degenerate rows on example, rows that are not finite on steep
    if name == "example":
        assert geometry.degenerate[0]
    if name == "steep" and count > 1:
        assert not np.isfinite(expected["riemann"]).all()


def _reference_jets(fields, points):
    """Values, gradients and Hessians by __call__, gradient and hessian, field by field."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            np.array([[f(p) for f in fields] for p in points]).reshape(len(points), len(fields)),
            np.array([[f.gradient(p) for f in fields] for p in points]).reshape(
                len(points), len(fields), 4
            ),
            np.array([[f.hessian(p) for f in fields] for p in points]).reshape(
                len(points), len(fields), 4, 4
            ),
        )


def _joint_cases():
    cubic = load_manifold(MANIFOLDS["cubic"])
    constant = constant_manifold(3.0, 1.0, 2.0)
    return {
        "cubic": (cubic.A, cubic.B, cubic.C),
        "constant_manifold": (constant.A, constant.B, constant.C),
        # 1, 5 and 9 terms, and a field with no terms at all
        "unequal term counts": (
            parse_field("x1^3*x4 - 1/3*x2^2 + 0.7*x3*x4^2 - x1 + 2*x2*x3 + x4^5 - 1e-3*x1*x2*x3*x4"
                        " + 0.25*x3^3 + 5"),
            ScalarField(),
            parse_field("x2"),
            parse_field("x1^2*x2^2 - x3^3*x4 + 0.1*x1 + x2 - 1/7"),
        ),
    }


def _joint_points(count):
    """count points with repeated coordinates, and 0.0 beside -0.0; JET_EDGE_POINTS for None."""
    if count is None:
        return JET_EDGE_POINTS
    rng = np.random.default_rng(20261020 + count)
    points = rng.uniform(-3.0, 3.0, (count, 4))
    points[::3, 1] = points[0, 1]
    points[1::5, 2] = 0.0
    points[2::5, 2] = -0.0
    return points


@pytest.mark.parametrize("count", (63, 64, 65, pytest.param(None, id="edges")))
@pytest.mark.parametrize("case", list(_joint_cases()))
def test_joint_jets_match_each_field_bitwise(case, count):
    fields = _joint_cases()[case]
    points = _joint_points(count)
    expected = _reference_jets(fields, points)
    for order in (0, 1, 2):
        got = jets(CompiledField(fields), points, order)
        for k in range(3):
            if k > order:
                assert got[k] is None
                continue
            assert got[k].shape == expected[k].shape
            assert np.array_equal(_bits(got[k]), _bits(expected[k])), (order, k)


def test_the_stages_keep_the_points_last_and_contiguous(monkeypatch):
    stages = (
        "inverse", "metric", "metric_partials", "first_kind", "christoffel", "nabla_q",
        "gradient_conditions", "full_system", "christoffel_partials", "riemann",
        "riemann_lowered",
    )
    m = _manifold("cubic")
    passes = [Geometry(*m.jets(_points("cubic", count))) for count in (64, CHUNK_SIZE)]

    # the pass of a scan chunk with invalid rows reads the jets of its valid
    # rows, picked from the chunk's jets
    def recorded(*jet):
        passes.append(Geometry(*jet))
        return passes[-1]

    monkeypatch.setattr(scan, "Geometry", recorded)
    run_scan(m, ScanConfig(tuple(AxisSpec(-1.0, 1.0, 4) for _ in range(4))))
    assert len(passes[2].values) == 157  # of the chunk's 256 points
    for geometry in passes:
        count = len(geometry.values)
        arrays = {"values": geometry.values, "gradients": geometry.gradients,
                  "hessians": geometry.hessians}
        arrays.update((stage, getattr(geometry, stage)) for stage in stages)
        for name, array in arrays.items():
            assert array.shape[0] == count, name
            # the point axis, first in the view, is the innermost in memory
            assert array.strides[0] == array.itemsize, (name, count)
