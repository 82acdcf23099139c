"""The release contract, end to end: one scorecard line per guarantee.

Every numbered test here pins a user-facing promise at its stated tolerance.
Unit tests elsewhere go deeper per module; this file is the gate a release
has to clear, so it favors breadth and prints one PASS/FAIL line per area
through the terminal reporter.
"""

import json

import numpy as np

from circulant4 import (
    AFFINOR,
    CirculantTriple,
    affinor_power,
    apply_affinor,
    christoffel_partials,
    christoffel_partials_fd,
    constant_manifold,
    contract_lowered,
    curvature_q_commutation_residual,
    curvature_q_invariance_residual,
    example_manifold,
    full_system_residuals,
    gradient_condition_residuals,
    inner,
    inverse_metric,
    lower_index,
    max_curvature_q_invariance_residual,
    metric_components,
    metric_determinant,
    nabla_q,
    parse_field,
    riemann,
    riemann_lowered,
)
from circulant4.cli import main
from circulant4.scan import AxisSpec, ScanConfig, run_check, run_scan

from helpers import (
    PARSER_CORPUS,
    grid_points,
    nonflat_parallel_manifold,
    perturbed_example,
    perturbed_example_fixed,
    sample_valid_points,
    run_cli,
)

P0 = (1.0, 0.1, 2.0, 0.2)


def _ordered_triple(rng):
    b = rng.uniform(0.05, 2.0)
    c = b + rng.uniform(0.05, 2.0)
    a = c + rng.uniform(0.05, 2.0)
    return CirculantTriple(a, b, c)


def _nondegenerate_triple(rng):
    while True:
        a, b, c = rng.uniform(-4.0, 4.0, size=3)
        if (
            abs(a - c) >= 1.0
            and abs(a + c - 2 * b) >= 1.0
            and abs(a + c + 2 * b) >= 1.0
        ):
            return CirculantTriple(a, b, c)


def test_1_affinor_algebra(report_line):
    identity = np.eye(4)
    ok = np.array_equal(np.linalg.matrix_power(AFFINOR, 4), identity)
    for v in identity:
        ok = ok and np.array_equal(apply_affinor(4, v), v)
    q2 = affinor_power(2)
    ok = ok and not np.array_equal(q2, identity)
    ok = ok and not np.array_equal(q2, -identity)
    report_line(
        f"[1/9] {'PASS' if ok else 'FAIL'} affinor algebra: "
        "q^4 = id exactly on the basis, q^2 != +-id"
    )
    assert ok


def test_2_isometry(report_line):
    rng = np.random.default_rng(20260802)
    ok = True
    worst = 0.0
    for _ in range(1000):
        t = _ordered_triple(rng)
        u = rng.uniform(-3, 3, size=4)
        v = rng.uniform(-3, 3, size=4)
        base = inner(t, u, v)
        tol = 1e-12 * (1 + abs(base))
        for k in (1, 2, 3):
            err = abs(inner(t, apply_affinor(k, u), apply_affinor(k, v)) - base)
            worst = max(worst, err / tol)
            ok = ok and err <= tol
    report_line(
        f"[2/9] {'PASS' if ok else 'FAIL'} isometry: "
        f"1000 ordered triples, k = 1..3, worst err/tol {worst:.2e}"
    )
    assert ok


def test_3_closed_forms(report_line):
    rng = np.random.default_rng(20260803)
    ok = True
    worst_det = worst_inv = 0.0
    for _ in range(1000):
        t = _nondegenerate_triple(rng)
        g = metric_components(t)
        brute = np.linalg.det(g)
        det_err = abs(metric_determinant(t) - brute) / (1 + abs(brute))
        inv_err = float(np.max(np.abs(g @ inverse_metric(t) - np.eye(4))))
        worst_det = max(worst_det, det_err)
        worst_inv = max(worst_inv, inv_err)
        ok = ok and det_err <= 1e-10 and inv_err <= 1e-10
    report_line(
        f"[3/9] {'PASS' if ok else 'FAIL'} closed forms: "
        f"1000 triples, det err {worst_det:.2e}, inverse err {worst_inv:.2e}"
    )
    assert ok


def test_4_example_parallelism(report_line):
    m = example_manifold()
    rng = np.random.default_rng(20260804)
    worst_nq = worst_reduced = worst_full = 0.0
    for p in sample_valid_points(m, 100, rng):
        worst_nq = max(worst_nq, float(np.max(np.abs(nabla_q(m, p)))))
        worst_reduced = max(
            worst_reduced, gradient_condition_residuals(m, p).max_residual
        )
        worst_full = max(worst_full, full_system_residuals(m, p).max_residual)
    ok = worst_nq <= 1e-8 and worst_reduced <= 1e-9 and worst_full <= 1e-8
    report_line(
        f"[4/9] {'PASS' if ok else 'FAIL'} example parallelism: 100 valid points, "
        f"max |nabla q| {worst_nq:.2e}, reduced {worst_reduced:.2e}, "
        f"expanded {worst_full:.2e}"
    )
    assert ok


def test_5_criterion_equivalence(report_line):
    rng = np.random.default_rng(20260817)
    corpus = [
        example_manifold(),
        constant_manifold(6, 1, 3),
        nonflat_parallel_manifold(),
    ]
    corpus += [perturbed_example(rng, name=f"perturbed-{k}") for k in range(8)]
    tol = 1e-8
    band = 1e-6
    checked = 0
    agree = in_band = True
    for m in corpus:
        for p in sample_valid_points(m, 6, rng, max_draws=40_000):
            nq = float(np.max(np.abs(nabla_q(m, p))))
            grad = gradient_condition_residuals(m, p).max_residual
            agree = agree and ((nq <= tol) == (grad <= tol))
            # a pass on one side must not sit orders of magnitude from a
            # pass on the other
            in_band = in_band and not (nq <= tol and grad > band)
            in_band = in_band and not (grad <= tol and nq > band)
            checked += 1
    ok = agree and in_band and checked >= 60
    report_line(
        f"[5/9] {'PASS' if ok else 'FAIL'} criterion equivalence: "
        f"{len(corpus)} manifolds, {checked} points, verdicts agree at {tol:g} "
        f"with guard band {band:g}"
    )
    assert ok


def test_6_curvature_oracles(report_line):
    flat_ok = True
    for triple in [(3, 1, 2), (6, 1, 3)]:
        m = constant_manifold(*triple)
        flat_ok = flat_ok and float(
            np.max(np.abs(riemann(m, (0.3, -1.0, 2.0, 0.7))))
        ) <= 1e-14

    m = example_manifold()
    fd_err = 0.0
    for p in [P0, (0.5, -0.3, 2.0, 0.8), (-1.5, 0.2, 0.5, -2.0)]:
        fd_err = max(
            fd_err,
            float(
                np.max(
                    np.abs(christoffel_partials(m, p) - christoffel_partials_fd(m, p))
                )
            ),
        )
    fd_ok = fd_err <= 1e-5

    sym_err = 0.0
    nf = nonflat_parallel_manifold()
    rng = np.random.default_rng(20260806)
    for p in sample_valid_points(nf, 3, rng, low=-2.0, high=2.0):
        r13 = riemann(nf, p)
        r4 = lower_index(nf.triple_at(p), r13)
        scale = 1.0 + float(np.max(np.abs(r4)))
        gaps = [
            np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2))),
            np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3))),
            np.max(np.abs(r4 - r4.transpose(3, 2, 1, 0))),
            np.max(
                np.abs(
                    r13
                    + np.einsum("ljik->lkji", r13)
                    + np.einsum("likj->lkji", r13)
                )
            ),
        ]
        sym_err = max(sym_err, float(max(gaps)) / scale)
    sym_ok = sym_err <= 1e-8

    ok = flat_ok and fd_ok and sym_ok
    report_line(
        f"[6/9] {'PASS' if ok else 'FAIL'} curvature: constants flat, "
        f"fd gap {fd_err:.2e}, symmetry gap {sym_err:.2e} rel"
    )
    assert ok


def test_7_structure_identities(report_line):
    m = example_manifold()
    rng = np.random.default_rng(20260807)
    ok = True
    worst = 0.0
    for p in sample_valid_points(m, 20, rng):
        r4 = riemann_lowered(m, p)
        scale = 1.0 + float(np.max(np.abs(r4)))
        for _ in range(100):
            x, y, z, u = rng.uniform(-1, 1, size=(4, 4))
            lhs = contract_lowered(r4, x, y, z, apply_affinor(1, u))
            rhs = contract_lowered(r4, x, y, apply_affinor(3, z), u)
            worst = max(worst, abs(lhs - rhs) / scale)
        ok = ok and max_curvature_q_invariance_residual(m, p) <= 1e-8 * scale
        r13_scale = 1.0 + float(np.max(np.abs(riemann(m, p))))
        ok = ok and curvature_q_commutation_residual(m, p) <= 1e-8 * r13_scale
    ok = ok and worst <= 1e-8

    # the identities must have teeth: break parallelism and they fail
    bad = perturbed_example_fixed()
    broken31 = max_curvature_q_invariance_residual(bad, P0)
    broken32 = curvature_q_commutation_residual(bad, P0)
    ok = ok and broken31 > 1e-3 and broken32 > 1e-3
    report_line(
        f"[7/9] {'PASS' if ok else 'FAIL'} structure identities: 20 points x 100 "
        f"4-tuples, worst rel {worst:.2e}; broken manifold residuals "
        f"{broken31:.2e}/{broken32:.2e}"
    )
    assert ok


def test_8_example_validity(report_line):
    m = example_manifold()
    cases = [
        ((1, 0.1, 2, 0.2), True, None),
        ((1, 1, 1, 1), False, "excluded locus (x,x,x,x)"),
        ((-1, 1, -1, 1), False, "excluded locus (-x,x,-x,x)"),
        ((1, 2, 3, 4), False, "C > B violated"),
    ]
    ok = True
    for point, valid, reason in cases:
        status = m.domain_valid(point)
        ok = ok and status.valid == valid and status.reason == reason
    t = m.triple_at((1, 2, 3, 4))
    ok = ok and (t.a, t.b, t.c) == (30.0, 24.0, 22.0)
    report_line(
        f"[8/9] {'PASS' if ok else 'FAIL'} example validity: "
        "stated points and reasons, (A,B,C) = (30,24,22) at (1,2,3,4)"
    )
    assert ok


def test_9_tooling(report_line):
    # parser round trip
    parser_ok = all(
        parse_field(parse_field(text).to_string()) == parse_field(text)
        for text in PARSER_CORPUS
    )

    # exit codes: pass, check failure, usage error
    codes = (
        main(["check", "--manifold", "example", "--point", "1,0.1,2,0.2"]),
        main(["check", "--manifold", "example", "--point", "1,1,1,1"]),
        main(["check", "--manifold", "example", "--point", "1,2"]),
    )
    codes_ok = codes == (0, 1, 2)

    # scan/check agreement over a 2^4 grid
    m = example_manifold()
    axes = (
        AxisSpec(0.8, 1.2, 2),
        AxisSpec(0.0, 0.2, 2),
        AxisSpec(1.8, 2.2, 2),
        AxisSpec(0.1, 0.3, 2),
    )
    config = ScanConfig(axes)
    report = run_scan(m, config)
    grid_ok = report.summary["points"] == 16 and all(
        run_check(m, p).points[0] == record
        for p, record in zip(grid_points(axes), report.points)
    )

    # byte-identical reports from two runs
    args = ["scan", "--manifold", "example", "--box", "0.8:1.2:2,0:0.2:2,1.8:2.2:2,0.1:0.3:2"]
    first = run_cli(args)
    second = run_cli(args)
    determinism_ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["summary"]["all_passed"] is True
    )

    ok = parser_ok and codes_ok and grid_ok and determinism_ok
    report_line(
        f"[9/9] {'PASS' if ok else 'FAIL'} tooling: exit codes {codes}, "
        f"{len(PARSER_CORPUS)} expressions round-trip, scan = check on 2^4 grid, "
        "byte-identical reports"
    )
    assert ok
