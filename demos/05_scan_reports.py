"""Grid scans and machine-readable reports.

The scan layer is what the command line wraps: evaluate validity,
parallelism and the curvature identities over a grid, summarize, and
render the result as JSON or CSV. Reports are deterministic, so two
runs of the same configuration are byte-identical.
"""

from circulant4 import (
    AxisSpec,
    ScanConfig,
    example_manifold,
    render_report,
    run_check,
    run_scan,
)

m = example_manifold()

# a single point first; this is `circulant4 check` in library form
report = run_check(m, (1.0, 0.1, 2.0, 0.2))
print("single point summary:", report.summary)

# a 2x2x1x2 grid straddling the validity boundary
config = ScanConfig(
    axes=(
        AxisSpec(-1.0, 1.0, 2),
        AxisSpec(-1.0, 1.0, 2),
        AxisSpec(2.0, 2.0, 1),
        AxisSpec(0.0, 0.5, 2),
    ),
    checks=("validity", "parallel"),
)
report = run_scan(m, config)
print(f"\nscan of {len(report.points)} points, all passed: {report.all_passed}")
for record in report.points:
    reason = record["reason"] or "ok"
    print(f"  {tuple(record['point'])}  valid={record['valid']:d}  {reason}")

# the same report as CSV, one row per point
print("\ncsv:")
print(render_report(report, fmt="csv"))

# and the summary block of the JSON rendering
print("json summary:", report.summary)

# determinism: scanning and rendering again gives the same bytes
again = run_scan(m, config)
print("run twice, same bytes:", render_report(report, "json") == render_report(again, "json"))

# the command-line equivalents (note the = when a bound is negative):
#   circulant4 check --manifold example --point 1,0.1,2,0.2
#   circulant4 scan --manifold example --box=-1:1:2,-1:1:2,2:2:1,0:0.5:2 \
#       --checks validity,parallel --format csv
# exit code 0: everything passed, 1: a check failed, 2: usage error
