"""Definition of the eqyamabe benchmark: workloads, metrics, bounds, run length.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/run.py --write-spec`), and `run.py` checks every result
it prints against the metric names listed here.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

# Default seed of a run, and the second seed on which later speed claims are
# re-checked (a seed not used while the claimed change was written).
DEFAULT_SEED = 20240611
RECHECK_SEED = 7919

WORKLOADS = [
    (
        "bound_sweep",
        "criterion-4 samples on 3 shared bases: many integrands on few bases, so a per-base "
        "quadrature plan or deduplicated omega_norms shows here",
    ),
    (
        "conformal_descent",
        "minimize_conformal on hopf, wps(2,3), wps(1,2) and the flat torus: the minimizer's "
        "small-array loop dominates and quadrature runs only at the end",
    ),
    (
        "cli_reports",
        "one eqyamabe CLI subprocess per op over a fixed command mix on every base type: what a "
        "CLI user waits for, mostly interpreter start and import",
    ),
]

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

# Per-layer metrics of the traced run, per traced op unless the name says
# otherwise.  `.self_ms` is a span's duration minus its child spans; `.ms` is
# the inclusive time of the outermost span of that name.
PER_LAYER = [
    ("numerics.integrate.calls", "count", "lower"),
    ("numerics.integrate.points", "count", "lower"),
    ("numerics.integrate.self_ms", "ms", "lower"),
    ("numerics.integrand.self_ms", "ms", "lower"),
    ("numerics.minimize_scalar.calls", "count", "lower"),
    ("orbifold.profile.points", "count", "lower"),
    ("orbifold.profile.ms", "ms", "lower"),
    ("orbifold.build.ms", "ms", "lower"),
    ("invariants.c1_quadrature.ms", "ms", "lower"),
    ("invariants.chi_quadrature.ms", "ms", "lower"),
    ("invariants.chi_boundary.ms", "ms", "lower"),
    ("bundle.omega_norms.calls", "count", "lower"),
    ("bundle.omega_norms.self_ms", "ms", "lower"),
    ("bundle.field.points", "count", "lower"),
    ("yamabe.functional_J.self_ms", "ms", "lower"),
    ("yamabe.functional_J_closed.self_ms", "ms", "lower"),
    ("yamabe.optimal_ell.self_ms", "ms", "lower"),
    ("yamabe.bound_cauchy_schwarz.self_ms", "ms", "lower"),
    ("yamabe.conformal_functional.self_ms", "ms", "lower"),
    ("conformal.minimize_conformal.iterations", "count", "lower"),
    ("conformal.minimize_conformal.self_ms", "ms", "lower"),
    ("conformal.minimize_conformal.us_per_iteration", "us", "lower"),
    ("conformal.uniformize_positive.ms", "ms", "lower"),
    ("scaling.ell_scan.ms", "ms", "lower"),
    ("scaling.collapse_bounds.ms", "ms", "lower"),
    ("modelio.parse_model_file.ms", "ms", "lower"),
    ("modelio.build_metric.ms", "ms", "lower"),
    ("modelio.canonical_json.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]


def workload_names() -> list[str]:
    return [name for name, _ in WORKLOADS]


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
