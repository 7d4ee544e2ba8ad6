"""Run one workload of the eqyamabe benchmark and print its metrics.

    python3 perfbench/run.py --workload bound_sweep --seed 20240611 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the library is taken
from its `src/` directory.  `--trace 0` measures the end-to-end metrics with
tracing off; `--trace 1` makes a separate traced run for the per-layer
metrics.  Every metric is printed by name with its unit, and the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Earlier lines record the environment (python, numpy
and scipy versions, cores, commit, seed) and failures by class.  The default
seed and the re-check seed are in `spec.py`.

`python3 perfbench/run.py --write-spec` regenerates BENCHMARK.json.

BLAS and OpenMP are pinned to one thread in every process started here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import spec
import worker
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / "perfbench" / "results"
# A measured run is `Workload.passes` fresh processes that play the same ops,
# with set-up-only processes after the first, SETUP_RUNS processes in all.
# Set-up is timed in every one of them, and the median is reported.
SETUP_RUNS = 5
IMPORT_RUNS = 3  # fresh-interpreter `import eqyamabe.cli` timings for cli.import_ms
RUN_LIMIT_S = 170.0  # every process started by one run is ended by then
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py, return (seconds from start to READY, its JSON result).  The process is killed at `deadline` and always
    waited for."""
    worker = ROOT / "perfbench" / "worker.py"
    cmd = [sys.executable, str(worker), *args, "--workdir", str(WORKDIR)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up: {line!r}")
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def import_ms(deadline: float) -> float:
    code = (
        "import time; t = time.perf_counter(); import eqyamabe.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        samples.append(1e3 * float(out.stdout.strip()))
    return statistics.median(samples)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "threads": {var: "1" for var in PINNED_THREADS},
    }


def end_to_end(
    workload: str, seed: int, seconds: float, deadline: float
) -> tuple[dict, dict, dict]:
    """`worker.best_of` times each op by its faster play; each set-up time
    is scaled to the reference speed by the references its own process took
    right after set-up."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups, unscaled_setups, passes = [], [], []

    def start(args: list[str]) -> dict:
        setup_s, out = run_worker(common + args, deadline)
        unscaled_setups.append(setup_s)
        setups.append(setup_s * worker.speed_scale(out["setup_reference_s"]))
        return out

    n_passes = workloads.WORKLOADS[workload].passes
    for k in range(n_passes):
        measure = ["--mode", "measure", "--seconds", str(seconds / n_passes), "--pass", str(k)]
        passes.append(start(measure))
        if k == 0:
            for _ in range(SETUP_RUNS - n_passes):
                start(["--mode", "setup"])
    result = worker.best_of(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["ops_per_s"],
        "op_p90_ms": result["op_p90_ms"],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    info = {
        # printed, not bounded (see README.md)
        "op_p50_ms": result["op_p50_ms"],
        "latency_samples": result["latency_samples"],
        "speed_scales": result["speed_scales"],
        "unscaled_ops_per_s": result["unscaled_ops_per_s"],
        "unscaled_setup_s": statistics.median(unscaled_setups),
        "failures": result["failures"],
    }
    return result, metrics, info


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict, dict]:
    trace_out = WORKDIR / f"trace-{workload}-{seed}.json"
    args = ["--workload", workload, "--seed", str(seed), "--mode", "trace"]
    _, result = run_worker(args + ["--trace-out", str(trace_out)], deadline)
    metrics = dict(result["metrics"])
    metrics["cli.import_ms"] = import_ms(deadline)
    info = {
        "spans": str(trace_out.relative_to(ROOT)),
        "failures": result["failures"],
        "counts": result["counts"],
    }
    return result, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=spec.workload_names())
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="utf-8")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "eqyamabe" / "__init__.py").is_file():
        print(f"error: no eqyamabe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    WORKDIR.mkdir(parents=True, exist_ok=True)
    # One caller on one core: the highest-numbered core usually serves the
    # fewest interrupts.  Every process started from here inherits it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.trace:
            result, metrics, info = per_layer(args.workload, args.seed, deadline)
            declared = spec.PER_LAYER
        else:
            result, metrics, info = end_to_end(args.workload, args.seed, args.seconds, deadline)
            declared = spec.END_TO_END
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    units = {entry[0]: entry[1] for entry in declared}
    if set(metrics) != set(units) or not all(math.isfinite(v) for v in metrics.values()):
        print(f"error: metrics do not match spec.py: {sorted(metrics)}", file=sys.stderr)
        return 1
    if result["attempted"] < 1:
        print("error: no op was attempted", file=sys.stderr)
        return 1

    print("# env " + json.dumps(environment(args.seed)))
    print(f"# workload {args.workload} trace={args.trace} " + json.dumps(info))
    failed, attempted = result["failed"], result["attempted"]
    print(f"# failed_ratio {failed / attempted!r} ({failed} of {attempted} ops attempted)")
    if "op_p50_ms" in info:
        print(f"# op_p50_ms {info['op_p50_ms']!r} ms ({info['latency_samples']} ops)")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
