"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by `run.py`, which times set-up from process start to the READY
line.  Modes:

  setup    set up (with one untimed warm-up op) and exit
  measure  set up, then play the run's ops once untraced (pass 0 in the
           seed's order, a later --pass in an order drawn from the seed and
           the pass) and print one JSON line with each op's time and outcome
  trace    set up, run the workload's `trace_rounds` rounds untraced, then
           the same ops again under the tracer; print one JSON line with
           the per-layer numbers and dump every span to --trace-out

Every mode prints the host-speed references it took right after set-up;
`best_of` combines the passes of a run into the end-to-end numbers.

`run.py` pins BLAS and OpenMP to one thread in this process's environment,
which the CLI children inherit.  Warnings from the library (fractional
Chern data on random densities) are silenced, as in the test suite's sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

# Host-speed reference.  On a shared host the same code can run ~1.6x slower
# for seconds to minutes at a time.  The worker times a fixed pure-Python
# loop SETUP_REFERENCES times right after set-up and then once after every
# REFERENCE_EVERY_S of op time.  `best_of` scales the process's op times,
# and `run.py` its set-up time, by REFERENCE_NOMINAL_S over the median of
# those loops, so that they read as at the reference speed: the loop's speed
# in the fast state of a 2.1 GHz Xeon vCPU.
REFERENCE_ITERATIONS = 20000
REFERENCE_NOMINAL_S = 1.1e-3
REFERENCE_EVERY_S = 0.25
SETUP_REFERENCES = 9


def reference_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def speed_scale(references: list[float]) -> float:
    """Factor that turns a process's times into times at the reference speed."""
    return REFERENCE_NOMINAL_S / statistics.median(references)


def failure_class(exc: BaseException) -> str:
    if isinstance(exc, workloads.CheckFailed):
        return f"check failed: {exc}"
    if isinstance(exc, workloads.CliExit):
        return str(exc)
    return type(exc).__name__


class Loop:
    """Closed loop over ops: each op starts when the previous one returns.
    Given a list of `references`, it takes one after every REFERENCE_EVERY_S
    of op time."""

    def __init__(self, workload, state, references: list[float] | None = None) -> None:
        self.workload = workload
        self.state = state
        self.references = references
        self.since_reference = 0.0
        self.ops: list[tuple[float, bool]] = []  # (seconds, succeeded) per op attempted
        self.failures: Counter = Counter()
        self.unexpected = 0  # failed ops that the workload expects to succeed

    def run_op(self, op, tracer=None):
        """Run one op; return what the workload's `run` returned (None if it
        raised)."""
        if tracer is not None:
            tracer.op = len(self.ops)
        start = time.perf_counter()
        output = None
        try:
            output = self.workload.run(self.state, op)
            ok = True
        except Exception as exc:  # noqa: BLE001  (every failure is counted by class)
            ok = False
            cls = failure_class(exc)
            self.failures[cls] += 1
            self.unexpected += cls != self.workload.expected_failure(op)
        elapsed = time.perf_counter() - start
        self.ops.append((elapsed, ok))
        self.since_reference += elapsed
        if self.references is not None and self.since_reference >= REFERENCE_EVERY_S:
            self.references.append(reference_s())
            self.since_reference = 0.0
        return output

    def summary(self) -> dict:
        lat = sorted(elapsed for elapsed, ok in self.ops if ok)
        busy = sum(elapsed for elapsed, _ in self.ops)
        return {
            "attempted": len(self.ops),
            "failed": sum(self.failures.values()),
            "correct": self.unexpected == 0,
            "unexpected_failures": self.unexpected,
            "failures": dict(sorted(self.failures.items())),
            "ops_per_s": len(lat) / busy if busy > 0 else 0.0,
            "latency_samples": len(lat),
        }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def best_of(passes: list[dict]) -> dict:
    """Combine the passes of a run, which played the same ops in fresh
    processes: each op's latency is the faster of its plays, each play
    scaled by its pass's `speed_scale`.

    The scale takes out the host's slow spells that last a pass or longer;
    the faster play takes out most of the shorter ones.  An op succeeded if
    every play did and, where the workload returns an output (a CLI
    report's digest), the plays' outputs agree.  `ops_per_s` is the ops that
    succeeded over the sum of every op's faster play.
    """
    n_ops = len(passes[0]["seconds"])
    if any(len(p["seconds"]) != n_ops for p in passes):
        raise ValueError("the passes did not play the same ops")
    scales = [speed_scale(p["reference_s"]) for p in passes]
    best = [
        min(scale * p["seconds"][i] for scale, p in zip(scales, passes)) for i in range(n_ops)
    ]
    failures: Counter = Counter()
    for p in passes:
        failures.update(p["failures"])
    unexpected = sum(p["unexpected_failures"] for p in passes)
    ok = [all(p["ok"][i] for p in passes) for i in range(n_ops)]
    for i in range(n_ops):
        if ok[i] and len({p["outputs"][i] for p in passes}) > 1:
            failures["check failed: output differs between passes"] += 1
            unexpected += 1
            ok[i] = False
    lat = sorted(t for t, good in zip(best, ok) if good)
    unscaled_busy = sum(sum(p["seconds"]) for p in passes)
    return {
        "attempted": n_ops * len(passes),
        "failed": sum(failures.values()),
        "correct": unexpected == 0,
        "failures": dict(sorted(failures.items())),
        "ops_per_s": len(lat) / sum(best),
        "op_p50_ms": 1e3 * nearest_rank(lat, 0.5) if lat else 0.0,
        "op_p90_ms": 1e3 * nearest_rank(lat, 0.9) if lat else 0.0,
        "latency_samples": len(lat),
        "speed_scales": scales,
        # every play, timed as it ran and not scaled: what the host gave
        "unscaled_ops_per_s": len(lat) * len(passes) / unscaled_busy,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=None, help="measure mode: run length")
    ap.add_argument("--pass", dest="pass_", type=int, default=0, help="measure mode: pass")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    rounds = workload.rounds(args.seed)
    in_process = args.mode == "trace" or workload.name != "cli_reports"

    state = workload.setup(args.seed, in_process, workdir)
    try:
        Loop(workload, state).run_op(workload.warm_up_op)  # untimed
        ready()
        references = [reference_s() for _ in range(SETUP_REFERENCES)]
        result = {"setup_reference_s": list(references)}
        if args.mode == "measure":
            n_rounds = max(1, int(args.seconds // workload.round_s))
            ops = [op for _ in range(n_rounds) for op in next(rounds)]
            result.update(measure(workload, state, ops, [args.seed, args.pass_], references))
            result["peak_rss_mb"] = peak_rss_mb(children=workload.name == "cli_reports")
        elif args.mode == "trace":
            ops = [next(rounds) for _ in range(workload.trace_rounds)]
            result.update(trace(workload, state, ops, args))
    finally:
        workload.teardown(state)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


def measure(workload, state, ops: list, order_seed: list[int], references: list[float]) -> dict:
    """Play every op once: in list order on pass 0, else in an order drawn
    from `order_seed`; report each op's time at its list position."""
    order = range(len(ops))
    if order_seed[1] != 0:
        order = [int(i) for i in np.random.default_rng(order_seed).permutation(len(ops))]
    loop = Loop(workload, state, references)
    seconds, ok, outputs = [0.0] * len(ops), [False] * len(ops), [None] * len(ops)
    for i in order:
        outputs[i] = loop.run_op(ops[i])
        seconds[i], ok[i] = loop.ops[-1]
    return {
        "seconds": seconds,
        "ok": ok,
        "outputs": outputs,
        "reference_s": references,
        "failures": dict(sorted(loop.failures.items())),
        "unexpected_failures": loop.unexpected,
    }


def trace(workload, state, ops_by_round, args) -> dict:
    from tracing import Tracer, deterministic_counts, instrument, layer_metrics

    ops = [op for round_ in ops_by_round for op in round_]
    plain = Loop(workload, state)
    for op in ops:
        plain.run_op(op)

    tracer = Tracer()
    with instrument(tracer):
        traced_state = workload.setup(args.seed, True, Path(args.workdir))
        try:
            traced = Loop(workload, traced_state)
            for op in ops:
                traced.run_op(op, tracer=tracer)
        finally:
            workload.teardown(traced_state)

    plain_summary, traced_summary = plain.summary(), traced.summary()
    metrics = layer_metrics(tracer, len(ops))
    metrics["trace.overhead_ratio"] = (
        traced_summary["ops_per_s"] / plain_summary["ops_per_s"]
        if plain_summary["ops_per_s"] > 0
        else 0.0
    )
    counts = deterministic_counts(tracer)
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "ops": len(ops),
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": tracer.spans,
                    "counts": counts,
                    "metrics": metrics,
                }
            ),
            encoding="utf-8",
        )
    return {
        "attempted": traced_summary["attempted"],
        "failed": traced_summary["failed"],
        "correct": traced_summary["correct"] and plain_summary["correct"],
        "failures": traced_summary["failures"],
        "metrics": metrics,
        "counts": counts,
    }


if __name__ == "__main__":
    sys.exit(main())
