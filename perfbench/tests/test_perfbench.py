"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.benchmark_json()


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["setup", 0.0, 99.0, -1, tracing.SETUP_OP],
    ]
    totals = tracing.span_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2
    assert totals["c"]["outer_s"] == pytest.approx(1.0)
    assert "setup" not in totals


def test_loop_counts_failures_by_class():
    class Fake(workloads.Workload):
        name = "fake"

        def run(self, state, op):
            if op == "wrong":
                raise workloads.CheckFailed("value")
            if op == "raise":
                raise ZeroDivisionError

    loop = worker.Loop(Fake(), None)
    for op in ("ok", "ok", "raise", "wrong"):
        loop.run_op(op)
    summary = loop.summary()
    assert (summary["attempted"], summary["failed"], summary["latency_samples"]) == (4, 2, 2)
    assert summary["failures"] == {"ZeroDivisionError": 1, "check failed: value": 1}
    assert summary["correct"] is False
    assert summary["unexpected_failures"] == 2
    assert summary["ops_per_s"] == pytest.approx(2 / sum(t for t, _ in loop.ops))


def test_expected_failures_keep_a_run_correct():
    class Fake(workloads.Workload):
        name = "fake"

        def expected_failure(self, op):
            return "exit 3" if op == "known" else None

        def run(self, state, op):
            if op in ("known", "other"):
                raise workloads.CliExit("exit 3")

    loop = worker.Loop(Fake(), None)
    for op in ("ok", "known"):
        loop.run_op(op)
    assert loop.summary()["correct"] is True
    loop.run_op("other")
    assert loop.summary()["correct"] is False


def _pass(seconds, ok=None, outputs=None, speed=1.0, failures=None, unexpected=0):
    return {
        "seconds": seconds,
        "ok": ok or [True] * len(seconds),
        "outputs": outputs or [None] * len(seconds),
        "reference_s": [worker.REFERENCE_NOMINAL_S / speed] * 3,
        "failures": failures or {},
        "unexpected_failures": unexpected,
    }


def test_best_of_times_each_op_by_its_faster_scaled_play():
    # the second pass ran while the host was half as fast: its reference
    # loop took twice as long, so its plays count at half their time
    passes = [
        _pass([1.0, 3.0, 0.5], ok=[True, True, False], failures={"exit 3": 1}),
        _pass([4.0, 4.0, 0.6], ok=[True, True, False], failures={"exit 3": 1}, speed=0.5),
    ]
    result = worker.best_of(passes)
    assert result["speed_scales"] == pytest.approx([1.0, 0.5])
    assert (result["attempted"], result["failed"], result["latency_samples"]) == (6, 2, 2)
    assert result["correct"] is True
    assert result["ops_per_s"] == pytest.approx(2 / (1.0 + 2.0 + 0.3))
    assert result["op_p90_ms"] == pytest.approx(2000.0)
    assert result["unscaled_ops_per_s"] == pytest.approx(4 / 13.1)


def test_best_of_rejects_outputs_that_differ_between_passes():
    passes = [_pass([1.0], outputs=["a"]), _pass([1.0], outputs=["b"])]
    result = worker.best_of(passes)
    assert result["correct"] is False
    assert result["failures"] == {"check failed: output differs between passes": 1}
    with pytest.raises(ValueError):
        worker.best_of([_pass([1.0]), _pass([1.0, 1.0])])


def test_cli_report_checks_reject_wrong_values():
    good = {"quantities": {"converged": True, "trace_monotone": True}}
    workloads.check_report(["minimize", "--model", "m.json"], good)
    bad = {"quantities": {"converged": False, "trace_monotone": True}}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(["minimize", "--model", "m.json"], bad)
    bounds = {"bounds": [
        {"kind": "optimal_fiber_length", "value": 40.0},
        {"kind": "cauchy_schwarz", "value": 39.0},
        {"kind": "topological", "value": 50.0},
    ]}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(["bound", "--model", "m.json"], bounds)


def test_rounds_repeat_for_a_seed():
    for w in workloads.WORKLOADS.values():
        a, b = w.rounds(5), w.rounds(5)
        assert [next(a) for _ in range(2)] == [next(b) for _ in range(2)], w.name


def _trace_counts(workload: str, seed: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", "trace",
            "--workdir", str(workdir),
        ],
        cwd=ROOT,
        env={
            "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        },
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload,must_count",
    [
        ("bound_sweep", ["numerics.integrand.points", "bundle.omega_norms.calls"]),
        ("conformal_descent", ["conformal.minimize_conformal.iterations"]),
        ("cli_reports", ["numerics.integrand.points", "modelio.parse_model_file.calls"]),
    ],
)
def test_traced_counts_repeat_exactly(tmp_path, workload, must_count):
    first = _trace_counts(workload, 11, tmp_path)
    second = _trace_counts(workload, 11, tmp_path)
    assert first["counts"] == second["counts"]
    for name in must_count:
        assert first["counts"].get(name, 0) > 0, name
    assert first["correct"] and second["correct"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
