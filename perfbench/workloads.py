"""The benchmark's workloads: inputs generated from a seed, ops, output checks.

Each workload is one closed-loop caller: the next op starts when the previous
one has completed.  Ops come in rounds (`rounds(seed)`), and a run always
measures a fixed number of whole rounds, so every run covers the same mix of
op kinds whatever the seed.  An op is plain data; `run(state, op)` builds
the library inputs from it, calls the library, and checks the outputs,
raising `CheckFailed` on a wrong answer; it may return a digest of the
output, which must be the same every time the op is played.  The library is imported in `setup`, never at module import,
so that set-up time includes it.

The checks follow the test suite: the criterion-4 bound chain, the
collapse sandwich of criterion 7, the sphere value of criterion 9, the
invariant routes against their closed forms, and the byte-identical reports
of criterion 10.  An op that raises is a failure; `expected_failure(op)`
names the failure class an op is known to end in, and any other failure
makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

SIGMA_S3 = 43.82323271625065499  # 3 * 2^(5/3) * pi^(4/3)
SLACK = 1.0 + 1e-9
# Largest relative excess of mu_upper over the constant factor's value that
# the 200-point grid of the minimizer leaves (seen: at most 6.3e-7, torus).
MU_GRID_TOL = 1e-5


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


class CliExit(Exception):
    """A CLI call exited with a nonzero code."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cosine_field(eq, length: float, coeffs, offset: float, period: float = 1.0):
    """offset + sum_k coeffs[k] cos(k pi s / (period L)), k = 1.., as a RadialField.

    period 1 gives modes with zero slope at both poles (smooth data on a
    profile base); period 1/2 gives modes periodic in s for the flat torus.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    ks = np.arange(1, coeffs.size + 1) * np.pi / (period * length)

    def value(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = offset + np.cos(np.outer(s, ks)) @ coeffs
        return out if out.size > 1 else out[0]

    def d1(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = -np.sin(np.outer(s, ks)) @ (coeffs * ks)
        return out if out.size > 1 else out[0]

    def d2(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = -np.cos(np.outer(s, ks)) @ (coeffs * ks**2)
        return out if out.size > 1 else out[0]

    return eq.RadialField(value=value, d1=d1, d2=d2)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    return [
        (a, b) for a in range(1, limit + 1) for b in range(1, limit + 1) if math.gcd(a, b) == 1
    ]


def berger_J(ell: float) -> float:
    """Functional of the constant factor on the Hopf base with fiber length ell:
    (pi/16)^(1/3) (32 pi ell^(2/3) - 8 pi ell^(8/3)); sigma(S^3) at ell = 1."""
    return (math.pi / 16.0) ** (1.0 / 3.0) * (
        32.0 * math.pi * ell ** (2.0 / 3.0) - 8.0 * math.pi * ell ** (8.0 / 3.0)
    )


class Workload:
    name = ""
    trace_rounds = 1
    # Op time of one round at the reference speed of `worker.py`, roughly: a
    # measured run plays `seconds / passes // round_s` rounds (at least one)
    # in each of its passes, so the ops a seed gives do not depend on how
    # fast the host runs them.
    round_s = 1.0
    passes = 2
    # Run once, untimed, at the end of set-up: it makes the lazy imports and
    # compiles bytecode.  It is fixed, not drawn from the seed, so that
    # `setup_s` does the same work on every seed.
    warm_up_op: dict

    def expected_failure(self, op) -> str | None:
        """The failure class `op` is known to end in at the commit that
        added the benchmark, or None if it must succeed."""
        return None

    def teardown(self, state) -> None:
        """Remove what `setup` wrote."""


# ---------------------------------------------------------------------------
# bound_sweep
# ---------------------------------------------------------------------------

class BoundSweep(Workload):
    """Criterion-4 samples: random cosine-mode F, log-uniform ell, conformal
    factor u, on three bases built once and shared by every op."""

    name = "bound_sweep"
    trace_rounds = 2
    round_s = 0.45
    warm_up_op = {
        "base": "sphere",
        "coeffs": [0.1, 0.0, 0.0, 0.0],
        "offset": 1.0,
        "ell": 1.0,
        "u": [0.05, 0.0, 0.0],
    }
    BASES = ("sphere", "wps12", "wps23")

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            round_ = []
            for key in self.BASES * 10:
                b = rng.normal(scale=0.25, size=3) / np.arange(1, 4) ** 2
                b /= max(1.0, float(np.sum(np.abs(b))) / 0.8)
                round_.append(
                    {
                        "base": key,
                        "coeffs": (rng.normal(scale=0.4, size=4) / np.arange(1, 5) ** 2).tolist(),
                        "offset": float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])),
                        "ell": _log_uniform(rng, 0.2, 5.0),
                        "u": b.tolist(),
                    }
                )
            yield round_

    def setup(self, seed: int, in_process: bool, workdir: Path):
        import eqyamabe as eq

        return {
            "eq": eq,
            "hopf": eq.hopf_metric(),
            "bases": {
                "sphere": eq.make_round_sphere(0.5),
                "wps12": eq.wps_profile(1, 2),
                "wps23": eq.wps_profile(2, 3),
            },
        }

    def run(self, state, op) -> None:
        eq = state["eq"]
        base = state["bases"][op["base"]]
        F = _cosine_field(eq, base.length, op["coeffs"], op["offset"])
        norms = eq.omega_norms(eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F))
        J = eq.functional_J_closed(base, F, op["ell"], norms=norms)
        _, j_max = eq.optimal_ell(base, F)
        cs = eq.bound_cauchy_schwarz(base, F)
        main = eq.bound_theorem_main(eq.chi_orb(base), norms.chern_number)
        _check(J <= j_max * SLACK + 1e-12, "J <= J_max")
        _check(j_max <= cs * SLACK + 1e-12, "J_max <= CS")
        _check(cs <= main * SLACK + 1e-12, "CS <= main bound")
        if op["base"] == "sphere":
            u = _cosine_field(eq, base.length, op["u"], 1.0)
            val = eq.conformal_functional(state["hopf"], u)
            _check(val >= SIGMA_S3 - 1e-6, "conformal value >= sigma(S^3)")


# ---------------------------------------------------------------------------
# conformal_descent
# ---------------------------------------------------------------------------

class ConformalDescent(Workload):
    """minimize_conformal from a seeded cosine-perturbed u0, one metric kind
    of each per round."""

    name = "conformal_descent"
    trace_rounds = 2
    round_s = 0.9
    # One pass of twice as many descents: their cost changes by up to 3x
    # with u0, so the inputs, not the host, set most of the spread.
    passes = 1
    warm_up_op = {"kind": "torus", "ell": 0.5, "u0": [0.05, 0.0, 0.0]}
    KINDS = ("hopf", "wps23", "wps12", "torus")

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            round_ = []
            for i in rng.permutation(len(self.KINDS)):
                kind = self.KINDS[i]
                ell = _log_uniform(rng, 0.02, 1.0) if kind == "torus" else _log_uniform(
                    rng, 0.25, 1.0
                )
                u0 = (rng.normal(scale=0.1, size=3) / np.arange(1, 4)).tolist()
                round_.append({"kind": kind, "ell": ell, "u0": u0})
            yield round_

    def setup(self, seed: int, in_process: bool, workdir: Path):
        import eqyamabe as eq

        return {"eq": eq}

    def run(self, state, op) -> None:
        eq = state["eq"]
        kind, ell = op["kind"], op["ell"]
        if kind == "hopf":
            metric = eq.hopf_metric(ell)
        elif kind == "wps23":
            metric = eq.wps_metric(2, 3, ell)
        elif kind == "wps12":
            metric = eq.wps_metric(1, 2, ell)
        else:
            metric = eq.InvariantMetric(
                base=eq.FlatTorusBase(length=1.0, radius=1.0),
                ell=eq.RadialField.const(ell),
                F=eq.RadialField.const(1.0),
            )
        period = 0.5 if kind == "torus" else 1.0
        u0 = _cosine_field(eq, metric.base.length, op["u0"], 1.0, period=period).value
        result = eq.minimize_conformal(metric, u0=u0)
        mu = result.mu_upper
        _check(math.isfinite(mu), "finite mu_upper")
        _check(result.converged, "descent converged")
        _check(bool(np.all(np.diff(result.trace) <= 1e-12)), "monotone trace")
        # the constant factor is a competitor, so the descent must end at or
        # below its functional value, up to the discretization of the grid
        constant = eq.functional_J(metric).J
        _check(mu <= constant + MU_GRID_TOL * abs(constant), "mu_upper <= constant-factor value")
        if kind == "torus":
            # The constant factor minimizes on the flat torus (Hoelder), so
            # `upper` is the infimum and mu may not fall below it.  From a
            # perturbed start the descent stops when its relative decrease
            # over 50 iterations drops below 1e-10, which leaves it up to
            # ~1.3e-9 above `upper` (criterion 7 starts at the optimum and
            # uses 1e-9 absolute): the approach is checked to 1e-8 relative.
            upper, lower = eq.collapse_bounds(metric.base, metric.F, ell)
            _check(lower - 1e-9 <= mu, "collapse sandwich: Hoelder lower bound")
            _check(upper - 1e-9 <= mu, "collapse sandwich: mu_upper above the infimum")
            _check(
                mu <= upper + 1e-8 * max(1.0, abs(upper)),
                "collapse sandwich: descent reached the optimum",
            )
        elif kind == "hopf":
            target = berger_J(ell)
            _check(abs(mu - target) <= 1e-3 * target, "sphere value of the constant factor")


# ---------------------------------------------------------------------------
# cli_reports
# ---------------------------------------------------------------------------

# The wps model draws its weights from small pairs that every command
# accepts; this workload measures the command surface, not the weight domain.
CLI_WPS_PAIRS = [(1, 2), (2, 3), (3, 5), (2, 5), (3, 4), (1, 3)]
PROFILE_AMPLITUDE = 0.1  # sampled profile: the round unit sphere with an equatorial bump


def _cli_models(rng) -> dict[str, dict]:
    ell = lambda lo, hi: round(_log_uniform(rng, lo, hi), 6)  # noqa: E731
    m1, m2 = CLI_WPS_PAIRS[int(rng.integers(len(CLI_WPS_PAIRS)))]
    # a fixed shape, so every run has the same op mix: `functional` on this
    # profile exits 3 at some amplitudes and not at others
    s = np.linspace(0.0, math.pi, 201)
    phi = np.sin(s) * (1.0 + PROFILE_AMPLITUDE * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    return {
        "sphere": {
            "base": {"type": "round_sphere", "radius": 0.5},
            "ell": {"type": "constant", "value": ell(0.5, 1.5)},
            "F": {"type": "constant", "value": 2.0},
        },
        "wps": {
            "base": {"type": "wps", "m1": m1, "m2": m2},
            "ell": {"type": "constant", "value": ell(0.3, 2.0)},
            "F": {"type": "wps"},
        },
        # every (1, m) and (m, 1) with m >= 10 is in the documented weight
        # domain, and `wps_profile` raises GridTooCoarse on all of them
        "wps_lopsided": {
            "base": {"type": "wps", "m1": 1, "m2": int(rng.integers(10, 21))},
            "ell": {"type": "constant", "value": ell(0.3, 2.0)},
            "F": {"type": "wps"},
        },
        "torus": {
            "base": {"type": "flat_torus", "length": 1.0, "radius": 1.0},
            "ell": {"type": "constant", "value": ell(0.05, 1.0)},
            "F": {"type": "constant", "value": 1.0},
        },
        "profile": {
            "base": {
                "type": "profile",
                "samples": [[float(a), float(b)] for a, b in zip(s, phi)],
                "m_start": 1,
                "m_end": 1,
            },
            "ell": {"type": "constant", "value": ell(0.5, 1.5)},
            "F": {"type": "constant", "value": 1.0},
        },
    }


def weighted_hopf(m1: int, m2: int) -> float:
    """sigma(S^3) ((m1 + m2) / (2 sqrt(m1 m2)))^(4/3), the weighted-pair bound."""
    return SIGMA_S3 * ((m1 + m2) / (2.0 * math.sqrt(m1 * m2))) ** (4.0 / 3.0)


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_report(argv: list[str], report: dict) -> None:
    """Check the values of one CLI report against the library's own
    cross-checks and closed forms."""
    command = argv[0]
    q = report.get("quantities", {})
    if command == "invariants":
        m1, m2 = int(_flag(argv, "--m1")), int(_flag(argv, "--m2"))
        c1, chi = float(Fraction(1, m1 * m2)), float(Fraction(1, m1) + Fraction(1, m2))
        value = {k: v["value"] for k, v in q.items() if k != "deltas"}
        _check(value["c1_closed"] == c1 and value["chi_closed"] == chi, "closed forms")
        routes = [  # (route, distance from the closed form, tolerance)
            ("c1 quadrature", abs(value["c1_quadrature"] - c1), 1e-8 * c1),
            ("chi quadrature", abs(value["chi_quadrature"] - chi), 1e-6),
            ("chi boundary limits", abs(value["chi_boundary"] - chi), 1e-8),
        ]
        for route, distance, tol in routes:
            _check(distance <= tol, f"{route} vs closed form")
        for key, delta in q["deltas"].items():
            _check(delta["value"] <= 1e-6, f"reported delta {key}")
    elif command == "bound":
        values = {b["kind"]: b["value"] for b in report["bounds"]}
        if "--model" in argv:
            j_max = values["optimal_fiber_length"]
            cs, top = values["cauchy_schwarz"], values["topological"]
            _check(j_max <= cs * SLACK + 1e-12, "model bound: J_max <= CS")
            _check(cs <= top * SLACK + 1e-12, "model bound: CS <= topological")
        else:
            m1, m2 = int(_flag(argv, "--m1")), int(_flag(argv, "--m2"))
            expected = weighted_hopf(m1, m2)
            _check(math.isclose(values["weighted_pair"], expected, rel_tol=1e-12), "weighted pair")
            _check(math.isclose(values["topological"], expected, rel_tol=1e-12), "topological")
    elif command in ("functional", "scan"):
        ell = _flag(argv, "--ell")
        if ell is None:
            _check(math.isfinite(q["J"]["value"]), "finite J")
        else:
            J = report["tables"]["J"]
            _check(len(J) == int(ell.split(":")[3]), "one J per scanned ell")
            _check(all(math.isfinite(v) for v in J), "finite J over the scan")
    elif command == "minimize":
        _check(q["converged"] is True, "minimize converged")
        _check(q["trace_monotone"] is True, "minimize trace monotone")
    elif command == "laplace":
        _check(q["positive"] is True, "uniformized curvature positive")


def _scan_arg(rng) -> str:
    lo = round(_log_uniform(rng, 0.05, 0.3), 4)
    hi = round(lo * _log_uniform(rng, 4.0, 20.0), 4)
    return f"scan:{lo}:{hi}:{int(rng.integers(6, 16))}"


class CliReports(Workload):
    """One `python -m eqyamabe.cli` call per op.  The seed writes the model
    files and fixes the argv list once; every round replays that list in a
    new order, so each argv repeats and its report must repeat byte for byte.
    The traced run replays the same argv in-process through `cli.main`."""

    name = "cli_reports"
    round_s = 10.0
    warm_up_op = {"argv": ["bound", "--m1", "2", "--m2", "3"]}
    # `functional` on these models exits 3 (quadrature did not reach
    # tolerance; GridTooCoarse in wps_profile)
    EXPECTED_EXIT_3 = {
        ("functional", "--model", "{models}/profile.json"),
        ("functional", "--model", "{models}/wps_lopsided.json"),
    }

    def expected_failure(self, op) -> str | None:
        return "exit 3" if tuple(op["argv"]) in self.EXPECTED_EXIT_3 else None

    def argv_list(self, seed: int) -> tuple[dict, list[list[str]]]:
        rng = np.random.default_rng(seed)
        models = _cli_models(rng)
        pairs = coprime_pairs(20)
        a, b = pairs[int(rng.integers(len(pairs)))]
        c, d = pairs[int(rng.integers(len(pairs)))]
        path = lambda key: f"{{models}}/{key}.json"  # noqa: E731
        argvs = [
            ["invariants", "--m1", str(a), "--m2", str(b)],
            ["bound", "--m1", str(c), "--m2", str(d)],
            ["bound", "--model", path("wps")],
            ["bound", "--model", path("sphere")],
            ["functional", "--model", path("wps")],
            ["functional", "--model", path("torus")],
            ["functional", "--model", path("profile")],
            ["functional", "--model", path("wps_lopsided")],
            ["functional", "--model", path("sphere"), "--ell", _scan_arg(rng)],
            ["scan", "--model", path("torus"), "--ell", _scan_arg(rng)],
            ["minimize", "--model", path("sphere")],
            ["laplace", "--model", path("profile")],
            ["laplace", "--model", path("wps")],
        ]
        return models, argvs

    def rounds(self, seed: int):
        _, argvs = self.argv_list(seed)
        rng = np.random.default_rng([seed, 1])
        while True:
            yield [{"argv": argvs[i]} for i in rng.permutation(len(argvs))]

    def setup(self, seed: int, in_process: bool, workdir: Path):
        models, _ = self.argv_list(seed)
        model_dir = Path(tempfile.mkdtemp(prefix=f"models-{seed}-", dir=workdir))
        for key, doc in models.items():
            (model_dir / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
        state = {"model_dir": model_dir, "outputs": {}, "in_process": in_process}
        if in_process:
            import eqyamabe.cli

            state["cli"] = eqyamabe.cli
        else:
            root = Path(__file__).resolve().parents[1]
            env = dict(os.environ)
            env["PYTHONPATH"] = str(root / "src")
            state["env"] = env
        return state

    def teardown(self, state) -> None:
        shutil.rmtree(state["model_dir"])

    def _call(self, state, argv: list[str]) -> bytes:
        if state["in_process"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = state["cli"].main(argv)
            stdout = out.getvalue().encode("utf-8")
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "eqyamabe.cli", *argv],
                env=state["env"],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                timeout=120,
            )
            code, stdout = proc.returncode, proc.stdout
        if code != 0:
            raise CliExit(f"exit {code}")
        return stdout

    def run(self, state, op) -> str:
        argv = [a.replace("{models}", str(state["model_dir"])) for a in op["argv"]]
        stdout = self._call(state, argv)
        key = tuple(op["argv"])
        first = state["outputs"].setdefault(key, stdout)
        _check(first == stdout, "byte-identical report for a repeated argv")
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            raise CheckFailed("report is not JSON") from exc
        check_report(op["argv"], report)
        return hashlib.sha256(stdout).hexdigest()


WORKLOADS = {w.name: w for w in (BoundSweep(), ConformalDescent(), CliReports())}
