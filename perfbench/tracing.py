"""Spans around calls into the eqyamabe modules, recorded from outside the library.

`instrument(tracer)` replaces the public functions listed in `LAYER_FUNCTIONS`
with span-recording wrappers in every eqyamabe module that holds them (the
modules import each other's functions by name), and wraps the callables
stored in every `ConeSurfaceProfile` (phi, phi', phi'') and `RadialField`
(value, d1, d2) created while it is active, so that base-profile and field
evaluations are counted point by point.  Integrands passed to
`numerics.integrate` become spans of their own.  Everything is restored on
exit; the library's code is never edited.

Spans are kept in memory as [name, start, end, parent index, op id] and
reduced to per-layer numbers by `layer_metrics`.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

import numpy as np

# module -> public functions that get a span named "<module>.<function>"
LAYER_FUNCTIONS = {
    "numerics": ["integrate", "minimize_scalar", "limit_at_zero"],
    "orbifold": [
        "wps_profile",
        "make_round_sphere",
        "profile_from_samples",
        "profile_from_callables",
        "area",
    ],
    "invariants": ["c1_quadrature", "chi_quadrature", "chi_boundary", "build_invariant_report"],
    "bundle": ["omega_norms"],
    "yamabe": [
        "functional_J",
        "functional_J_closed",
        "optimal_ell",
        "bound_cauchy_schwarz",
        "conformal_functional",
        "bound_theorem_main",
        "bound_weighted_hopf",
        "wps_metric",
        "hopf_metric",
    ],
    "conformal": ["minimize_conformal", "uniformize_positive", "laplace_solve_radial"],
    "scaling": ["ell_scan", "collapse_bounds"],
    "modelio": ["parse_model_file", "build_metric", "canonical_json"],
    "cli": ["main"],
}

BUILD_SPANS = (
    "orbifold.wps_profile",
    "orbifold.make_round_sphere",
    "orbifold.profile_from_samples",
    "orbifold.profile_from_callables",
)

SETUP_OP = -1


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = SETUP_OP
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        """Add to a count; only timed ops (op id >= 0) are counted."""
        if self.op >= 0:
            self.counts[name] += n

    def span(self, name: str, fn, points: bool = False):
        """`fn` wrapped in a span; with `points`, the size of the first
        argument is added to the count `<name>.points`."""

        def traced(*args, **kwargs):
            if points:
                self.count(name + ".points", int(np.size(args[0])))
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        traced._bench_wrapped = True
        return traced

    def counter(self, name: str, fn):
        """`fn` wrapped to add the size of its first argument to `<name>.points`."""

        def counted(*args, **kwargs):
            self.count(name + ".points", int(np.size(args[0])))
            return fn(*args, **kwargs)

        counted._bench_wrapped = True
        return counted


def _is_wrapped(fn) -> bool:
    return getattr(fn, "_bench_wrapped", False)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls into eqyamabe through `tracer` for the duration of the block."""
    from eqyamabe import bundle, orbifold

    for short in LAYER_FUNCTIONS:
        importlib.import_module(f"eqyamabe.{short}")
    modules = [m for n, m in sys.modules.items() if n == "eqyamabe" or n.startswith("eqyamabe.")]
    replacements = {}
    for short, names in LAYER_FUNCTIONS.items():
        mod = sys.modules[f"eqyamabe.{short}"]
        for name in names:
            orig = getattr(mod, name)
            replacements[id(orig)] = (orig, _wrap_function(tracer, f"{short}.{name}", orig))

    patched = []  # (module, attribute, original)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    profile_init = orbifold.ConeSurfaceProfile.__init__
    field_init = bundle.RadialField.__init__

    def traced_profile_init(self, *args, **kwargs):
        profile_init(self, *args, **kwargs)
        for attr in ("phi", "phi_d1", "phi_d2"):
            fn = getattr(self, attr)
            if not _is_wrapped(fn):
                object.__setattr__(self, attr, tracer.span("orbifold.profile", fn, points=True))

    def traced_field_init(self, *args, **kwargs):
        field_init(self, *args, **kwargs)
        for attr in ("value", "d1", "d2"):
            fn = getattr(self, attr)
            if not _is_wrapped(fn):
                object.__setattr__(self, attr, tracer.counter("bundle.field", fn))

    orbifold.ConeSurfaceProfile.__init__ = traced_profile_init
    bundle.RadialField.__init__ = traced_field_init
    try:
        yield tracer
    finally:
        orbifold.ConeSurfaceProfile.__init__ = profile_init
        bundle.RadialField.__init__ = field_init
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def _wrap_function(tracer: Tracer, name: str, fn):
    if name == "numerics.integrate":
        spanned = tracer.span(name, fn)

        def integrate(f, *args, **kwargs):
            return spanned(tracer.span("numerics.integrand", f, points=True), *args, **kwargs)

        return integrate
    if name == "conformal.minimize_conformal":
        spanned = tracer.span(name, fn)

        def minimize_conformal(*args, **kwargs):
            result = spanned(*args, **kwargs)
            tracer.count("conformal.minimize_conformal.iterations", len(result.trace))
            return result

        return minimize_conformal
    return tracer.span(name, fn)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name, over spans of timed ops (op id >= 0): calls, self
    seconds, and inclusive seconds of the spans with no same-name ancestor.
    Build spans are also pooled under "orbifold.build"."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    totals: dict[str, dict[str, float]] = {}

    def add(name, key, value):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
        entry[key] += value

    for i, (name, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        dur = end - start
        add(name, "calls", 1)
        add(name, "self_s", dur - child_time[i])
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            add(name, "outer_s", dur)
        if name in BUILD_SPANS and not any(a in BUILD_SPANS for a in ancestors):
            add("orbifold.build", "outer_s", dur)
    return totals


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """The span- and count-derived per-layer metrics, per traced op."""
    totals = span_totals(tracer.spans)
    counts = tracer.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n_ops

    def self_ms(name):
        return 1e3 * totals.get(name, {}).get("self_s", 0.0) / n_ops

    def outer_ms(name):
        return 1e3 * totals.get(name, {}).get("outer_s", 0.0) / n_ops

    iterations = counts["conformal.minimize_conformal.iterations"]
    minimize_self_s = totals.get("conformal.minimize_conformal", {}).get("self_s", 0.0)
    return {
        "numerics.integrate.calls": calls("numerics.integrate"),
        "numerics.integrate.points": counts["numerics.integrand.points"] / n_ops,
        "numerics.integrate.self_ms": self_ms("numerics.integrate"),
        "numerics.integrand.self_ms": self_ms("numerics.integrand"),
        "numerics.minimize_scalar.calls": calls("numerics.minimize_scalar"),
        "orbifold.profile.points": counts["orbifold.profile.points"] / n_ops,
        "orbifold.profile.ms": self_ms("orbifold.profile"),
        "orbifold.build.ms": outer_ms("orbifold.build"),
        "invariants.c1_quadrature.ms": outer_ms("invariants.c1_quadrature"),
        "invariants.chi_quadrature.ms": outer_ms("invariants.chi_quadrature"),
        "invariants.chi_boundary.ms": outer_ms("invariants.chi_boundary"),
        "bundle.omega_norms.calls": calls("bundle.omega_norms"),
        "bundle.omega_norms.self_ms": self_ms("bundle.omega_norms"),
        "bundle.field.points": counts["bundle.field.points"] / n_ops,
        "yamabe.functional_J.self_ms": self_ms("yamabe.functional_J"),
        "yamabe.functional_J_closed.self_ms": self_ms("yamabe.functional_J_closed"),
        "yamabe.optimal_ell.self_ms": self_ms("yamabe.optimal_ell"),
        "yamabe.bound_cauchy_schwarz.self_ms": self_ms("yamabe.bound_cauchy_schwarz"),
        "yamabe.conformal_functional.self_ms": self_ms("yamabe.conformal_functional"),
        "conformal.minimize_conformal.iterations": iterations / n_ops,
        "conformal.minimize_conformal.self_ms": self_ms("conformal.minimize_conformal"),
        "conformal.minimize_conformal.us_per_iteration": (
            1e6 * minimize_self_s / iterations if iterations else 0.0
        ),
        "conformal.uniformize_positive.ms": outer_ms("conformal.uniformize_positive"),
        "scaling.ell_scan.ms": outer_ms("scaling.ell_scan"),
        "scaling.collapse_bounds.ms": outer_ms("scaling.collapse_bounds"),
        "modelio.parse_model_file.ms": outer_ms("modelio.parse_model_file"),
        "modelio.build_metric.ms": outer_ms("modelio.build_metric"),
        "modelio.canonical_json.ms": outer_ms("modelio.canonical_json"),
        "cli.main.self_ms": self_ms("cli.main"),
    }


def deterministic_counts(tracer: Tracer) -> dict[str, int]:
    """Counts that must repeat exactly for the same seed: points per counter,
    calls per span name and minimizer iterations, summed over timed ops."""
    out = Counter(tracer.counts)
    for name, entry in span_totals(tracer.spans).items():
        if name != "orbifold.build":
            out[name + ".calls"] += int(entry["calls"])
    return dict(sorted(out.items()))
