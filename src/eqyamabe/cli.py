"""Command-line surface.

Subcommands:
    invariants   Chern number and Euler characteristic of a weighted pair
    bound        topological upper bounds (pair, explicit chi/c1, or orbit count)
    functional   functional value of a model, or a fiber-length scan
    scan         fiber-length scan with regime flags and fitted exponent
    minimize     conformal minimization (upper bound on the invariant infimum)
    laplace      uniformize the model's base to positive curvature

Exit codes: 0 ok, 2 usage or parse error, 3 numerical failure,
4 regime mismatch between the request and the model's topology.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .bundle import NormReport, RadialField, omega_norms
from .conformal import MinimizerConfig, minimize_conformal, uniformize_positive
from .errors import (
    CaseMismatchError,
    EqYamabeError,
    NumericalError,
    UsageError,
)
from .invariants import build_invariant_report, c1_closed, chi_boundary, chi_closed
from .modelio import (
    TOOL_NAME,
    TOOL_VERSION,
    build_metric,
    build_quadrature,
    canonical_json,
    parse_model_file,
    table_to_csv,
)
from .numerics import QuadratureConfig
from .orbifold import area, chi_orb
from .scaling import (
    REGIME_DIVERGES,
    REGIME_INTERIOR_MAX,
    REGIME_SUP_ZERO,
    ell_scan,
    fiber_regime,
)
from .yamabe import (
    BoundReport,
    bound_cauchy_schwarz,
    bound_theorem_main,
    bound_weighted_hopf,
    functional_J,
    hebey_vaugon_bound,
    optimal_ell,
)

_REGIME_NOTE = {
    REGIME_INTERIOR_MAX: "interior maximum in the fiber length",
    REGIME_DIVERGES: "functional unbounded as the fiber grows",
    REGIME_SUP_ZERO: "supremum 0, not attained (collapse)",
}

# a measured Chern number at or below this in magnitude counts as zero, and
# `bound --model` then gives no topological bound (it needs c1 != 0)
_C1_ZERO_TOL = 1e-12
# a minimizer trace whose steps rise by at most this is reported monotone
_TRACE_RISE_TOL = 1e-12


def _quantity(value, error=None, route=None, exact=False):
    q = {"value": float(value)}
    if exact:
        q["exact"] = True
    else:
        q["error_estimate"] = float(error if error is not None else 0.0)
    if route is not None:
        q["route"] = route
    return q


def _emit(args, report: dict, csv_text: str | None = None) -> None:
    payload = canonical_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text if (csv_text is not None and args.csv) else payload)
    else:
        sys.stdout.write(csv_text if (csv_text is not None and args.csv) else payload)


def _base_report(args, command: str) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": command,
        "seed": args.seed,
    }


def _open_model(args, command: str):
    """The spec and metric of the model file and the command's report, which
    echoes the model: how every model command reads its file."""
    spec = parse_model_file(args.model)
    metric = build_metric(spec)
    report = _base_report(args, command)
    report["model"] = spec.raw
    return spec, metric, report


def _parse_ell_arg(text: str) -> tuple[str, object]:
    if text.startswith("scan:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise UsageError("--ell scan syntax is scan:lo:hi:n")
        try:
            lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise UsageError(f"--ell scan: {exc}") from exc
        if lo <= 0 or hi <= lo or n < 2:
            raise UsageError("--ell scan needs 0 < lo < hi and n >= 2")
        return "scan", np.geomspace(lo, hi, n)
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"--ell: expected a number or scan:lo:hi:n, got {text!r}") from exc
    if value <= 0:
        raise UsageError("--ell must be positive")
    return "value", value


def _tol_config(cls, **fields):
    """A config built from --tol; its range check becomes a usage error."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(f"--tol: {exc}") from exc


def _tolerance_cfg(args):
    """Quadrature override built from --tol (tighter or looser refinement)."""
    if args.tol is None:
        return None
    return _tol_config(QuadratureConfig, rel_tol=args.tol, abs_tol=args.tol * 1e-2)


def cmd_invariants(args) -> int:
    m1, m2 = args.m1, args.m2
    report = _base_report(args, "invariants")
    report["m1"] = m1
    report["m2"] = m2
    cfg = _tolerance_cfg(args)
    # (value, error) per route; the quadrature routes come from one report,
    # so the deltas of "all" describe exactly the printed values
    c1q = chiq = chib = None
    if args.method in ("quadrature", "all"):
        rep = build_invariant_report(m1, m2, cfg)
        c1q = (rep.c1_quadrature, rep.c1_error)
        chiq = (rep.chi_quadrature, rep.chi_quadrature_error)
        chib = rep.chi_boundary if args.method == "all" else None
    elif args.method == "boundary":
        chib = chi_boundary(m1, m2)
    quantities: dict = {}
    if args.method in ("closed", "all"):
        quantities["c1_closed"] = _quantity(float(c1_closed(m1, m2)), exact=True)
        quantities["chi_closed"] = _quantity(float(chi_closed(m1, m2)), exact=True)
    if c1q is not None:
        quantities["c1_quadrature"] = _quantity(*c1q, "quadrature")
        quantities["chi_quadrature"] = _quantity(*chiq, "quadrature")
    if chib is not None:
        # each pole slope and their sum round once: 2 eps chi bounds the error
        rounding = 2.0 * sys.float_info.epsilon * chib
        quantities["chi_boundary"] = _quantity(chib, rounding, "pole_slopes")
    if args.method == "all":
        quantities["deltas"] = {k: _quantity(v, exact=True) for k, v in rep.deltas().items()}
    report["quantities"] = quantities
    _emit(args, report)
    return 0


def _bound(kind: str, value: float, inputs: dict, error: float | None = None) -> dict:
    """A bound's report entry, exact unless an error is given; `BoundReport`
    checks that the value is finite."""
    b = BoundReport(kind, value, inputs)
    return {"kind": b.kind, **_quantity(b.value, error=error, exact=error is None),
            "inputs": b.inputs}


def cmd_bound(args) -> int:
    report = _base_report(args, "bound")
    # validated on every form, although only --model has integrals to tune
    tol_cfg = _tolerance_cfg(args)
    bounds: list[dict] = []
    if args.hebey_vaugon:
        if args.k == "inf":
            k = math.inf
        else:
            try:
                k = int(args.k)
            except ValueError as exc:
                raise UsageError(f"--k: expected an integer or 'inf', got {args.k!r}") from exc
        try:
            value = hebey_vaugon_bound(args.n, k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        k_echo = "inf" if k == math.inf else int(k)
        entry = _bound("orbit_count", value, {"n": args.n, "k": k_echo})
        if k == math.inf:
            entry["value"] = None  # no finite orbit, no constraint: JSON has no Infinity
        bounds.append(entry)
    elif args.model:
        spec, metric, report = _open_model(args, "bound")
        cfg = build_quadrature(spec.quadrature) or tol_cfg
        base = metric.base
        chi = chi_orb(base)
        norms = omega_norms(metric, cfg)
        report["inputs"] = {
            "chi": _quantity(chi, exact=True),
            "c1_measured": _quantity(norms.chern_number, 0.0, "quadrature"),
        }
        bounds, regime = _bounds_for(chi, base, metric.F, cfg, norms)
        report["regime"] = regime
    elif args.chi is not None or args.c1 is not None:
        if args.chi is None or args.c1 is None:
            raise UsageError("--chi and --c1 must be given together")
        pair = {"chi": args.chi, "c1": args.c1}
        bounds.append(_bound("topological", bound_theorem_main(args.chi, args.c1), pair))
        report["regime"] = _REGIME_NOTE[REGIME_INTERIOR_MAX]
    else:
        if args.m1 is None or args.m2 is None:
            raise UsageError("provide --m1/--m2, --chi/--c1, --model, or --hebey-vaugon")
        chi = float(chi_closed(args.m1, args.m2))
        c1 = float(c1_closed(args.m1, args.m2))
        pair = {"m1": args.m1, "m2": args.m2, "chi": chi, "c1": c1}
        bounds = [
            _bound("weighted_pair", bound_weighted_hopf(args.m1, args.m2), pair),
            _bound("topological", bound_theorem_main(chi, c1), pair),
            _bound("orbit_count", hebey_vaugon_bound(3, 1), {"n": 3, "k": 1}),
        ]
        report["regime"] = _REGIME_NOTE[REGIME_INTERIOR_MAX]
    report["bounds"] = bounds
    _emit(args, report)
    return 0


def _bounds_for(chi: float, base, F, cfg, norms: NormReport) -> tuple[list[dict], str]:
    # the regime is `scan`'s; these values come from measured norms: carry
    # the norm-quadrature tolerance as a conservative relative error estimate
    regime = fiber_regime(chi, norms)
    if regime != REGIME_INTERIOR_MAX:
        return [], _REGIME_NOTE[regime]
    c1 = norms.chern_number
    measured_inputs = {"chi": chi, "c1_measured": c1}
    ell_star, j_max = optimal_ell(base, F, cfg, norms=norms)
    cs = bound_cauchy_schwarz(base, F, cfg, norms=norms)
    bounds = [
        ("optimal_fiber_length", j_max, dict(measured_inputs, ell_star=ell_star)),
        ("cauchy_schwarz", cs, measured_inputs),
    ]
    if abs(c1) > _C1_ZERO_TOL:
        bounds.append(("topological", bound_theorem_main(chi, c1), measured_inputs))
    entries = [_bound(kind, value, inputs, abs(value) * 5e-8) for kind, value, inputs in bounds]
    return entries, _REGIME_NOTE[regime]


def cmd_functional(args) -> int:
    spec, metric, report = _open_model(args, "functional")
    cfg = build_quadrature(spec.quadrature) or _tolerance_cfg(args)
    csv_text = None
    if args.ell is not None:
        kind, parsed = _parse_ell_arg(args.ell)
    else:
        kind = None
    if kind == "scan":
        table = ell_scan(metric.base, metric.F, parsed, cfg)
        report["regime"] = table.regime
        cols = table.columns()
        report["tables"] = cols
        if table.exponent is not None:
            report["fit"] = {
                "exponent": _quantity(table.exponent, 0.0, "log_log_fit"),
                "coefficient": _quantity(table.coefficient, 0.0, "log_log_fit"),
            }
        csv_text = table_to_csv(cols)
    else:
        if kind == "value":
            metric = type(metric)(base=metric.base, ell=RadialField.const(parsed), F=metric.F)
        rep = functional_J(metric, cfg)
        report["quantities"] = {
            "J": _quantity(rep.J, rep.error_estimate, rep.route),
            "numerator": _quantity(rep.numerator, rep.error_estimate, rep.route),
            "denominator": _quantity(rep.denominator, 0.0, rep.route),
        }
    _emit(args, report, csv_text)
    return 0


def cmd_scan(args) -> int:
    if args.ell is None:
        raise UsageError("scan requires --ell scan:lo:hi:n")
    return cmd_functional(args)


def cmd_minimize(args) -> int:
    _, metric, report = _open_model(args, "minimize")
    if args.tol is None:
        cfg = MinimizerConfig()
    else:
        cfg = _tol_config(MinimizerConfig, decrease_tol=args.tol)
    result = minimize_conformal(metric, cfg)
    report["quantities"] = {
        "mu_upper": _quantity(result.mu_upper, result.error_estimate, "galerkin_newton"),
        # the trace starts with the value at u0: steps taken, not values seen
        "iterations": _quantity(float(len(result.trace) - 1), exact=True),
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "modes": _quantity(float(result.modes), exact=True),
        "trace_monotone": bool(np.all(np.diff(result.trace) <= _TRACE_RISE_TOL)),
    }
    report["tables"] = {"trace": result.trace.tolist()}
    _emit(args, report, table_to_csv({"iteration": list(range(len(result.trace))),
                                      "J": result.trace.tolist()}))
    return 0


def cmd_laplace(args) -> int:
    _, metric, report = _open_model(args, "laplace")
    u, min_scal = uniformize_positive(metric.base)
    u_values = u.value(np.linspace(0.0, metric.base.length, 4001))
    chi = chi_orb(metric.base)
    vol = area(metric.base)
    target = 4.0 * math.pi * chi / vol
    report["quantities"] = {
        "min_scal": _quantity(min_scal, 0.0, "galerkin_series_at_nodes"),
        "uniformized_constant": _quantity(target, 0.0, "closed_form"),
        "positive": bool(min_scal > 0.0),
        "u_range": {
            "min": _quantity(float(np.min(u_values)), exact=True),
            "max": _quantity(float(np.max(u_values)), exact=True),
        },
    }
    _emit(args, report)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report (or CSV with --csv) to this path")
    p.add_argument("--csv", action="store_true", help="emit tables as CSV instead of JSON")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="Chern number and Euler characteristic")
    p_inv.add_argument("--m1", type=int, required=True)
    p_inv.add_argument("--m2", type=int, required=True)
    p_inv.add_argument(
        "--method", choices=["quadrature", "closed", "boundary", "all"], default="all"
    )
    p_inv.add_argument("--tol", type=float, help="relative tolerance of the quadrature routes")
    _add_common(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_bound = sub.add_parser("bound", help="topological upper bounds")
    p_bound.add_argument("--m1", type=int)
    p_bound.add_argument("--m2", type=int)
    p_bound.add_argument("--chi", type=float)
    p_bound.add_argument("--c1", type=float)
    p_bound.add_argument("--model", help="model file; uses measured chi and c1")
    p_bound.add_argument("--hebey-vaugon", action="store_true", dest="hebey_vaugon")
    p_bound.add_argument("--n", type=int, default=3, help="dimension for --hebey-vaugon")
    p_bound.add_argument("--k", default="1", help="orbit cardinality (integer or 'inf')")
    p_bound.add_argument(
        "--tol", type=float, help="relative quadrature tolerance for --model, unless the "
        "model file has a quadrature block"
    )
    _add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    for name, fn, help_text in (
        ("functional", cmd_functional, "functional value or fiber-length scan"),
        ("scan", cmd_scan, "fiber-length scan with regime flags"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True)
        p.add_argument("--ell", help="fiber length VALUE or scan:lo:hi:n")
        p.add_argument(
            "--tol", type=float, help="relative quadrature tolerance, unless the model "
            "file has a quadrature block"
        )
        _add_common(p)
        p.set_defaults(func=fn)

    p_min = sub.add_parser("minimize", help="conformal minimization (upper bound)")
    p_min.add_argument("--model", required=True)
    p_min.add_argument("--tol", type=float, help="stop once g.H^-1 g (predicted decrease) <= TOL*max(1,|J|)")
    _add_common(p_min)
    p_min.set_defaults(func=cmd_minimize)

    p_lap = sub.add_parser("laplace", help="uniformize the base to positive curvature")
    p_lap.add_argument("--model", required=True)
    _add_common(p_lap)
    p_lap.set_defaults(func=cmd_laplace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CaseMismatchError as exc:
        print(f"case mismatch: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, EqYamabeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
