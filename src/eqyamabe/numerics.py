"""Quadrature, derivative checking, scalar minimization and linear solves.

Everything here is deterministic: panel subdivision order is fixed and no
reduction is reordered, so repeated calls with the same inputs produce
bit-identical results.  Integrands must be vectorized (accept and return
numpy arrays); the node arrays they receive are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidBracket,
    NoConvergence,
    NonFinite,
    LimitNotConverged,
    SingularMatrix,
)

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate",
    "gauss_panels",
    "check_derivative",
    "minimize_scalar",
    "solve_tridiagonal",
    "richardson_table",
    "limit_at_zero",
]

# default step ratio of the h-ladder in `limit_at_zero`
_RICHARDSON_RATIO = 10.0

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings: the starting panel count, the rule
    order per panel, how often the panel count may double, and the stopping
    tolerances."""

    panels: int = 32
    points_per_panel: int = 16
    max_refinements: int = 6
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise ValueError("panels must be a positive integer")
        if self.points_per_panel < 2:
            raise ValueError("points_per_panel must be >= 2")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # also rejects NaN
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    refinements_used: int


@lru_cache(maxsize=64)
def _gauss_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(k)
    return x, w


def gauss_panels(a: float, b: float, panels: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on `panels` equal
    panels of [a, b]; both arrays are read-only."""
    x, w = _gauss_rule(k)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _refine(
    f: Callable, a: float, b: float, cfg: QuadratureConfig, levels: Sequence
) -> tuple[bool, list[tuple[float, float, int]]]:
    """Double the panel count until successive values agree to tolerance.

    Each row of f stops at the first level where its own values agree.
    Returns whether f gave rows and (value, error estimate, refinements) per
    row.
    """
    multi = False

    def level_sums(r: int, rows_wanted) -> dict[int, float]:
        nonlocal multi
        if r < len(levels):
            nodes, weights = levels[r]
        else:
            nodes, weights = gauss_panels(a, b, cfg.panels * 2**r, cfg.points_per_panel)
        vals = np.asarray(f(nodes), dtype=float)
        multi = vals.ndim == 2
        rows = vals if multi else vals[None]
        sums = {}
        for i in range(len(rows)) if rows_wanted is None else rows_wanted:
            finite = np.isfinite(rows[i])
            if not np.all(finite):
                bad = nodes[~finite][:3]
                raise NonFinite(f"integrand returned non-finite values near x={bad}")
            sums[i] = float(np.dot(rows[i], weights))
        return sums

    prev = level_sums(0, None)
    done: dict[int, tuple[float, float, int]] = {}
    errs: dict[int, float] = {}
    for r in range(1, cfg.max_refinements + 1):
        cur = level_sums(r, list(prev))
        for i, value in cur.items():
            errs[i] = abs(value - prev[i])
            if errs[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                done[i] = (value, errs[i], r)
        prev = {i: v for i, v in cur.items() if i not in done}
        if not prev:
            return multi, [done[i] for i in sorted(done)]
    if cfg.max_refinements == 0:
        # single rule, no comparison available: report the rule value with a
        # zero a-posteriori estimate (caller opted out of refinement)
        return multi, [(v, 0.0, 0) for _, v in sorted(prev.items())]
    raise NoConvergence(
        f"quadrature did not reach tolerance after {cfg.max_refinements} refinements "
        f"(last error estimate {max(errs[i] for i in prev):.3e})"
    )


def richardson_table(values: Sequence[float], ratio: float) -> list[list[float]]:
    """Neville extrapolation table for h-ladders h0, h0/ratio, h0/ratio^2, ..."""
    table = [list(values)]
    for j in range(1, len(values)):
        prev = table[j - 1]
        table.append(
            [prev[k + 1] + (prev[k + 1] - prev[k]) / (ratio**j - 1.0) for k in range(len(prev) - 1)]
        )
    return table


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    levels: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> IntegralResult | list[IntegralResult]:
    """Integrate f over [a, b] by composite Gauss-Legendre with panel doubling.

    Gauss nodes lie strictly inside every panel, so f is never evaluated at
    a or b: integrands that are bounded but undefined at the endpoints (the
    geometric integrands at cone poles) need no special handling.  The
    returned error_estimate is the a-posteriori difference of the last two
    refinement stages.

    f receives the nodes of one level as a read-only array; writing to it
    raises.  If f returns a 2-d array, each row is a separate integrand that
    stops at its own level, and one result per row is returned in a list.
    `levels` may hold the (nodes, weights) of the first levels, as built by
    `gauss_panels(a, b, cfg.panels * 2**r, cfg.points_per_panel)`, so that
    callers can reuse them and whatever they computed at those nodes.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    multi, rows = _refine(f, a, b, cfg, levels)
    results = [IntegralResult(*row) for row in rows]
    return results if multi else results[0]


def check_derivative(
    f: Callable, df: Callable, t: float, h_sequence: Sequence[float]
) -> float:
    """Max over h of |central difference - df(t)| / max(1, |df(t)|).

    Used as the oracle for every hand-coded analytic derivative in the
    geometric modules.
    """
    try:
        target = float(df(t))
    except Exception as exc:  # noqa: BLE001 - domain failures become DomainError
        raise DomainError(f"df not evaluable at t={t}: {exc}") from exc
    worst = 0.0
    for h in h_sequence:
        if h <= 0:
            raise ValueError("finite-difference steps must be positive")
        try:
            hi = float(f(t + h))
            lo = float(f(t - h))
        except Exception as exc:  # noqa: BLE001
            raise DomainError(f"f not evaluable at t={t}+-{h}: {exc}") from exc
        if not (np.isfinite(hi) and np.isfinite(lo) and np.isfinite(target)):
            raise DomainError(f"non-finite evaluation at t={t}, h={h}")
        disc = abs((hi - lo) / (2.0 * h) - target) / max(1.0, abs(target))
        worst = max(worst, disc)
    return worst


def minimize_scalar(
    f: Callable[[float], float], bracket: Sequence[float], tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section search with a final parabolic polish.

    Returns (argmin, value).  Boundary minimizers are reported at the
    boundary itself: the endpoints compete with the interior candidate.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidBracket(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    fx = min(fc, fd)

    # one guarded parabolic step through (a, x, b)
    fa, fb = f(a), f(b)
    denom = (x - a) * (fx - fb) - (x - b) * (fx - fa)
    if denom != 0.0:
        xp = x - 0.5 * ((x - a) ** 2 * (fx - fb) - (x - b) ** 2 * (fx - fa)) / denom
        if lo < xp < hi:
            fxp = f(xp)
            if fxp < fx:
                x, fx = xp, fxp

    # boundary minimizers win if strictly better
    flo, fhi = f(lo), f(hi)
    if flo <= fx and flo <= fhi:
        return lo, flo
    if fhi < fx:
        return hi, fhi
    return x, fx


def solve_tridiagonal(
    lower: Sequence[float],
    diag: Sequence[float],
    upper: Sequence[float],
    rhs: Sequence[float],
) -> np.ndarray:
    """Thomas elimination.  lower/upper have length n-1, diag/rhs length n."""
    d = np.asarray(diag, dtype=float).copy()
    lo = np.asarray(lower, dtype=float)
    up = np.asarray(upper, dtype=float)
    y = np.asarray(rhs, dtype=float).copy()
    n = d.size
    if lo.size != n - 1 or up.size != n - 1 or y.size != n:
        raise ValueError("inconsistent band lengths")
    scale = max(np.max(np.abs(d)), np.max(np.abs(lo), initial=0.0), np.max(np.abs(up), initial=0.0))
    tiny = 1e-300 + 1e-14 * scale
    for i in range(1, n):
        if abs(d[i - 1]) < tiny:
            raise SingularMatrix(f"pivot underflow at row {i - 1}")
        m = lo[i - 1] / d[i - 1]
        d[i] -= m * up[i - 1]
        y[i] -= m * y[i - 1]
    if abs(d[-1]) < tiny:
        raise SingularMatrix("pivot underflow at last row")
    x = np.empty(n)
    x[-1] = y[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (y[i] - up[i] * x[i + 1]) / d[i]
    return x


def limit_at_zero(
    g: Callable[[float], float],
    h0: float = 1e-3,
    ratio: float = _RICHARDSON_RATIO,
    levels: int = 4,
    rel_tol: float = 1e-9,
) -> tuple[float, float]:
    """Extrapolate lim_{h->0+} g(h) from a geometric ladder of h values.

    Raises LimitNotConverged when the last two extrapolants disagree by more
    than rel_tol relative to the result's scale.
    """
    vals = [float(g(h0 / ratio**k)) for k in range(levels)]
    if not all(np.isfinite(v) for v in vals):
        raise LimitNotConverged("non-finite samples in limit ladder")
    table = richardson_table(vals, ratio)
    value = table[-1][0]
    err = abs(value - table[-2][0])
    if err > rel_tol * max(1.0, abs(value)):
        raise LimitNotConverged(
            f"extrapolants disagree: {value} vs {table[-2][0]} (err {err:.3e})"
        )
    return value, err
