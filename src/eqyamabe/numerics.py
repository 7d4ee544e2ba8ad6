"""Quadrature, trigonometric series, derivative checking and scalar minimization.

Everything here is deterministic: panel subdivision order is fixed and no
reduction is reordered, so repeated calls with the same inputs produce
bit-identical results.  Integrands must be vectorized (accept and return
numpy arrays); the node arrays they receive are read-only.
"""

from __future__ import annotations

import bisect
import math
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
)

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "integrate",
    "gauss_panels",
    "sign_change_roots",
    "trig_series",
    "trig_interpolant",
    "check_derivative",
    "minimize_scalar",
    "richardson_table",
    "limit_at_zero",
]

# default step ratio of the h-ladder in `limit_at_zero`
_RICHARDSON_RATIO = 10.0

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# step budget of `sign_change_roots`; from its interpolated start a simple
# root takes two or three Newton steps
_ROOT_STEPS = 100


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


@lru_cache(maxsize=128)
def _panel_edges(a: float, b: float, panels: int) -> list[float]:
    return np.linspace(a, b, panels + 1).tolist()


def _split_panels(
    a: float, b: float, k: int, nodes: np.ndarray, weights: np.ndarray, breaks: list[float]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One level's rule with every panel that contains a break cut there.

    The level's own nodes keep their places, with zero weight on the cut
    panels, so values cached at those nodes still serve every other panel;
    each piece of a cut panel gets a k-point rule of its own.  `breaks` are
    sorted, distinct and inside (a, b).
    """
    panels = nodes.size // k
    edges = _panel_edges(a, b, panels)
    pieces: dict[int, list[float]] = {}  # cut panel -> its left edge and breaks
    for x in breaks:
        j = bisect.bisect_right(edges, x) - 1
        if x > edges[j]:  # a break on a panel edge cuts nothing
            pieces.setdefault(j, [edges[j]]).append(x)
    if not pieces:
        return [(nodes, weights)]
    lo, hi = [], []
    for j, points in pieces.items():
        points.append(edges[j + 1])
        lo += points[:-1]
        hi += points[1:]
    lo, hi = np.array(lo), np.array(hi)
    x, w = _gauss_rule(k)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    piece_nodes = (mid[:, None] + half[:, None] * x).ravel()
    piece_nodes.flags.writeable = False
    kept = weights.copy()
    kept.reshape(panels, k)[list(pieces)] = 0.0
    return [(nodes, kept), (piece_nodes, (half[:, None] * w).ravel())]


def _refine(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig,
    levels: Sequence,
    breaks: list[float],
) -> tuple[bool, list[tuple[float, float, int]]]:
    """Double the panel count until successive values agree to tolerance.

    Each row of f stops at the first level where its own values agree.
    Panels that contain a break are cut there at every level.  Returns
    whether f gave rows and (value, error estimate, refinements) per row.
    """
    multi = False
    k = cfg.points_per_panel

    def rule(r: int) -> list[tuple[np.ndarray, np.ndarray]]:
        nodes_weights = levels[r] if r < len(levels) else gauss_panels(a, b, cfg.panels * 2**r, k)
        return _split_panels(a, b, k, *nodes_weights, breaks) if breaks else [nodes_weights]

    def rows_at(nodes: np.ndarray) -> np.ndarray:
        nonlocal multi
        vals = np.asarray(f(nodes), dtype=float)
        multi = vals.ndim == 2
        return vals if multi else vals[None]

    # Every integral visits levels 0 and 1.  With breaks, one call of f
    # serves the pieces of both: on a few dozen nodes a call costs about as
    # much as on a few.
    first = [rule(0), rule(1)] if breaks and cfg.max_refinements else [rule(0)]
    ahead: dict[int, np.ndarray] = {}  # id(piece nodes) -> rows evaluated ahead
    pieces = [parts[1][0] for parts in first if len(parts) > 1] if breaks else []
    if pieces:
        both = np.concatenate(pieces)
        both.flags.writeable = False
        rows = rows_at(both)
        ends = np.cumsum([nodes.size for nodes in pieces]).tolist()
        ahead = {id(n): rows[:, e - n.size : e] for n, e in zip(pieces, ends)}

    def level_sums(parts, rows_wanted) -> dict[int, float]:
        sums: dict[int, float] = {}
        for nodes, weights in parts:
            rows = ahead.pop(id(nodes), None)
            if rows is None:
                rows = rows_at(nodes)
            wanted = range(len(rows)) if rows_wanted is None else rows_wanted
            finite = np.isfinite(rows)
            if not finite.all():  # a row that has stopped may go non-finite
                bad = ~finite[list(wanted)].all(axis=0)
                if bad.any():
                    raise NonFinite(f"integrand returned non-finite values near x={nodes[bad][:3]}")
            for i in wanted:
                part = float(np.dot(rows[i], weights))
                sums[i] = sums[i] + part if i in sums else part
        return sums

    prev = level_sums(first[0], None)
    done: dict[int, tuple[float, float, int]] = {}
    errs: dict[int, float] = {}
    for r in range(1, cfg.max_refinements + 1):
        cur = level_sums(first[r] if r < len(first) else rule(r), list(prev))
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
    breaks: Sequence[float] = (),
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

    `breaks` are points where f may have a kink, such as the roots of F in
    |F|.  At every level each panel that contains a break is cut there and
    each piece gets a rule of its own; the level's nodes stay as they are and
    carry zero weight on the cut panels, so values cached at them stay
    valid.  f is called once more on the nodes of the pieces, for levels 0
    and 1 together and then once per deeper level.  A function that is
    smooth between its breaks converges as a smooth one does.  Breaks outside
    (a, b) or on a panel edge change nothing.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    breaks = sorted({float(x) for x in breaks if a < x < b}) if len(breaks) else []
    multi, rows = _refine(f, a, b, cfg, levels, breaks)
    results = [IntegralResult(*row) for row in rows]
    return results if multi else results[0]


def _trim_modes(c: np.ndarray) -> np.ndarray:
    """The modes up to the last one above eps times the largest; the mean
    mode always stays, so all-zero coefficients keep one mode, not all."""
    keep = np.flatnonzero(np.abs(c) > np.finfo(float).eps * np.abs(c).max())
    return c[: np.max(keep, initial=0) + 1]


def trig_series(coeffs: np.ndarray, start: float, omega: float) -> tuple[Callable, ...]:
    """Value, first and second derivative of the real part of
    sum_k coeffs[k] z^k, z = exp(i omega (s - start)), each summed by Horner's
    rule.  A real coefficient a_k stands for a_k cos(k omega (s - start)),
    -i b_k for b_k sin(k omega (s - start))."""
    coeffs = np.asarray(coeffs, dtype=complex)
    k = omega * np.arange(coeffs.size)

    def horner(c: np.ndarray) -> Callable:
        def evaluate(s):
            z = np.exp(1j * omega * (np.asarray(s, dtype=float) - start))
            acc = np.full(z.shape, c[-1])
            for a in c[-2::-1]:
                acc *= z
                acc += a
            return acc.real

        return evaluate

    return horner(coeffs), horner(1j * k * coeffs), horner(-k * k * coeffs)


def trig_interpolant(samples: np.ndarray, start: float, period: float) -> tuple[Callable, ...]:
    """Value, first and second derivative of the trigonometric interpolant of
    one period of uniform samples, the j-th of n taken at start + j period / n.
    The coefficients come from one real FFT, trailing modes at or below eps
    times the largest are dropped, and the rest are summed by `trig_series`."""
    n = len(samples)
    c = np.fft.rfft(samples) / n
    c[1 : (n + 1) // 2] *= 2.0  # each mode below Nyquist stands for +k and -k
    return trig_series(_trim_modes(c), start, 2.0 * math.pi / period)


def sign_change_roots(f: Callable, df: Callable, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """The roots of f between consecutive points of x where the values fx
    change sign, in increasing order; x increases, and a simple root is
    refined to rounding level.

    All roots are refined together: each Newton step calls f and df once on
    the vector of roots.  Each root starts at the linear interpolant of its
    bracket and stays inside it: a step that would leave the bracket becomes
    a bisection.  df may be a finite-difference derivative.  Two roots
    between the same pair of points give no sign change there and are not
    found.
    """
    fx = np.asarray(fx, dtype=float)
    neg = fx < 0.0
    if not 0 < np.count_nonzero(neg) < neg.size:
        return np.empty(0)
    x = np.asarray(x, dtype=float)
    i = np.flatnonzero(neg[:-1] != neg[1:])
    lo, hi, rising = x[i].tolist(), x[i + 1].tolist(), neg[i].tolist()
    roots = (x[i] - fx[i] * (x[i + 1] - x[i]) / (fx[i + 1] - fx[i])).tolist()
    zero = np.zeros(i.size)  # broadcasts a scalar f or df over the roots
    # a Newton step this small leaves an error of its square on a simple root
    tol = _SQRT_EPS * max(abs(x[0]), abs(x[-1]))
    for _ in range(_ROOT_STEPS):
        at = np.array(roots)
        values = (zero + f(at)).tolist()
        slopes = (zero + df(at)).tolist()
        moved = 0.0
        for j, (r, v, d) in enumerate(zip(roots, values, slopes)):
            if (v < 0.0) == rising[j]:  # r replaces the end of its own sign
                lo[j] = r
            else:
                hi[j] = r
            nxt = r - v / d if d else math.nan
            if not lo[j] <= nxt <= hi[j]:
                nxt = 0.5 * (lo[j] + hi[j])
            moved = max(moved, abs(nxt - r))
            roots[j] = nxt
        if moved <= tol:
            break
    return np.array(roots)


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
