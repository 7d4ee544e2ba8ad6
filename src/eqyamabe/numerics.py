"""Quadrature, trigonometric series, root polishing, and two scalar helpers.

Every integral uses one rule, Fejér's second rule (`integrate`).  Its nodes
are interior Chebyshev points, which nest under doubling: a refinement
evaluates only the new nodes, and a smooth integrand is settled by one call
on 127 nodes, which gives its value and its error estimate together.  Whole
levels, nodes with weights, are kept per interval and level (`_fejer_rule`):
level 128 for `integrate`, levels 128 to 512 for the Galerkin matrices of
`conformal`.

Everything here is deterministic: quadrature nodes and reductions come in a
fixed order, so repeated calls with the same inputs produce bit-identical
results.  Integrands must be vectorized (accept and return numpy arrays);
the node arrays they receive are read-only.

The scalar helpers, `minimize_scalar` (golden section) and `limit_at_zero`
(Richardson extrapolation by `richardson_table`), have no caller inside the
library; they stay public under these names for outside callers."""

from __future__ import annotations

import itertools
import math
import warnings
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
    "sign_change_roots",
    "trig_series",
    "trig_interpolant",
    "chopped_interpolant",
    "minimize_scalar",
    "richardson_table",
    "limit_at_zero",
]

# default step ratio of the h-ladder in `limit_at_zero`
_RICHARDSON_RATIO = 10.0

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

# step budget of `sign_change_roots`; from its interpolated start a simple
# root takes two or three Newton steps
_ROOT_STEPS = 100


@dataclass(frozen=True)
class QuadratureConfig:
    """Nested Fejér settings: how often the rule may double past its first
    level, and the stopping tolerances."""

    max_refinements: int = 6
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")
        if not (self.abs_tol > 0 and self.rel_tol > 0):  # also rejects NaN
            raise ValueError("tolerances must be positive")


# the settings of every call that passes none: one shared, hashable key
_DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    refinements_used: int


# Intervals of the first level of Fejér's second rule: the first call of an
# integrand covers the 127 interior nodes of n = 128 on every piece.
_FIRST_LEVEL = 128


@lru_cache(maxsize=16)
def _fejer_weights(n: int) -> np.ndarray:
    """Read-only weights of Fejér's second rule with n intervals (n even) on
    [-1, 1] at its interior nodes -cos(k pi / n), k = 1, ..., n - 1, from one
    inverse FFT (Waldvogel, BIT 46, 2006)."""
    odd = np.arange(1.0, n, 2.0)
    v = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n - odd.size)])
    w = np.fft.ifft(-v[:-1] - v[:0:-1]).real[1:]  # entry 0 is an end node's zero weight
    w.flags.writeable = False
    return w


def _fejer_nodes(lo: np.ndarray, hi: np.ndarray, n: int, step: int) -> np.ndarray:
    """The read-only nodes lo + (hi - lo) sin^2(k pi / 2n), k = 1, 1 + step,
    ... < n, of level n on every piece [lo, hi], increasing: step 1 gives the
    whole level, step 2 the nodes that level n / 2 lacks."""
    t = np.sin(np.arange(1, n, step) * (0.5 * math.pi / n)) ** 2
    nodes = (lo[:, None] + (hi - lo)[:, None] * t).ravel()
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=128)
def _fejer_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only nodes and weights of the whole level n of Fejér's second
    rule on [a, b]: one shared pair of arrays per (a, b, n)."""
    weights = 0.5 * (b - a) * _fejer_weights(n)
    weights.flags.writeable = False
    return _fejer_nodes(np.array([a]), np.array([b]), n, 1), weights


def _first_nodes(a: float, b: float) -> np.ndarray:
    """The first-level nodes on [a, b]: one shared read-only array per (a, b)."""
    return _fejer_rule(a, b, _FIRST_LEVEL)[0]


def _refine(
    f: Callable, edges: list[float], cfg: QuadratureConfig
) -> tuple[bool, list[IntegralResult]]:
    """Double the level of the rule on every piece between consecutive edges
    until two successive levels agree to tolerance.

    Each row of f stops at the first level where its own values agree.
    Returns whether f gave rows and one `IntegralResult` per row.
    """
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    n = _FIRST_LEVEL
    nodes = _first_nodes(edges[0], edges[-1]) if lo.size == 1 else _fejer_nodes(lo, hi, n, 1)
    vals = wanted = None  # None: every row is wanted
    done: dict[int, IntegralResult] = {}
    for r in itertools.count():
        new = np.asarray(f(nodes), dtype=float)
        multi = new.ndim == 2
        new = new if multi else new[None]
        checked = new if wanted is None else new[wanted]  # a stopped row may go non-finite
        if not np.isfinite(checked).all():
            bad = ~np.isfinite(checked).all(axis=0)
            raise NonFinite(f"integrand returned non-finite values near x={nodes[bad][:3]}")
        new = new.reshape(len(new), lo.size, -1)
        if vals is None:
            vals = new
            # level n / 2 sits at every second node; row by row, so a row's
            # value does not depend on the other rows
            coarse = ((vals[:, :, 1::2] @ _fejer_weights(n // 2)) * half).sum(axis=1)
            wanted = list(range(len(vals)))
        else:
            merged = np.empty(vals.shape[:2] + (2 * n - 1,))
            merged[:, :, 0::2] = new
            merged[:, :, 1::2] = vals
            vals, coarse, n = merged, fine, 2 * n
        fine = ((vals @ _fejer_weights(n)) * half).sum(axis=1)
        values, errors = fine.tolist(), np.abs(fine - coarse).tolist()
        for i in wanted:
            # with no refinement allowed, the first level stands with its estimate
            met = errors[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(values[i]))
            if met or not cfg.max_refinements:
                done[i] = IntegralResult(values[i], errors[i], r)
        wanted = [i for i in wanted if i not in done]
        if not wanted:
            return multi, [done[i] for i in sorted(done)]
        if r == cfg.max_refinements:
            raise NoConvergence(
                f"quadrature did not reach tolerance after {r} refinements "
                f"(last error estimate {max(errors[i] for i in wanted):.3e})"
            )
        nodes = _fejer_nodes(lo, hi, 2 * n, 2)


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
    breaks: Sequence[float] = (),
) -> IntegralResult | list[IntegralResult]:
    """Integrate f over [a, b] by Fejér's second rule, doubled until two
    successive levels agree.

    The rule's nodes are the interior Chebyshev points, so f is never
    evaluated at a or b: integrands that are bounded but undefined at the
    endpoints (the geometric integrands at cone poles) need no special
    handling.  The nodes nest under doubling.  The first call of f covers
    the 127 interior nodes of level n = 128; they give the level-n value and,
    from every second node, the level-n/2 value, and the difference of the
    two is the returned error_estimate.  A value that misses
    max(abs_tol, rel_tol |value|) is refined: each further call covers only
    the n new nodes of level 2n.  After max_refinements doublings
    NoConvergence is raised; with max_refinements = 0 the first level's value
    is returned with its estimate, met or not.

    f receives the nodes of one call as a read-only, increasing array;
    writing to it raises.  Without breaks the first call's array is one
    shared array per (a, b), so a caller may compute there once and reuse
    it (`orbifold.quadrature_nodes`).  If f returns a 2-d array, each row is
    a separate integrand that stops at its own level, and one result per row
    is returned in a list.

    `breaks` are points where f may have a kink, such as the roots of F in
    |F|.  The rule runs on each piece between them, and every call of f
    covers all pieces at once, so a function that is smooth between its
    breaks converges as a smooth one does.  Breaks outside (a, b) change
    nothing.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    a, b = float(a), float(b)
    inner = sorted({float(x) for x in breaks if a < x < b}) if len(breaks) else []
    multi, results = _refine(f, [a, *inner, b], cfg or _DEFAULT_CONFIG)
    return results if multi else results[0]


def _modes_past(c: np.ndarray, tol) -> int:
    """How many leading modes of c pass tol (a number, or one per mode), at
    least one: a series keeps that many, and its tail is negligible when they
    are at most 3/4 of c (Aurentz & Trefethen, "Chopping a Chebyshev series")."""
    return int(np.max(np.flatnonzero(np.abs(c) > tol), initial=0)) + 1


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


def _interpolant_coefficients(samples: np.ndarray) -> tuple[np.ndarray, bool]:
    """The `trig_series` coefficients of the interpolant of one period of
    uniform samples, from one real FFT, up to the last mode past eps times
    the largest sample (`_modes_past`), and whether that tail is negligible."""
    n = len(samples)
    c = np.fft.rfft(samples) / n
    c[1 : (n + 1) // 2] *= 2.0  # each mode below Nyquist stands for +k and -k
    keep = _modes_past(c, _EPS * np.max(np.abs(samples)))
    return c[:keep], 4 * keep <= 3 * c.size


def trig_interpolant(samples: np.ndarray, start: float, period: float) -> tuple[Callable, ...]:
    """Value, first and second derivative of the trigonometric interpolant of
    one period of uniform samples, the j-th of n taken at start + j period / n.
    The coefficients come from one real FFT; the modes past eps times the
    largest sample (`_modes_past`) are summed by `trig_series`."""
    c, _ = _interpolant_coefficients(samples)
    return trig_series(c, start, 2.0 * math.pi / period)


def chopped_interpolant(samples: np.ndarray, start: float, period: float) -> tuple[Callable, ...] | None:
    """`trig_interpolant` of samples whose series has chopped: its tail past eps
    times the largest sample is negligible.  None if not; finer samples may."""
    c, chopped = _interpolant_coefficients(samples)
    return trig_series(c, start, 2.0 * math.pi / period) if chopped else None


_CHOP_SAMPLES = 2**14 + 1  # the most samples a callable is read at


def _sampled_series(f: Callable, length: float, one_period: Callable, name: str, ends: str):
    """`trig_series`'s coefficients, start and omega for a vectorized callable
    f on [0, length], read from its samples on linspace(0, length, n), ends
    included, for n = 17, 33, 65, ...: `one_period(grid, values)` extends
    them to one period (samples, start, period), and the first series that
    has chopped (`chopped_interpolant`) is kept, or the one at n = 2**14 + 1
    with a warning (data not smooth, such as a ramp at a cone pole).  f not
    finite at a sample, such as one with a removable singularity at an end,
    or raising DomainError there, raises ValueError; `name` and `ends` name
    f and the ends in the messages."""
    sampled = f"it is sampled on [0, {length:.6g}] with {ends} included and must be"
    n = 17
    while True:
        grid = np.linspace(0.0, length, n)
        try:
            values = np.zeros(n) + np.asarray(f(grid), dtype=float)  # a scalar broadcasts
        except DomainError as exc:
            raise ValueError(f"{name} raised DomainError; {sampled} defined there") from exc
        if not np.all(np.isfinite(values)):
            where = ", ".join(f"{x:.6g}" for x in grid[~np.isfinite(values)][:3])
            raise ValueError(f"{name} is not finite at s = {where}; {sampled} finite there")
        samples, start, period = one_period(grid, values)
        c, chopped = _interpolant_coefficients(samples)
        if chopped or n >= _CHOP_SAMPLES:
            break
        n = 2 * n - 1
    if not chopped:
        smooth = "data may not be smooth on the orbifold"
        warnings.warn(f"{name} has not chopped to rounding at {n} samples; {smooth}", stacklevel=3)
    return c, start, 2.0 * math.pi / period


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


def _with_dips(f: Callable, x: np.ndarray, fx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and the values fx of f there, with the points added where f dips
    across zero between points of one sign, so that `sign_change_roots`
    sees the two roots of such a dip.

    A candidate is the vertex of the parabola through an interior local
    minimum of |fx| and its two neighbours, where all three have one sign and
    the parabola crosses zero; f is called once, on all candidates, and a
    candidate is added where f has the other sign.  A dip shallower than the
    parabola's error is not seen.
    """
    s, mag = np.sign(fx), np.abs(fx)
    same, mid = s[:-1] == s[1:], mag[1:-1]
    j = 1 + ((mid <= mag[:-2]) & (mid < mag[2:]) & same[:-1] & same[1:]).nonzero()[0]
    if not j.size:
        return x, fx
    x0, x1, x2, f0, f1, f2 = x[j - 1], x[j], x[j + 1], fx[j - 1], fx[j], fx[j + 1]
    d01 = (f1 - f0) / (x1 - x0)
    curv = ((f2 - f1) / (x2 - x1) - d01) / (x2 - x0)  # nonzero: |f| has a strict minimum
    v = 0.5 * (x0 + x1) - d01 / (2.0 * curv)
    sign = s[j]
    crosses = sign * (f0 + (v - x0) * (d01 + curv * (v - x1))) <= 0.0
    v, sign = v[crosses], sign[crosses]
    if not v.size:
        return x, fx
    fv = np.zeros(v.size) + f(v)
    dip = sign * fv < 0.0
    xs, fs = np.concatenate([x, v[dip]]), np.concatenate([fx, fv[dip]])
    order = np.argsort(xs, kind="stable")
    return xs[order], fs[order]


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
