"""Quadrature, trigonometric series, root polishing, and two scalar helpers.

Every integral uses one rule, Fejér's second rule (`integrate`).  Its nodes
are interior Chebyshev points, which nest under doubling: a refinement
evaluates only the new nodes, and a smooth integrand is settled by one call
on 127 nodes, which gives its value and its error estimate together.  A
whole level, nodes with weights, is built by `_fejer_rule`; a base's
quadrature plan keeps the levels it uses (`orbifold._rule`): level 128 for
its integrals, levels 128 to 512 for the Galerkin matrices of `conformal`.

Everything here is deterministic: quadrature nodes and reductions come in a
fixed order, so repeated calls with the same inputs produce bit-identical
results.  Integrands must be vectorized (accept and return numpy arrays);
the node arrays they receive are read-only.  Every integral has one
floating-point policy: its integrand runs with numpy's floating-point
warnings off, and a level sum that is not finite raises NonFinite, so data
out of scale is an error, never a warning.

Every radial function or profile that is not in closed form is one type of
series, `TrigSeries`, the only code that knows the coefficient convention.
Its coefficients come from uniform samples (`_interpolant`), from a callable
read at samples (`_sampled_series`), from a least-squares fit
(`orbifold._sine_fit`) or from a Galerkin solve (`conformal._Basis.series`);
a series is built with numpy's warnings off and raises NonFinite when its
coefficients leave the doubles, the same policy as the integrals'.

The scalar helpers, `minimize_scalar` (golden section) and `limit_at_zero`
(Richardson extrapolation by `richardson_table`), have no caller inside the
library; they stay public under these names for outside callers."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
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
    "TrigSeries",
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


@lru_cache(maxsize=16)
def _fejer_offsets(n: int, step: int) -> np.ndarray:
    """The read-only offsets sin^2(k pi / 2n), k = 1, 1 + step, ... < n, of
    level n on [0, 1]."""
    t = np.sin(np.arange(1, n, step) * (0.5 * math.pi / n)) ** 2
    t.flags.writeable = False
    return t


def _fejer_nodes(edges: Sequence[float], n: int, step: int) -> np.ndarray:
    """The read-only nodes lo + (hi - lo) sin^2(k pi / 2n), k = 1, 1 + step,
    ... < n, of level n on every piece [lo, hi] between consecutive edges,
    increasing: step 1 gives the whole level, step 2 the nodes that level
    n / 2 lacks."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    nodes = (lo[:, None] + (hi - lo)[:, None] * _fejer_offsets(n, step)).ravel()
    nodes.flags.writeable = False
    return nodes


def _fejer_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """New read-only nodes and weights of the whole level n of Fejér's second
    rule on [a, b]; the callers that share them keep them (a base's plan,
    `orbifold._rule`)."""
    weights = 0.5 * (b - a) * _fejer_weights(n)
    weights.flags.writeable = False
    return _fejer_nodes([a, b], n, 1), weights


def _refine(
    f: Callable, edges: list[float], cfg: QuadratureConfig, nodes: np.ndarray | None = None,
    scale: float = 1.0,
) -> tuple[bool, list[IntegralResult]]:
    """Double the level of the rule on every piece between consecutive edges
    until two successive levels agree to tolerance; `nodes` are the first
    level's, where the caller keeps them.

    Each row of f stops at the first level where its own values agree.
    Returns whether f gave rows and one `IntegralResult` per row, its value
    and estimate multiplied by `scale`, built once.  This is
    the library's one rule for an integral out of scale: f is called and
    the level sums are formed with numpy's floating-point warnings off, and
    a level sum of a row still wanted that is not finite raises NonFinite,
    naming the nodes where a value of such a row is not finite, if any.
    """
    pieces = len(edges) - 1
    half = 0.5 * np.diff(edges)

    def total(v):
        # a level's value per row: the sum over the pieces of (vals @ w) * half
        return np.add.reduce(v * half, 1).tolist()

    n = _FIRST_LEVEL
    if nodes is None:
        nodes = _fejer_nodes(edges, n, 1)
    vals = None  # the values read so far, per row, piece and node
    results: list[IntegralResult | None] = []
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    # one floating-point policy for every integral: f and the level sums run
    # quietly, and a level sum of a row still wanted that is not finite
    # raises below; the weights are positive, so a value that is not finite
    # makes its row's sum not finite too
    with np.errstate(all="ignore"):
        for r in itertools.count():
            new = np.asarray(f(nodes), dtype=float)
            multi = new.ndim == 2
            new = new if multi else new[None]
            shaped = new.reshape(len(new), pieces, -1)
            if vals is None:
                vals, coarse = shaped, None
                wanted, results = range(len(new)), [None] * len(new)
            else:
                merged = np.empty(vals.shape[:2] + (2 * n - 1,))
                merged[:, :, 0::2] = shaped
                merged[:, :, 1::2] = vals
                vals, coarse, n = merged, values, 2 * n
            # the level-n value per row, and the level-n/2 one at every
            # second node unless known; row by row, so a row's value does
            # not depend on the other rows
            if coarse is None:
                coarse = total(vals[:, :, 1::2] @ _fejer_weights(n // 2))
            values = total(vals @ _fejer_weights(n))
            if not all(math.isfinite(values[i]) and math.isfinite(coarse[i]) for i in wanted):
                bad = ~np.isfinite(new[wanted]).all(axis=0)  # a stopped row may go non-finite
                if bad.any():
                    raise NonFinite(f"integrand returned non-finite values near x={nodes[bad][:3]}")
                raise NonFinite("a level sum of the integral is not finite: out of scale")
            errors = [abs(v - c) for v, c in zip(values, coarse)]
            for i in wanted:
                # with no refinement allowed, the first level stands with its estimate
                met = errors[i] <= max(abs_tol, rel_tol * abs(values[i]))
                if met or not cfg.max_refinements:
                    results[i] = IntegralResult(scale * values[i], scale * errors[i], r)
            wanted = [i for i in wanted if results[i] is None]
            if not wanted:
                return multi, results
            if r == cfg.max_refinements:
                raise NoConvergence(
                    f"quadrature did not reach tolerance after {r} refinements "
                    f"(last error estimate {max(errors[i] for i in wanted):.3e})"
                )
            nodes = _fejer_nodes(edges, 2 * n, 2)


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
    *,
    _first_level: np.ndarray | None = None,
    _scale: float = 1.0,
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
    writing to it raises.  Equal arguments give equal arrays, each call a
    new one.  A caller that keeps the read-only nodes of the first level on
    [a, b] may hand them in as `_first_level`, an internal keyword: with no
    break inside (a, b), the first call of f receives that array itself, so
    a base's integrals hand their integrand the plan's own array every time
    (`orbifold.integrate_over_base`), with the area element's constant
    factor as `_scale`, another internal keyword, which multiplies every
    value and estimate.
    If f returns a 2-d array, each row is a separate integrand that stops at
    its own level, and one result per row is returned in a list.

    f is called with numpy's floating-point warnings off, and a row still
    wanted whose level sum leaves the doubles raises NonFinite: one that
    names the nodes where a value of the row is not finite, or one that
    says the sum is out of scale where every value is finite.

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
    first = None if inner else _first_level
    multi, results = _refine(f, [a, *inner, b], cfg or _DEFAULT_CONFIG, first, _scale)
    return results if multi else results[0]


def _chop(c: np.ndarray, tol) -> tuple[int, bool]:
    """The library's one tail rule: how many leading modes of c pass tol (a
    number, or one per mode), at least one, which a series keeps, and whether
    its tail is negligible: they are at most 3/4 of c (Aurentz & Trefethen,
    "Chopping a Chebyshev series")."""
    above = np.flatnonzero(np.abs(c) > tol)
    keep = int(above[-1]) + 1 if above.size else 1
    return keep, 4 * keep <= 3 * c.size


@dataclass(frozen=True, eq=False)
class TrigSeries:
    """The real part of sum_k coeffs[k] z^k, z = exp(i omega s): the library's
    one trigonometric series, and the only code that knows its coefficient
    convention.  A real coefficient a_k stands for a_k cos(k omega s), -i b_k
    for b_k sin(k omega s) (`from_real`).  `value`, `d1` and `d2` sum the
    series and its two derivatives by Horner's rule.  `samples` is the
    number of samples a period of an interpolant whose tail is not
    negligible (`_interpolant`), whose pole slopes its tail then carries
    (`pole_slopes`), and 0 for every other series.

    The coefficients are kept read-only, and those of both derivatives are
    formed where the series is built, with numpy's floating-point warnings
    off: a series whose coefficients, or its derivatives', sum in modulus
    past the doubles, the bound on their values, raises NonFinite, so data
    out of scale is an error, never a warning.  A series compares and
    hashes by identity."""

    coeffs: np.ndarray
    omega: float
    samples: int = 0
    _terms: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        c.flags.writeable = False
        with np.errstate(all="ignore"):
            k = self.omega * np.arange(c.size)
            terms = (c, 1j * k * c, -k * k * c)  # of the series and its two derivatives
            if not all(math.isfinite(np.abs(t).sum()) for t in terms):
                raise NonFinite("a series or its derivative leaves the doubles: out of scale")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def from_real(cls, cos: np.ndarray, sin: np.ndarray, omega: float) -> TrigSeries:
        """sum_k cos[k] cos(k omega s) + sin[k] sin(k omega s), from two real
        arrays of one size."""
        return cls(np.asarray(cos, dtype=complex) - 1j * np.asarray(sin, dtype=float), omega)

    def value(self, s):
        return self._horner(self._terms[0], s)

    def d1(self, s):
        return self._horner(self._terms[1], s)

    def d2(self, s):
        return self._horner(self._terms[2], s)

    def _horner(self, c: np.ndarray, s) -> np.ndarray:
        """The real part of sum_k c[k] z^k at s, by Horner's rule."""
        z = np.exp(1j * self.omega * np.asarray(s, dtype=float))
        acc = np.full(z.shape, c[-1])
        for a in c[-2::-1]:
            acc *= z
            acc += a
        return acc.real

    def end_slopes(self) -> tuple[float, float]:
        """The slopes at s = 0 and at the half period s = pi / omega, read
        exactly from the coefficients: sum_k k omega b_k and
        sum_k (-1)^k k omega b_k, as the cosine terms are flat there (the
        poles of a profile, odd about both ends)."""
        slopes = np.arange(self.coeffs.size) * self.omega * -self.coeffs.imag  # per mode, at s = 0
        return float(slopes.sum()), float(slopes[::2].sum() - slopes[1::2].sum())

    def pole_slopes(self) -> tuple[float, float]:
        """The slopes at s = 0 and s = L = pi / omega of the field whose
        samples a cosine series interpolates, read from its tail, as its
        cosine terms are flat there: 0 and 0 unless it is an interpolant
        whose tail is not negligible (`samples`).  The even extension of a
        field with a slope at an end has a kink there, and the tail of an
        interpolant of N samples a period then follows the discrete form of
        the kink law

            a_k ~ 2L ((-1)^k f'(L) - f'(0)) / (N sin(pi k / N))^2,

        2L ((-1)^k f'(L) - f'(0)) / (k pi)^2 for k << N.  Its mean over the
        even and over the odd modes of the upper half below N / 2 (the
        Nyquist mode, which stands for its aliases once) gives
        f'(L) - f'(0) and -f'(L) - f'(0), 0 where it has none."""
        n, a = self.samples, self.coeffs.real
        k = np.arange(a.size // 2, min(a.size, n // 2))
        if not k.size:
            return 0.0, 0.0
        is_odd = k % 2 == 1
        with np.errstate(all="ignore"):
            kinks = a[k] * (n * np.sin(k * (math.pi / n))) ** 2 * (self.omega / (2.0 * math.pi))
            even, odd = (float(kinks[m].mean()) if m.any() else 0.0 for m in (~is_odd, is_odd))
        return -0.5 * (even + odd), 0.5 * (even - odd)


def _interpolant(values: np.ndarray, length: float, parity: str) -> tuple[TrigSeries, bool]:
    """The series interpolating uniform samples on linspace(0, length, n),
    ends included, and whether its tail is negligible.  This is the one
    place where samples become one period: parity "even" or "odd" reflects
    them about the far end to period 2 length, "periodic" drops the repeat
    at the seam, where they must match (ValueError otherwise).  One real FFT
    gives the coefficients, kept up to the last mode past eps times the
    largest sample (`_chop`), all formed quietly: coefficients out of scale
    raise NonFinite where the series is built (`TrigSeries`).  A series
    whose tail is not negligible keeps its samples a period (`samples`)."""
    with np.errstate(all="ignore"):
        if parity == "periodic":
            if abs(values[0] - values[-1]) > 1e-12 * max(1.0, abs(values[0])):
                raise ValueError("periodic samples must match at the seam")
            samples, period = values[:-1], length
        else:
            sign = 1.0 if parity == "even" else -1.0
            samples, period = np.concatenate([values, sign * values[-2:0:-1]]), 2.0 * length
        n = len(samples)
        c = np.fft.rfft(samples) / n
        c[1 : (n + 1) // 2] *= 2.0  # each mode below Nyquist stands for +k and -k
        keep, chopped = _chop(c, _EPS * np.max(np.abs(samples)))
    return TrigSeries(c[:keep], 2.0 * math.pi / period, 0 if chopped else n), chopped


_CHOP_SAMPLES = 2**14 + 1  # the most samples a callable is read at


def _sampled_series(f: Callable, length: float, parity: str, name: str) -> TrigSeries:
    """The series of a vectorized callable f on [0, length], read from its
    samples on linspace(0, length, n), ends included, for n = 17, 33, 65,
    ...: the first interpolant of the given parity (`_interpolant`) that has
    chopped, its tail past eps times the largest sample negligible, is kept,
    or the one at n = 2**14 + 1 with a warning (data not smooth, such as a
    ramp at a cone pole).  f not finite at a sample, such as one with a
    removable singularity at an end, or raising DomainError there, raises
    ValueError naming f by `name`."""
    ends = "the seam" if parity == "periodic" else "the poles"
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
        series, chopped = _interpolant(values, length, parity)
        if chopped or n >= _CHOP_SAMPLES:
            break
        n = 2 * n - 1
    if not chopped:
        smooth = "data may not be smooth on the orbifold"
        warnings.warn(f"{name} has not chopped to rounding at {n} samples; {smooth}", stacklevel=3)
    return series


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
    parabola's error is not seen.  The local minima are found over the whole
    array, and each candidate's parabola is worked out in Python floats, so
    an overflow there gives inf without a warning; x must increase.
    """
    s, mag = np.sign(fx), np.abs(fx)
    same, mid = s[:-1] == s[1:], mag[1:-1]
    j = 1 + ((mid <= mag[:-2]) & (mid < mag[2:]) & same[:-1] & same[1:]).nonzero()[0]
    if not j.size:
        return x, fx
    vs, signs = [], []
    for k in j.tolist():
        (x0, x1, x2), (f0, f1, f2) = x[k - 1 : k + 2].tolist(), fx[k - 1 : k + 2].tolist()
        d01 = (f1 - f0) / (x1 - x0)
        # nonzero, as |f| has a strict minimum, unless it underflows: that
        # vertex is NaN and no candidate
        curv = ((f2 - f1) / (x2 - x1) - d01) / (x2 - x0)
        v = 0.5 * (x0 + x1) - (d01 / (2.0 * curv) if curv != 0.0 else math.nan)
        sign = math.copysign(1.0, f1)  # f1 is neither 0 nor NaN: a strict minimum of one sign
        if sign * (f0 + (v - x0) * (d01 + curv * (v - x1))) <= 0.0:
            vs.append(v)
            signs.append(sign)
    if not vs:
        return x, fx
    v = np.array(vs)
    fv = np.zeros(v.size) + f(v)
    dip = np.array(signs) * fv < 0.0
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
