"""Rotationally symmetric 2-orbifold bases.

A base is either an arclength profile (ds^2 + phi(s)^2 dtheta^2 on [0, L]
with cone points at the ends; phi in closed form, or else one chopped sine
series, from samples or a callable, whose cone orders are read from its
coefficients), which makes curvature, area and the radial Laplacian
one-dimensional, or a flat torus.

The weighted projective line CP^1(m1, m2), the quotient of the weighted
circle action on the 3-sphere, has one representation, `wps_profile`: in
arclength its metric is elementary, and phi, phi' and phi'' are closed
forms, accurate relative to phi up to both poles.  Its curvature, area and
pole slopes serve every route of `invariants`.  Labelling convention: the
pole at s = 0 is the zero locus of the first complex coordinate and carries
isotropy of order m2; the pole at s = L carries order m1.

Both bases answer the same members, one place per fact: the area element
`area_scale * density(s) ds` (2 pi phi ds, or 2 pi c ds on the torus),
`dlog_density` (phi'/phi, 0 on the torus), `gauss_curvature`, `cone_orders`
(empty on the torus; positive integers on a profile, checked where it is
built, so chi_orb <= 0 only on the flat torus), `periodic`, `closed_area`
and `scaled(c)`.  The free functions here and in `bundle`, `conformal` and
`modelio` never test a type.

Base integrals (`integrate_over_base`, `area`, `gauss_bonnet_check`) are
served from a quadrature plan per base: the levels of the nested Fejér rule
on [0, L] that the base has used, the members' values at their nodes, the
area per config, and the curvature-form norms of each curvature density
(`bundle.omega_norms`), each computed on first use.  The plan owns its
levels (`_rule`), one array of nodes and one of weights per level, the same
arrays for as long as the base lives: the 127 nodes of level 128
(`quadrature_nodes`), which `integrate_over_base` hands `integrate` as its
first level, so that a smooth integral makes its only call of its integrand
there, and where `omega_norms` brackets the roots of F (the library's only
root search), and the levels 256 and 512 of the Galerkin grids of
`conformal`.  A metric keeps its own values at these node arrays, per level
(`bundle._node_values`).  Every base carries its plan, so a plan is dropped
when its base is garbage-collected, and a field's norms, kept in a
weak-keyed table of the plan, when the field is; integrands and callers see
read-only nodes and values.  Results are bit-identical to evaluating phi
afresh at every call.

`wps_profile` and `make_round_sphere` validate their arguments on every
call and then share one base per canonical arguments (int weights; float
radius), so every metric, model file and script built from the same
arguments shares that base's plan.  Those bases, and their plans, live for
the process, up to the last `_SHARED_BASES` arguments of each constructor;
every other base still drops its plan when it is collected.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, NotCoprime, QuadratureFailure
from .numerics import _DEFAULT_CONFIG, _EPS, _FIRST_LEVEL, IntegralResult, NoConvergence
from .numerics import QuadratureConfig, _chop, _fejer_rule, _interpolant
from .numerics import _sampled_series, integrate, trig_series

__all__ = [
    "ConeSurfaceProfile",
    "FlatTorusBase",
    "Base",
    "make_round_sphere",
    "wps_profile",
    "profile_from_callables",
    "profile_from_samples",
    "gauss_curvature",
    "area",
    "gauss_bonnet_check",
    "chi_orb",
    "integrate_over_base",
    "quadrature_nodes",
    "scale_base",
]

_SLOPE_TOL = 1e-6


# ---------------------------------------------------------------------------
# weights of the weighted projective line
# ---------------------------------------------------------------------------

def _check_weights(m1: int, m2: int) -> None:
    if not (isinstance(m1, (int, np.integer)) and isinstance(m2, (int, np.integer))):
        raise NotCoprime("weights must be integers")
    if m1 < 1 or m2 < 1:
        raise NotCoprime("weights must be positive")
    if math.gcd(int(m1), int(m2)) != 1:
        raise NotCoprime(f"weights ({m1}, {m2}) are not coprime")


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

class _Plan:
    """Quadrature data of one base, computed once; every base carries its own
    (`_plan`), so a plan dies with its base.

    `rules` maps a level n of the Fejér rule on [0, L] to its read-only
    nodes and weights (`_rule`): levels 128 (the first), 256 and 512 (the
    Galerkin grids), and others where a minimizer's functional needs them;
    `values` maps (member, n) to a base member's read-only values at the
    nodes of level n; `areas` maps a config to the base's area (`area`);
    `norms` maps a curvature density F, weakly, to its
    curvature-form norms per cfg, so an entry dies with its field.  A plan
    holds no reference to its base.
    """

    def __init__(self) -> None:
        self.rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.values: dict[tuple[str, int], np.ndarray] = {}
        self.areas: dict[QuadratureConfig, float] = {}
        self.norms: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class ConeSurfaceProfile:
    """Arclength profile of a rotationally symmetric 2-orbifold sphere.

    phi > 0 on (0, L), phi(0) = phi(L) = 0, and the profile slopes at the
    poles are 1/m_start and -1/m_end (cone angles 2 pi / m).  The cone
    orders must be positive integers (ValueError naming the order
    otherwise), kept as ints, so chi_orb > 0 on every profile.
    """

    length: float
    m_start: int
    m_end: int
    phi: Callable[[np.ndarray], np.ndarray]
    phi_d1: Callable[[np.ndarray], np.ndarray]
    phi_d2: Callable[[np.ndarray], np.ndarray]
    label: str = "profile"
    _plan: _Plan = field(default_factory=_Plan, init=False, repr=False, compare=False)

    periodic = False
    area_scale = 2.0 * math.pi
    closed_area = None

    def __post_init__(self) -> None:
        for name, m in (("m_start", self.m_start), ("m_end", self.m_end)):
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
                raise ValueError(f"cone order {name} must be a positive integer, got {m!r}")
            object.__setattr__(self, name, int(m))

    @property
    def cone_orders(self) -> tuple[int, int]:
        return (self.m_start, self.m_end)

    def chi_orb(self) -> float:
        return 1.0 / self.m_start + 1.0 / self.m_end

    def density(self, s):
        """phi(s): the area element over area_scale ds."""
        return _planned(self, "phi", s, self.phi)

    def dlog_density(self, s):
        """phi'/phi, the first-order coefficient of the radial Laplacian."""
        return _planned(self, "dlog", s, self._dlog_density)

    def _dlog_density(self, s):
        return self.phi_d1(s) / self.density(s)

    def gauss_curvature(self, s):
        """-phi''/phi on the open interval (0, L), which holds every node
        array of the plan: only s off them is checked."""
        return _planned(self, "K", s, self._gauss_curvature)

    def _gauss_curvature(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0.0) or np.any(s_arr >= self.length):
            raise DomainError("curvature is defined on the open interval (0, L)")
        return -self.phi_d2(s) / self.density(s)

    def scaled(self, c: float) -> "ConeSurfaceProfile":
        """The profile of g -> c^2 g: (L, phi) -> (cL, c phi(s/c)), its
        derivatives by `_chain_rule`."""
        return ConeSurfaceProfile(
            c * self.length, self.m_start, self.m_end,
            *_chain_rule(c, 1, self.phi, self.phi_d1, self.phi_d2), label=f"{self.label}*{c}",
        )


@dataclass(frozen=True)
class FlatTorusBase:
    """Flat torus: periodic coordinate of length `length`, constant radius."""

    length: float
    radius: float
    _plan: _Plan = field(default_factory=_Plan, init=False, repr=False, compare=False)

    periodic = True
    cone_orders = ()

    def __post_init__(self) -> None:
        if self.length <= 0 or self.radius <= 0:
            raise ValueError("torus length and radius must be positive")

    @property
    def area_scale(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def closed_area(self) -> float:
        return self.area_scale * self.length

    def chi_orb(self) -> float:
        return 0.0

    def density(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def dlog_density(self, s):
        return 0.0

    def gauss_curvature(self, s):
        return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0

    def scaled(self, c: float) -> "FlatTorusBase":
        return FlatTorusBase(c * self.length, c * self.radius)


Base = Union[ConeSurfaceProfile, FlatTorusBase]


def _chain_rule(c: float, p: int, f: Callable, d1: Callable, d2: Callable) -> tuple:
    """The value and two derivatives of s -> c^p f(s/c), the radial functions
    of g -> c^2 g, from those of f: c^p f(s/c), c^(p-1) f'(s/c) and
    c^(p-2) f''(s/c).  A factor c^q multiplies for q > 0 and divides by
    c^(-q) for q < 0, as x c^-1 and x / c round differently; q = 0 passes
    the value through."""

    def term(g: Callable, q: int) -> Callable:
        if q > 0:
            return lambda s: c**q * g(np.asarray(s) / c)
        if q < 0:
            return lambda s: g(np.asarray(s) / c) / c**-q
        return lambda s: g(np.asarray(s) / c)

    return term(f, p), term(d1, p - 1), term(d2, p - 2)


def profile_from_callables(
    length: float, phi: Callable, m_start: int, m_end: int, label: str = "profile"
) -> ConeSurfaceProfile:
    """The profile of a vectorized callable phi on [0, length]: its chopped
    sine series, read from samples alone by the ladder that also reads radial
    fields (`numerics._sampled_series`), extended oddly about both poles, and
    checked by `_sine_profile`."""
    L = float(length)
    if not 0.0 < L < math.inf:
        raise ValueError("profile length must be positive and finite")
    c, _ = _sampled_series(phi, L, "odd", "a profile callable")
    return _sine_profile(c, L, m_start, m_end, label)


def _sine_profile(
    c: np.ndarray, length: float, m_start: int, m_end: int, label: str
) -> ConeSurfaceProfile:
    """The profile sum_k b_k sin(k pi s / L) of `trig_series` coefficients
    c_k = -i b_k.  Its pole slopes, read exactly from them as
    phi'(0) = sum (k pi / L) b_k and phi'(L) = sum (-1)^k (k pi / L) b_k, must
    be 1/m_start and -1/m_end to 1e-6, and phi must be positive at 65
    interior points; else ValueError.  The profile, built first, checks its
    cone orders."""
    phi = trig_series(c, math.pi / length)
    profile = ConeSurfaceProfile(float(length), m_start, m_end, *phi, label)
    slopes = np.arange(c.size) * (math.pi / length) * -c.imag  # per mode, at s = 0
    start, end = float(slopes.sum()), float(slopes[::2].sum() - slopes[1::2].sum())
    if np.any(phi[0](np.linspace(0.0, length, 67)[1:-1]) <= 0.0):
        raise ValueError("profile must be strictly positive between the poles")
    if abs(start - 1.0 / m_start) > _SLOPE_TOL or abs(end + 1.0 / m_end) > _SLOPE_TOL:
        raise ValueError(
            f"profile slopes at the poles are {start:.9g} and {end:.9g}; cone orders "
            f"({m_start}, {m_end}) need {1.0 / m_start:.9g} and {-1.0 / m_end:.9g}"
        )
    return profile


# Bases kept per constructor, least recently used first out: every caller of
# the same arguments shares one base and its quadrature plan.
_SHARED_BASES = 32


def make_round_sphere(radius: float) -> ConeSurfaceProfile:
    """Round sphere of the given radius as a smooth profile (cone orders 1, 1):
    the unit sphere's (sin, cos, -sin) at radius R by `_chain_rule`, so
    phi = R sin(s/R).

    One base per radius: calls with equal float(radius) return the same base.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _round_sphere(float(radius))


@lru_cache(maxsize=_SHARED_BASES)
def _round_sphere(R: float) -> ConeSurfaceProfile:
    unit = _chain_rule(R, 1, np.sin, np.cos, lambda s: -np.sin(s))
    return ConeSurfaceProfile(math.pi * R, 1, 1, *unit, label=f"round_sphere(R={R})")


def wps_profile(m1: int, m2: int) -> ConeSurfaceProfile:
    """Arclength profile of the quotient metric of the weighted circle action.

    In t = |z1|^2 on the 3-sphere, circumference/2pi is sqrt(t (1-t) / P(t)),
    P(t) = (m1^2 - m2^2) t + m2^2, and the arclength element is
    dt / (2 sqrt(t (1-t))), so t = sin(s)^2 with total length L = pi/2 and

        phi(s) = sin(s) cos(s) / sqrt(P(s)),  P(s) = m1^2 sin(s)^2 + m2^2 cos(s)^2,

    the same P as `yamabe.wps_density_field`.  phi, phi' and phi'' are closed
    forms in sin 2s, cos 2s and P, with cos s read as sin(L - s): sin 2s is then
    an exact zero at both poles, every value is accurate relative to phi up to
    either pole, and the pole slopes are exactly 1/m2 and -1/m1.  One base per
    (int(m1), int(m2)): equal weights return the same base.
    """
    _check_weights(m1, m2)
    return _wps_profile(int(m1), int(m2))


@lru_cache(maxsize=_SHARED_BASES)
def _wps_profile(m1: int, m2: int) -> ConeSurfaceProfile:
    L = 0.5 * math.pi
    a = float(m1 * m1 - m2 * m2)

    def terms(s):
        """sin 2s, cos 2s, P'/P and P^(-1/2) at s."""
        s = np.asarray(s, dtype=float)
        sin, cos = np.sin(s), np.sin(L - s)
        s2 = 2.0 * sin * cos
        r = 1.0 / np.sqrt((m1 * sin) ** 2 + (m2 * cos) ** 2)
        return s2, np.cos(2.0 * s), a * s2 * r * r, r

    def phi(s):
        s2, _, _, r = terms(s)
        return 0.5 * s2 * r

    def phi_d1(s):
        s2, c2, q, r = terms(s)
        return r * (c2 - 0.25 * s2 * q)

    def phi_d2(s):
        s2, c2, q, r = terms(s)
        return r * (-2.0 * s2 - c2 * q - 0.5 * a * c2 * s2 * r * r + 0.375 * s2 * q * q)

    return ConeSurfaceProfile(L, m2, m1, phi, phi_d1, phi_d2, label=f"wps({m1},{m2})")


def profile_from_samples(
    s_values: np.ndarray,
    phi_values: np.ndarray,
    m_start: int,
    m_end: int,
    label: str = "sampled_profile",
) -> ConeSurfaceProfile:
    """Profile from arclength samples; endpoints must be the poles: phi there
    at most 1e-12 max|phi|, a test relative to the samples' own scale, so the
    same profile passes in any units.

    phi is odd about each pole, so the samples become a sine series, checked
    by `_sine_profile`: uniform ones the sine series of their odd extension
    to period 2L (`numerics._interpolant`), non-uniform ones a least-squares fit
    (`_sine_fit`; a few ms at n = 3201).
    """
    s = np.asarray(s_values, dtype=float)
    p = np.asarray(phi_values, dtype=float)
    if s.ndim != 1 or s.size < 8 or s.shape != p.shape:
        raise ValueError("need matching 1-d sample arrays with at least 8 points")
    if np.any(np.diff(s) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if max(abs(p[0]), abs(p[-1])) > 1e-12 * np.max(np.abs(p)):
        raise ValueError("profile samples must vanish at both poles")
    L = float(s[-1] - s[0])
    s = s - s[0]
    if np.any(p[1:-1] <= 0):
        raise ValueError("profile must be positive between the poles")
    if np.allclose(s, np.linspace(0.0, L, s.size), rtol=0.0, atol=1e-12 * L):
        c, _, _ = _interpolant(p, L, "odd")
    else:
        c = _sine_fit(s, p, L)
    return _sine_profile(c, L, m_start, m_end, label)


def _sine_fit(s: np.ndarray, p: np.ndarray, length: float) -> np.ndarray:
    """`trig_series` coefficients of the least-squares fit of
    sum_k b_k sin(k pi s / L) to the samples: of 16, 32, 64, ... modes, at
    most (n - 1) // 2, the first whose tail past 64 eps max|p| chops."""
    # A fit's coefficients carry the samples' rounding times the fit's
    # conditioning, so past a smooth profile's modes they settle at 1 to 4
    # eps max|p|, not below eps as an interpolant's do.  Judged at 64 eps a
    # fit chops once the profile is resolved; the whole fit is kept, as its
    # modes below that still carry the profile (Gauss-Bonnet within 5e-14).
    tol = 64.0 * _EPS * np.max(np.abs(p))
    cap = (s.size - 1) // 2
    m = min(16, cap)
    while True:
        k = np.arange(1, m + 1) * (math.pi / length)
        c = np.concatenate([[0.0], -1j * np.linalg.lstsq(np.sin(np.outer(s, k)), p, rcond=None)[0]])
        if m == cap or _chop(c, tol)[1]:
            return c
        m = min(2 * m, cap)


# ---------------------------------------------------------------------------
# quadrature plan
# ---------------------------------------------------------------------------

def _rule(base: Base, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only nodes and weights of a level of the Fejér rule on
    [0, L], built once per base and level and kept in its plan: from then on
    the base's members are computed at those nodes once."""
    rules = base._plan.rules
    if level not in rules:
        rules[level] = _fejer_rule(0.0, base.length, level)
    return rules[level]


def _plan_level(base: Base, s) -> int | None:
    """The level of the base's plan whose node array is s itself (`_rule`),
    or None when s is no such array."""
    if not isinstance(s, np.ndarray):
        return None
    rule = base._plan.rules.get(s.size + 1)
    return s.size + 1 if rule is not None and rule[0] is s else None


def _planned(base: Base, name: str, s, compute: Callable):
    """compute(s); at the nodes of a level of the plan, computed once per
    base and returned read-only."""
    level = _plan_level(base, s)
    if level is None:
        return compute(s)
    values = base._plan.values.get((name, level))
    if values is None:
        # a copy: the caller's array stays writable
        values = base._plan.values[(name, level)] = np.array(compute(s), dtype=float)
        values.flags.writeable = False
    return values


def _norm_reports(base: Base, F) -> dict:
    """The curvature-form norms of F on the base kept in its plan, per
    config, for the caller to read and fill; a field that cannot be hashed
    gets a new dict, so its norms are computed afresh."""
    try:
        return base._plan.norms.setdefault(F, {})
    except TypeError:  # callables that define equality but no hash
        return {}


# ---------------------------------------------------------------------------
# base queries
# ---------------------------------------------------------------------------

def gauss_curvature(base: Base, s):
    """Gauss curvature at arclength s: -phi''/phi for profiles, 0 for the torus.

    At the node arrays of the base's plan the values come from the plan and
    are read-only.
    """
    return base.gauss_curvature(s)


def quadrature_nodes(base: Base) -> np.ndarray:
    """The read-only, increasing nodes at which `integrate_over_base(base,
    fn)` without breaks first calls fn, one array per base: a caller can
    compute there once and have fn return those values when it receives
    this array.  The base's members are computed there once per base."""
    return _rule(base, _FIRST_LEVEL)[0]


def integrate_over_base(
    base: Base,
    fn: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig | None = None,
    breaks: Sequence[float] = (),
) -> IntegralResult | list[IntegralResult]:
    """Integral of a radial function against the area measure of the base.

    fn receives read-only arclength nodes.  If it returns one row per
    integrand (a 2-d array), every row is integrated at once and a list of
    results is returned.  Without breaks the first call receives
    `quadrature_nodes(base)`, handed to `integrate` as its first level, where
    the area density comes from the base's plan; with breaks the rule runs on
    each piece between them, as in `integrate`.
    """

    def integrand(s):
        return np.asarray(fn(s)) * base.density(s)

    try:
        res = integrate(
            integrand, 0.0, base.length, cfg, breaks, _first_level=quadrature_nodes(base)
        )
    except NoConvergence as exc:
        raise QuadratureFailure(str(exc)) from exc
    scale = base.area_scale
    scaled = [
        IntegralResult(scale * r.value, scale * r.error_estimate, r.refinements_used)
        for r in (res if isinstance(res, list) else [res])
    ]
    return scaled if isinstance(res, list) else scaled[0]


def area(base: Base, cfg: QuadratureConfig | None = None) -> float:
    """Total area: the base's closed form where it has one (2 pi c L on the
    torus), else 2 pi int phi ds once per base and config, kept in its plan."""
    if base.closed_area is not None:
        return base.closed_area
    cfg = cfg or _DEFAULT_CONFIG
    areas = base._plan.areas
    if cfg not in areas:
        areas[cfg] = integrate_over_base(base, np.ones_like, cfg).value
    return areas[cfg]


def gauss_bonnet_check(base: Base, cfg: QuadratureConfig | None = None) -> float:
    """(1/2pi) int K dA by quadrature; contract: equals chi_orb within 1e-6."""
    res = integrate_over_base(base, base.gauss_curvature, cfg)
    return res.value / (2.0 * math.pi)


def chi_orb(base: Base) -> float:
    """Orbifold Euler characteristic from the cone data (exact, no quadrature)."""
    return base.chi_orb()


def scale_base(base: Base, c: float) -> Base:
    """Metric scaling g -> c^2 g: (L, phi) -> (cL, c phi(s/c))."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return base.scaled(c)
