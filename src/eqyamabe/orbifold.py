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
(empty on the torus), `periodic`, `closed_area` and `scaled(c)`.  The free
functions here and in `bundle`, `conformal` and `modelio` never test a type.

Base integrals (`integrate_over_base`, `area`, `gauss_bonnet_check`,
`scalar_curvature_integral`) are served from a quadrature plan per base: the
members' values at the shared read-only node arrays the base has used, the
base-only integrals, and the curvature-form norms of each curvature density
(`bundle.omega_norms`), each computed on first use.  The node arrays are
two levels of the nested Fejér rule on [0, L], one array per length: the
127 nodes of level 128 (`quadrature_nodes`), where a smooth integral makes
its only call of its integrand and where `omega_norms` and
`scalar_curvature_integral` bracket their roots, and the 511 of level 512,
the Galerkin grid of `conformal`.  Every base carries its plan, so a plan
is dropped when its base is garbage-collected, and a field's norms, kept in
a weak-keyed table of the plan, when the field is; integrands and callers
see read-only nodes and values.
Results are bit-identical to evaluating phi afresh at every call.

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
from functools import lru_cache, partial
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, NotCoprime, QuadratureFailure
from .numerics import _DEFAULT_CONFIG, _EPS, IntegralResult, NoConvergence, QuadratureConfig
from .numerics import _first_nodes, _interpolant_coefficients, _modes_past, _sampled_series, integrate
from .numerics import _with_dips, sign_change_roots, trig_series

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
    "scalar_curvature_integral",
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

    `nodes` maps id(nodes) to the shared node arrays that the base has used:
    levels 128 (the first), 256 and 512 (the Galerkin grids) of the Fejér
    rule, and finer ones where a minimizer's functional needs them;
    `values` maps (member, id(nodes)) to a base member's read-only values at
    those nodes; `integrals` maps (integrand, cfg) to a base-only integral;
    `norms` maps a curvature density F, weakly, to its curvature-form norms
    per cfg, so an entry dies with its field.  A plan holds no reference to
    its base.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, np.ndarray] = {}
        self.values: dict[tuple[str, int], np.ndarray] = {}
        self.integrals: dict[tuple[Callable, QuadratureConfig], float] = {}
        self.norms: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class ConeSurfaceProfile:
    """Arclength profile of a rotationally symmetric 2-orbifold sphere.

    phi > 0 on (0, L), phi(0) = phi(L) = 0, and the profile slopes at the
    poles are 1/m_start and -1/m_end (cone angles 2 pi / m).
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
        return ConeSurfaceProfile(
            c * self.length,
            self.m_start,
            self.m_end,
            lambda s: c * self.phi(np.asarray(s) / c),
            lambda s: self.phi_d1(np.asarray(s) / c),
            lambda s: self.phi_d2(np.asarray(s) / c) / c,
            label=f"{self.label}*{c}",
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
    odd = lambda _, p: (np.concatenate([p, -p[-2:0:-1]]), 0.0, 2.0 * L)  # noqa: E731
    c, _, _ = _sampled_series(phi, L, odd, "a profile callable", "the poles")
    return _sine_profile(c, L, m_start, m_end, label)


def _sine_profile(
    c: np.ndarray, length: float, m_start: int, m_end: int, label: str
) -> ConeSurfaceProfile:
    """The profile sum_k b_k sin(k pi s / L) of `trig_series` coefficients
    c_k = -i b_k.  Its pole slopes, read exactly from them as
    phi'(0) = sum (k pi / L) b_k and phi'(L) = sum (-1)^k (k pi / L) b_k, must
    be 1/m_start and -1/m_end to 1e-6, and phi must be positive at 65
    interior points; else ValueError."""
    slopes = np.arange(c.size) * (math.pi / length) * -c.imag  # per mode, at s = 0
    start, end = float(slopes.sum()), float(slopes[::2].sum() - slopes[1::2].sum())
    phi = trig_series(c, 0.0, math.pi / length)
    if np.any(phi[0](np.linspace(0.0, length, 67)[1:-1]) <= 0.0):
        raise ValueError("profile must be strictly positive between the poles")
    if abs(start - 1.0 / m_start) > _SLOPE_TOL or abs(end + 1.0 / m_end) > _SLOPE_TOL:
        raise ValueError(
            f"profile slopes at the poles are {start:.9g} and {end:.9g}; cone orders "
            f"({m_start}, {m_end}) need {1.0 / m_start:.9g} and {-1.0 / m_end:.9g}"
        )
    return ConeSurfaceProfile(float(length), int(m_start), int(m_end), *phi, label)


# Bases kept per constructor, least recently used first out: every caller of
# the same arguments shares one base and its quadrature plan.
_SHARED_BASES = 32


def make_round_sphere(radius: float) -> ConeSurfaceProfile:
    """Round sphere of the given radius as a smooth profile (cone orders 1, 1).

    One base per radius: calls with equal float(radius) return the same base.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _round_sphere(float(radius))


@lru_cache(maxsize=_SHARED_BASES)
def _round_sphere(R: float) -> ConeSurfaceProfile:
    return ConeSurfaceProfile(
        math.pi * R, 1, 1,
        lambda s: R * np.sin(np.asarray(s) / R),
        lambda s: np.cos(np.asarray(s) / R),
        lambda s: -np.sin(np.asarray(s) / R) / R,
        label=f"round_sphere(R={R})",
    )


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
    """Profile from arclength samples; endpoints must be the poles (phi = 0).

    phi is odd about each pole, so the samples become a sine series, checked
    by `_sine_profile`: uniform ones the sine series of their odd extension
    to period 2L (`trig_interpolant`), non-uniform ones a least-squares fit
    (`_sine_fit`; a few ms at n = 3201).
    """
    s = np.asarray(s_values, dtype=float)
    p = np.asarray(phi_values, dtype=float)
    if s.ndim != 1 or s.size < 8 or s.shape != p.shape:
        raise ValueError("need matching 1-d sample arrays with at least 8 points")
    if np.any(np.diff(s) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if abs(p[0]) > 1e-12 or abs(p[-1]) > 1e-12:
        raise ValueError("profile samples must vanish at both poles")
    L = float(s[-1] - s[0])
    s = s - s[0]
    if np.any(p[1:-1] <= 0):
        raise ValueError("profile must be positive between the poles")
    if np.allclose(s, np.linspace(0.0, L, s.size), rtol=0.0, atol=1e-12 * L):
        c, _ = _interpolant_coefficients(np.concatenate([p, -p[-2:0:-1]]))
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
        if m == cap or 4 * _modes_past(c, tol) <= 3 * c.size:
            return c
        m = min(2 * m, cap)


# ---------------------------------------------------------------------------
# quadrature plan
# ---------------------------------------------------------------------------

def _planned(base: Base, name: str, s, compute: Callable):
    """compute(s); at the plan's node arrays, computed once per base and
    returned read-only."""
    plan = base._plan
    if plan.nodes.get(id(s)) is not s:
        return compute(s)
    key = (name, id(s))
    values = plan.values.get(key)
    if values is None:
        # a copy: the caller's array stays writable
        values = plan.values[key] = np.array(compute(s), dtype=float)
        values.flags.writeable = False
    return values


def _plan_nodes(base: Base, nodes: np.ndarray) -> np.ndarray:
    """The shared read-only nodes, entered in the base's plan: from then on
    the base's members are computed there once."""
    base._plan.nodes[id(nodes)] = nodes
    return nodes


def _cached_integral(
    base: Base, fn: Callable, cfg: QuadratureConfig | None, breaks: Callable | None = None
) -> float:
    """`integrate_over_base(base, fn(base, .), cfg, breaks(base)).value`,
    computed once per (fn, cfg) for an integrand that depends on the base
    alone."""
    key = (fn, cfg or _DEFAULT_CONFIG)
    integrals = base._plan.integrals
    value = integrals.get(key)
    if value is None:
        value = integrals[key] = integrate_over_base(
            base, partial(fn, base), cfg, breaks(base) if breaks else ()
        ).value
    return value


def _norm_reports(base: Base, F) -> dict:
    """The curvature-form norms of F on the base kept in its plan, per
    config, for the caller to read and fill; a field that cannot be hashed
    gets a new dict, so its norms are computed afresh."""
    norms = base._plan.norms
    try:
        reports = norms.get(F)
    except TypeError:  # callables that define equality but no hash
        return {}
    if reports is None:
        reports = norms[F] = {}
    return reports


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
    fn)` without breaks first calls fn, one array per base length: a caller
    can compute there once and have fn return those values when it receives
    this array.  The base's members are computed there once per base."""
    return _plan_nodes(base, _first_nodes(0.0, base.length))


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
    `quadrature_nodes(base)`, where the area density comes from the base's
    plan; with breaks the rule runs on each piece between them, as in
    `integrate`.
    """
    quadrature_nodes(base)  # enters the first-level nodes in the plan
    try:
        res = integrate(
            lambda s: np.asarray(fn(s)) * base.density(s), 0.0, base.length, cfg, breaks
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
    torus), else 2 pi int phi ds once per base and config."""
    if base.closed_area is not None:
        return base.closed_area
    return _cached_integral(base, _unit, cfg)


def _unit(base: Base, s):
    return np.ones_like(s)


def scalar_curvature_integral(base: Base, cfg: QuadratureConfig | None = None) -> float:
    """int |2K|^{3/2} dA, the base scalar curvature to the power 3/2 (once
    per base and config); 0 on the flat torus.

    The integrand has a kink wherever K changes sign, so the roots of K found
    between the first level's nodes (Newton steps on a centred difference)
    split the integral into pieces, as the roots of F do in `omega_norms`.
    """
    return _cached_integral(base, _scal_32, cfg, _curvature_roots)


def _scal_32(base: Base, s):
    return np.abs(2.0 * base.gauss_curvature(s)) ** 1.5


def _curvature_roots(base: Base) -> np.ndarray:
    K = base.gauss_curvature
    nodes = quadrature_nodes(base)
    h = 1e-6 * base.length

    def dK(s):
        return (K(s + h) - K(s - h)) / (2.0 * h)

    return sign_change_roots(K, dK, *_with_dips(K, nodes, K(nodes)))


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
