"""Rotationally symmetric 2-orbifold bases.

Two representations are kept side by side:

* an arclength profile (ds^2 + phi(s)^2 dtheta^2 on [0, L] with cone points
  at the ends; phi in closed form, or the sine series of samples, fitted by
  least squares first when they are not uniform), which makes curvature,
  area and the radial Laplacian one-dimensional, and
* the rational chart of the weighted projective line CP^1(m1, m2), carrying
  the functions lam1, lam2, gamma of the quotient metric of the weighted
  circle action on the 3-sphere; the `invariants` routes and the tests read
  it as the independent route.

`wps_profile` is the chart's quotient metric in arclength, where it is
elementary: phi, phi' and phi'' are closed forms, accurate relative to phi
up to both poles.  Labelling convention: the pole at s = 0 is the zero locus
of the first complex coordinate and carries isotropy of order m2; the pole
at s = L carries order m1.

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
the Galerkin grid of `conformal`.  Plans live in a weak-keyed table, so a
plan is dropped when its base is garbage-collected, and a field's norms when
the field is; integrands and callers see read-only nodes and values.
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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, GridTooCoarse, NotCoprime, QuadratureFailure
from .numerics import IntegralResult, NoConvergence, QuadratureConfig, _first_nodes, integrate
from .numerics import _with_dips, sign_change_roots, trig_interpolant

__all__ = [
    "ConeSurfaceProfile",
    "FlatTorusBase",
    "WpsChart",
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
# chart of the weighted projective line
# ---------------------------------------------------------------------------

def _check_weights(m1: int, m2: int) -> None:
    if not (isinstance(m1, (int, np.integer)) and isinstance(m2, (int, np.integer))):
        raise NotCoprime("weights must be integers")
    if m1 < 1 or m2 < 1:
        raise NotCoprime("weights must be positive")
    if math.gcd(int(m1), int(m2)) != 1:
        raise NotCoprime(f"weights ({m1}, {m2}) are not coprime")


@dataclass(frozen=True)
class WpsChart:
    """Radial chart data of CP^1(m1, m2) in the parameter t in (0, 1).

    t is the squared modulus of the first sphere coordinate.  The frame
    functions are

        lam1(t) = -sqrt((m1^2 - m2^2) t + m2^2) / sqrt(t (1 - t))
        lam2(t) = -((m1 - m2) t + m2) / sqrt(t (1 - t))
        gamma(r) = (1 - r)^m1 / r^m2

    All first and second derivatives are hand-coded elementary expressions;
    they are validated against central differences in the test suite.
    """

    m1: int
    m2: int

    def __post_init__(self) -> None:
        _check_weights(self.m1, self.m2)

    # polynomial building blocks: P > 0 and Q > 0 on [0, 1]
    def _P(self, t):
        return (self.m1**2 - self.m2**2) * t + self.m2**2

    def _Q(self, t):
        return (self.m1 - self.m2) * t + self.m2

    def lam1(self, t):
        return -np.sqrt(self._P(t)) / np.sqrt(t * (1.0 - t))

    def lam1_d1(self, t):
        a = self.m1**2 - self.m2**2
        q = t * (1.0 - t)
        qp = 1.0 - 2.0 * t
        u = np.sqrt(self._P(t))
        up = a / (2.0 * u)
        v = q**-0.5
        vp = -0.5 * q**-1.5 * qp
        return -(up * v + u * vp)

    def lam1_d2(self, t):
        a = self.m1**2 - self.m2**2
        q = t * (1.0 - t)
        qp = 1.0 - 2.0 * t
        P = self._P(t)
        u = np.sqrt(P)
        up = a / (2.0 * u)
        upp = -(a * a) / (4.0 * P**1.5)
        v = q**-0.5
        vp = -0.5 * q**-1.5 * qp
        vpp = 0.75 * q**-2.5 * qp**2 + q**-1.5  # q'' = -2
        return -(upp * v + 2.0 * up * vp + u * vpp)

    def lam2(self, t):
        return -self._Q(t) / np.sqrt(t * (1.0 - t))

    def lam2_d1(self, t):
        b = self.m1 - self.m2
        q = t * (1.0 - t)
        qp = 1.0 - 2.0 * t
        v = q**-0.5
        vp = -0.5 * q**-1.5 * qp
        return -(b * v + self._Q(t) * vp)

    def gamma(self, r):
        return (1.0 - r) ** self.m1 / r**self.m2

    # log-derivative of gamma; works at every scale, unlike gamma itself
    def dlog_gamma(self, r):
        return -self._Q(r) / (r * (1.0 - r))

    def dlog_gamma_d1(self, r):
        b = self.m1 - self.m2
        q = r * (1.0 - r)
        return -(b * q - self._Q(r) * (1.0 - 2.0 * r)) / q**2

    def shear(self, t):
        """W = lam2 lam1' gamma / (lam1 gamma'), the connection coefficient."""
        return self.lam2(t) * self.lam1_d1(t) / (self.lam1(t) * self.dlog_gamma(t))

    def shear_d1(self, t):
        n = self.lam2(t) * self.lam1_d1(t)
        npr = self.lam2_d1(t) * self.lam1_d1(t) + self.lam2(t) * self.lam1_d2(t)
        d = self.lam1(t) * self.dlog_gamma(t)
        dpr = self.lam1_d1(t) * self.dlog_gamma(t) + self.lam1(t) * self.dlog_gamma_d1(t)
        return (npr * d - n * dpr) / (d * d)

    def kappa(self, t):
        """Gaussian curvature of the quotient metric at chart parameter t."""
        W = self.shear(t)
        return 4.0 * (self.shear_d1(t) * self.lam2(t) / self.dlog_gamma(t) - W * W)

    def boundary_form(self, t):
        """2 lam2 lam1' gamma / (lam1^2 gamma'); its endpoint limits are 1/m2 and -1/m1."""
        return 2.0 * self.lam2(t) * self.lam1_d1(t) / (self.lam1(t) ** 2 * self.dlog_gamma(t))


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

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
        return _planned(self, "dlog", s, lambda s: self.phi_d1(s) / self.density(s))

    def gauss_curvature(self, s):
        """-phi''/phi on the open interval (0, L)."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= 0.0) or np.any(s_arr >= self.length):
            raise DomainError("curvature is defined on the open interval (0, L)")
        return _planned(self, "K", s, lambda s: -self.phi_d2(s) / self.density(s))

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
    length: float,
    phi: Callable,
    phi_d1: Callable,
    phi_d2: Callable,
    m_start: int,
    m_end: int,
    label: str = "profile",
    check: bool = True,
) -> ConeSurfaceProfile:
    """Wrap closed-form profile data, verifying the cone-slope invariants."""
    base = ConeSurfaceProfile(float(length), int(m_start), int(m_end), phi, phi_d1, phi_d2, label)
    if check:
        _check_cone_slopes(base, h=min(1e-5, length * 1e-5))
    return base


def _one_sided_slope(phi: Callable, s0: float, h: float, sign: float) -> float:
    # Richardson pair kills the h^2 term of the odd pole series.
    d1 = (float(phi(s0 + sign * h)) - float(phi(s0))) / h
    d2 = (float(phi(s0 + sign * 2 * h)) - float(phi(s0))) / (2 * h)
    return sign * (4.0 * d1 - d2) / 3.0


def _check_cone_slopes(base: ConeSurfaceProfile, h: float) -> None:
    if 2 * h >= base.length:
        raise GridTooCoarse("differencing step exceeds the profile length")
    probe = np.linspace(h, base.length - h, 65)
    if np.any(np.asarray(base.phi(probe)) <= 0.0):
        raise ValueError("profile must be strictly positive between the poles")
    s_start = _one_sided_slope(base.phi, 0.0, h, +1.0)
    s_end = _one_sided_slope(base.phi, base.length, h, -1.0)
    err0 = abs(s_start - 1.0 / base.m_start)
    errL = abs(s_end + 1.0 / base.m_end)
    if err0 > _SLOPE_TOL or errL > _SLOPE_TOL:
        raise GridTooCoarse(
            f"cone-order check failed at h={h:.3e}: slope errors {err0:.3e}, {errL:.3e}"
        )


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
    return profile_from_callables(
        math.pi * R,
        lambda s: R * np.sin(np.asarray(s) / R),
        lambda s: np.cos(np.asarray(s) / R),
        lambda s: -np.sin(np.asarray(s) / R) / R,
        1,
        1,
        label=f"round_sphere(R={R})",
        check=False,
    )


def wps_profile(m1: int, m2: int) -> ConeSurfaceProfile:
    """Arclength profile of the quotient metric of the weighted circle action.

    Along the chart, circumference/2pi is -1/lam1 and the arclength element
    is |gamma'| dt / (2 gamma |lam2|), which simplifies to dt / (2 sqrt(t(1-t))),
    so t = sin(s)^2 with total length L = pi/2 and

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

    phi is odd about each pole: uniform samples give the sine series of their
    odd extension to period 2L (`trig_interpolant`), smooth through the poles.
    Non-uniform samples are fitted by least squares with its first (n - 1) // 2
    modes, read on the uniform grid of the same count (2 s at n = 3201).
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
    uniform = np.linspace(0.0, L, s.size)
    if not np.allclose(s, uniform, rtol=0.0, atol=1e-12 * L):
        k = np.arange(1, (s.size - 1) // 2 + 1) * (math.pi / L)
        coeffs = np.linalg.lstsq(np.sin(np.outer(s, k)), p, rcond=None)[0]
        p = np.sin(np.outer(uniform, k)) @ coeffs
    series = trig_interpolant(np.concatenate([p, -p[-2:0:-1]]), 0.0, 2.0 * L)
    return profile_from_callables(L, *series, m_start, m_end, label)


# ---------------------------------------------------------------------------
# quadrature plan
# ---------------------------------------------------------------------------

class _Plan:
    """Quadrature data of one base, computed once.

    `nodes` maps id(nodes) to the shared node arrays that the base has used:
    levels 128 (the first) and 512 (the Galerkin grid) of the Fejér rule;
    `values` maps (member, id(nodes)) to a base member's read-only values at
    those nodes; `integrals` maps (name, cfg) to a base-only integral;
    `norms` maps a curvature density F, weakly, to its curvature-form norms
    per cfg, so an entry dies with its field.  A plan holds no reference to
    its base.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, np.ndarray] = {}
        self.values: dict[tuple[str, int], np.ndarray] = {}
        self.integrals: dict[tuple[str, QuadratureConfig], float] = {}
        self.norms: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# One plan per live base; an entry dies with its base.
_PLANS: "weakref.WeakKeyDictionary[Base, _Plan]" = weakref.WeakKeyDictionary()


def _plan(base: Base) -> _Plan:
    try:
        plan = _PLANS.get(base)
    except TypeError:  # a profile built from unhashable callables is not cached
        return _Plan()
    if plan is None:
        plan = _PLANS[base] = _Plan()
    return plan


def _planned(base: Base, name: str, s, compute: Callable):
    """compute(s); at the plan's node arrays, computed once per base and
    returned read-only."""
    plan = _plan(base)
    if plan.nodes.get(id(s)) is not s:
        return compute(s)
    key = (name, id(s))
    if key not in plan.values:
        # a copy: the caller's array stays writable
        values = plan.values[key] = np.array(compute(s), dtype=float)
        values.flags.writeable = False
    return plan.values[key]


def _plan_nodes(base: Base, nodes: np.ndarray) -> np.ndarray:
    """The shared read-only nodes, entered in the base's plan: from then on
    the base's members are computed there once."""
    _plan(base).nodes[id(nodes)] = nodes
    return nodes


def _cached_integral(
    base: Base, name: str, fn: Callable, cfg: QuadratureConfig | None, breaks: Callable = tuple
) -> float:
    """`integrate_over_base(base, fn, cfg, breaks()).value`, computed once per
    (name, cfg) for an integrand that depends on the base alone."""
    cfg = cfg or QuadratureConfig()
    integrals = _plan(base).integrals
    key = (name, cfg)
    if key not in integrals:
        integrals[key] = integrate_over_base(base, fn, cfg, breaks()).value
    return integrals[key]


def _cached_norms(base: Base, field, cfg: QuadratureConfig | None, compute: Callable):
    """compute(cfg), the curvature-form norms of `field` on the base, once per
    (field, cfg); a field that cannot be hashed is computed afresh."""
    cfg = cfg or QuadratureConfig()
    try:
        reports = _plan(base).norms.setdefault(field, {})
    except TypeError:  # callables that define equality but no hash
        return compute(cfg)
    if cfg not in reports:
        reports[cfg] = compute(cfg)
    return reports[cfg]


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
    return _cached_integral(base, "area", lambda s: np.ones_like(s), cfg)


def scalar_curvature_integral(base: Base, cfg: QuadratureConfig | None = None) -> float:
    """int |2K|^{3/2} dA, the base scalar curvature to the power 3/2 (once
    per base and config); 0 on the flat torus.

    The integrand has a kink wherever K changes sign, so the roots of K found
    between the first level's nodes (Newton steps on a centred difference)
    split the integral into pieces, as the roots of F do in `omega_norms`.
    """
    K = base.gauss_curvature

    def roots() -> np.ndarray:
        nodes = quadrature_nodes(base)
        h = 1e-6 * base.length

        def dK(s):
            return (K(s + h) - K(s - h)) / (2.0 * h)

        return sign_change_roots(K, dK, *_with_dips(K, nodes, K(nodes)))

    return _cached_integral(base, "scal_32", lambda s: np.abs(2.0 * K(s)) ** 1.5, cfg, roots)


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
