"""Einstein-Hilbert functional on circle bundles and the topological bounds.

For an invariant metric with fiber-length profile ell over a base surface,
the functional is evaluated two ways: by the base integral

    J = 2 pi int (Scal_base - (ell^2/4) |Omega|^2) ell dv / (2 pi int ell dv)^{1/3}

(here the fiber-gradient terms have integrated out exactly), and directly as
total scalar curvature over volume^{1/3}.  Disagreement between the routes
signals a curvature or Laplacian bug and raises.

For constant ell everything collapses to a closed form in the area, the
orbifold Euler characteristic and the squared L2 norm of the curvature form;
maximizing that closed form over ell gives the topological upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .bundle import (
    FieldLike,
    InvariantMetric,
    NormReport,
    RadialField,
    _node_values,
    _norms,
    as_radial_field,
)
from .errors import (
    InconsistentRoutes,
    InvalidCase,
    NonFinite,
    NonpositiveChi,
    NonPositiveFactor,
    NumericalError,
    UnboundedInEll,
)
from .numerics import QuadratureConfig
from .orbifold import (
    Base,
    _check_weights,
    area,
    chi_orb,
    integrate_over_base,
    make_round_sphere,
    quadrature_nodes,
    wps_profile,
)

__all__ = [
    "YamabeReport",
    "BoundReport",
    "sphere_volume",
    "sigma_sn",
    "SIGMA_S3",
    "functional_J",
    "functional_J_closed",
    "closed_form_J",
    "conformal_functional",
    "optimal_ell",
    "wps_density_field",
    "wps_metric",
    "hopf_metric",
    "bound_cauchy_schwarz",
    "bound_theorem_main",
    "bound_weighted_hopf",
    "hebey_vaugon_bound",
]

# |Omega|_1 at or below this counts as a flat bundle
_OMEGA_ZERO_TOL = 1e-12


def _curvature_form_vanishes(norms: NormReport) -> bool:
    """The library's one zero test of the curvature form: |Omega|_1 =
    sqrt2 int |F| dA, which no scaling g -> c^2 g changes, at or below
    `_OMEGA_ZERO_TOL`, so that a model and its rescaled twin agree."""
    return norms.omega_L1 <= _OMEGA_ZERO_TOL


def sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere: 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def sigma_sn(n: int) -> float:
    """Best-constant value n (n-1) vol(S^n)^{2/n} of the round n-sphere."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return n * (n - 1) * sphere_volume(n) ** (2.0 / n)


#: 3 * 2^{5/3} * pi^{4/3}, the round 3-sphere value; every bound is a multiple of it.
SIGMA_S3 = sigma_sn(3)


@dataclass(frozen=True)
class YamabeReport:
    J: float
    numerator: float
    denominator: float
    route: str  # "base_integral" or "closed_form"
    error_estimate: float


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which rule produced it, its value, and the
    inputs it was computed from (rational topology or measured norms)."""

    kind: str  # topological | weighted_pair | cauchy_schwarz | orbit_count | optimal_fiber_length
    value: float
    inputs: dict

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) and self.kind != "orbit_count":
            raise ValueError(f"bound value must be finite, got {self.value}")


def functional_J(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> YamabeReport:
    """Evaluate the functional by the base-integral route, cross-checked
    against the direct total-scalar-curvature route.

    The base route's numerator, the volume and the direct route's numerator
    are three rows of one integral, which share the values of ell, K, F and
    the total scalar curvature; at the first level those are the metric's
    own, kept once (`bundle._node_values`).  A row that is not finite, as
    when the data's scale overflows, raises NumericalError naming it, with
    no numpy warning.
    """

    def rows(s):
        out = np.empty((3, np.size(s)))
        at = _node_values(metric, s)
        ell, K, F = at.ell, at.K, at.F
        out[0] = (2.0 * K - 0.5 * ell**2 * F**2) * ell
        out[1] = ell
        out[2] = at.scal * ell
        return out

    base = metric.base
    with np.errstate(all="ignore"):  # data out of scale is an error below, not a warning
        try:
            num, vol_base, direct = integrate_over_base(base, rows, cfg)
        except NonFinite as exc:
            every = ("(2K - ell^2 F^2 / 2) ell", "ell", "scal ell")
            finite = np.isfinite(rows(quadrature_nodes(base))).all(axis=1)
            names = [name for name, ok in zip(every, finite) if not ok] or every
            raise NumericalError(
                f"the integrand of J is not finite in {' and '.join(names)}: out of scale"
            ) from exc
    numerator = 2.0 * math.pi * num.value
    volume = 2.0 * math.pi * vol_base.value
    if volume == 0.0:
        raise NumericalError("the volume underflowed to 0: out of scale")
    denominator = volume ** (1.0 / 3.0)
    J = numerator / denominator

    J_direct = 2.0 * math.pi * direct.value / denominator
    tol = 1e-8 * max(abs(J), abs(J_direct), 1e-6)
    if abs(J - J_direct) > tol:
        raise InconsistentRoutes(
            f"base-integral and direct routes disagree: {J} vs {J_direct}"
        )

    err = 2.0 * math.pi * num.error_estimate / denominator + abs(J) * vol_base.error_estimate / (
        3.0 * max(vol_base.value, 1e-300)
    )
    return YamabeReport(J=J, numerator=numerator, denominator=denominator,
                        route="base_integral", error_estimate=err)


def functional_J_closed(
    base: Base, F: FieldLike, ell_const: float, cfg: QuadratureConfig | None = None,
    norms: NormReport | None = None,
) -> float:
    """Closed form for constant fiber length:

        (pi^2 / (16 vol))^{1/3} (16 pi chi ell^{2/3} - |Omega|_2^2 ell^{8/3})

    `norms`, when given, is the `omega_norms` report of (base, F) and is used
    instead of looking it up; otherwise the report is read from the base's
    quadrature plan, where the first call for (F, cfg) computes it.
    """
    if ell_const <= 0:
        raise ValueError("fiber length must be positive")
    vol = area(base, cfg)
    if norms is None:
        norms = _norms(base, F, cfg)
    return closed_form_J(vol, chi_orb(base), norms.omega_L2_sq, ell_const)


def closed_form_J(vol: float, chi: float, omega_L2_sq: float, ell: float) -> float:
    """(pi^2 / (16 vol))^{1/3} (16 pi chi ell^{2/3} - |Omega|_2^2 ell^{8/3})
    at one fiber length: a number, whose powers libm's pow rounds the same
    on every CPU, so `ell_scan`'s rows equal `functional_J_closed`."""
    return (math.pi**2 / (16.0 * vol)) ** (1.0 / 3.0) * (
        16.0 * math.pi * chi * ell ** (2.0 / 3.0) - omega_L2_sq * ell ** (8.0 / 3.0)
    )


def conformal_functional(
    metric: InvariantMetric, u: FieldLike, cfg: QuadratureConfig | None = None
) -> float:
    """Functional at the conformal factor u (fourth-power convention, n = 3):

        int 2 pi ell (8 |du|^2 + Scal u^2) dv / (int 2 pi ell u^6 dv)^{1/3}

    Invariant under u -> c u; requires u > 0.  ell and the total scalar
    curvature at the first level are the metric's own, kept once
    (`bundle._node_values`).
    """
    base = metric.base
    uf = as_radial_field(u, base)

    if np.any(np.asarray(uf.value(_positivity_probe(base.length))) <= 0.0):
        raise NonPositiveFactor("conformal factor must be strictly positive")

    def rows(s):
        # numerator and denominator share the evaluations of ell and u
        out = np.empty((2, np.size(s)))
        at, u_s = _node_values(metric, s), uf.value(s)
        fiber = 2.0 * math.pi * at.ell
        out[0] = fiber * (8.0 * uf.d1(s) ** 2 + at.scal * u_s**2)
        out[1] = fiber * u_s**6
        return out

    num, den = integrate_over_base(base, rows, cfg)
    if den.value == 0.0:
        raise NumericalError("the volume int 2 pi ell u^6 dv underflowed to 0: out of scale")
    return num.value / den.value ** (1.0 / 3.0)


@lru_cache(maxsize=64)
def _positivity_probe(length: float) -> np.ndarray:
    """The 511 read-only interior points of linspace(0, L, 513), where
    `conformal_functional` checks that its factor is positive."""
    probe = np.linspace(0.0, length, 513)[1:-1]
    probe.flags.writeable = False
    return probe


def _closed_form_optimum(vol: float, chi: float, omega_L2_sq: float) -> tuple[float, float]:
    """`optimal_ell`'s ell* and J_max from vol, chi > 0 and |Omega|_2^2 > 0:
    the one critical point of `closed_form_J` in ell, a maximum, and its
    value."""
    ell_star = math.sqrt(4.0 * math.pi * chi) / math.sqrt(omega_L2_sq)
    j_max = (
        3.0
        * 2.0 ** (4.0 / 3.0)
        * math.pi**2
        * vol ** (-1.0 / 3.0)
        * chi ** (4.0 / 3.0)
        * omega_L2_sq ** (-1.0 / 3.0)
    )
    return ell_star, j_max


def optimal_ell(
    base: Base, F: FieldLike, cfg: QuadratureConfig | None = None,
    norms: NormReport | None = None,
) -> tuple[float, float]:
    """Maximizing constant fiber length and the maximal functional value, in
    closed form:

        ell* = sqrt(4 pi chi) / |Omega|_2,
        J_max = 3 * 2^{4/3} pi^2 vol^{-1/3} chi^{4/3} |Omega|_2^{-2/3}

    `norms`, when given, is the `omega_norms` report of (base, F) and is used
    instead of looking it up; otherwise the report is read from the base's
    quadrature plan, where the first call for (F, cfg) computes it.  A
    curvature form that is not zero but whose |Omega|_2^2 underflowed to 0
    is out of scale (NumericalError).
    """
    chi = chi_orb(base)
    if chi <= 0:
        raise NonpositiveChi("no interior maximum in ell when chi <= 0")
    if norms is None:
        norms = _norms(base, F, cfg)
    if _curvature_form_vanishes(norms):
        raise UnboundedInEll(
            "curvature form vanishes: the functional grows like ell^{2/3} without bound"
        )
    if norms.omega_L2_sq == 0.0:
        raise NumericalError(
            f"|Omega|_2^2 underflowed to 0 while |Omega|_1 = {norms.omega_L1:.3e}: out of scale"
        )
    return _closed_form_optimum(area(base, cfg), chi, norms.omega_L2_sq)


def wps_density_field(m1: int, m2: int) -> RadialField:
    """Unit-frame curvature density of the weighted Hopf connection on
    `wps_profile`, in its arclength s:

        F(s) = 2 m1 m2 / P(s)^{3/2},  P(s) = m1^2 sin^2 s + m2^2 cos^2 s,

    normalized so that (1/2pi) int F dA over the base is 1/(m1 m2).
    """
    # P as m1^2 sin^2 s + m2^2 cos^2 s rather than a polynomial in sin^2 s:
    # stable at both poles
    a = float(m1 * m1 - m2 * m2)
    c = 2.0 * m1 * m2

    def P(s):
        return (m1 * np.sin(s)) ** 2 + (m2 * np.cos(s)) ** 2

    def val(s):
        s = np.asarray(s, dtype=float)
        return c * P(s) ** -1.5

    def d1(s):
        s = np.asarray(s, dtype=float)
        return -1.5 * c * P(s) ** -2.5 * a * np.sin(2.0 * s)

    def d2(s):
        s = np.asarray(s, dtype=float)
        return c * (
            3.75 * P(s) ** -3.5 * (a * np.sin(2.0 * s)) ** 2
            - 1.5 * P(s) ** -2.5 * 2.0 * a * np.cos(2.0 * s)
        )

    return RadialField(value=val, d1=d1, d2=d2)


def wps_metric(m1: int, m2: int, ell: float = 1.0) -> InvariantMetric:
    """Quotient base of the weighted circle action (the shared `wps_profile`
    base) with its connection density and constant fiber length ell."""
    return InvariantMetric(
        base=wps_profile(m1, m2), ell=RadialField.const(ell), F=wps_density_field(m1, m2)
    )


def hopf_metric(ell: float = 1.0) -> InvariantMetric:
    """Round 3-sphere data: half-radius round base, F = 2, constant fiber length."""
    return InvariantMetric(
        base=make_round_sphere(0.5), ell=RadialField.const(ell), F=RadialField.const(2.0)
    )


def bound_cauchy_schwarz(
    base: Base, F: FieldLike, cfg: QuadratureConfig | None = None,
    norms: NormReport | None = None,
) -> float:
    """Upper bound 3 * 2^{4/3} pi^2 chi^{4/3} |Omega|_1^{-2/3} (volume-free).

    `norms`, when given, is the `omega_norms` report of (base, F) and is used
    instead of looking it up; otherwise the report is read from the base's
    quadrature plan, where the first call for (F, cfg) computes it.
    """
    chi = chi_orb(base)
    if chi <= 0:
        raise NonpositiveChi("the bound requires chi > 0")
    if norms is None:
        norms = _norms(base, F, cfg)
    if _curvature_form_vanishes(norms):
        raise UnboundedInEll("curvature form vanishes: no finite bound")
    return (
        3.0 * 2.0 ** (4.0 / 3.0) * math.pi**2 * chi ** (4.0 / 3.0) * norms.omega_L1 ** (-2.0 / 3.0)
    )


def bound_theorem_main(chi: float, c1: float) -> float:
    """Topological upper bound sigma(S^3) (chi / (2 sqrt(|c1|)))^{4/3}."""
    if chi <= 0:
        raise InvalidCase("the topological bound requires chi > 0")
    if c1 == 0:
        raise InvalidCase("the topological bound requires a nonzero Chern number")
    return SIGMA_S3 * (chi / (2.0 * math.sqrt(abs(c1)))) ** (4.0 / 3.0)


def bound_weighted_hopf(m1: int, m2: int) -> float:
    """sigma(S^3) ((m1 + m2) / (2 sqrt(m1 m2)))^{4/3} for the weighted actions;
    the weights must be coprime positive integers (`orbifold._check_weights`)."""
    _check_weights(m1, m2)
    return SIGMA_S3 * ((m1 + m2) / (2.0 * math.sqrt(m1 * m2))) ** (4.0 / 3.0)


def hebey_vaugon_bound(n: int, k: Union[int, float]) -> float:
    """sigma(S^n) k^{2/n} where k is the minimal orbit cardinality.

    k may be math.inf, in which case the bound is +inf (no constraint).
    """
    if n < 3:
        raise ValueError("the bound applies in dimension n >= 3")
    if k != math.inf:
        if k < 1 or int(k) != k:
            raise ValueError("orbit cardinality must be a positive integer or inf")
    if k == math.inf:
        return math.inf
    return sigma_sn(n) * float(k) ** (2.0 / n)
