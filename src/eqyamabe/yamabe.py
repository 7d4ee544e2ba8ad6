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

import contextlib
import math
import sys
from dataclasses import dataclass
from typing import Callable, Union

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
    _GRID_LEVEL,
    Base,
    _check_weights,
    _rule,
    _square_difference,
    area,
    chi_orb,
    integrate_over_base,
    make_round_sphere,
    quadrature_nodes,
    wps_profile,
)

__all__ = [
    "YamabeReport",
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


def _closed_form(name: str, formula: Callable, *args: float, positive: bool = True) -> float:
    """formula(*args), a closed form in numbers, by the library's one rule for
    a closed form out of scale, which judges its value, not its
    intermediates.  Args of magnitude within 1e-100 to 1e100 are evaluated
    as Python floats, where no power in these formulas (exponents of at most
    8/3) overflows and no divisor is 0, so nothing raises; any other args
    become numpy doubles with numpy's floating-point warnings off, so no
    power, product or quotient raises or warns.  Both give the bits of the
    expression in Python floats, and a finite value is returned.  A value
    past the doubles (an overflow, or a product that goes to +-inf), or one
    that underflowed to 0 where the formula makes it positive (unless
    `positive` is False: a value that may be 0), raises NumericalError
    naming the quantity: `name`, formatted with the args."""
    plain = all([1e-100 <= abs(a) <= 1e100 for a in args])
    with contextlib.nullcontext() if plain else np.errstate(all="ignore"):
        value = float(formula(*(args if plain else map(np.float64, args))))
    if math.isfinite(value) and (value != 0.0 or not positive):
        return value
    fault = "underflowed to 0" if math.isfinite(value) else "leaves the doubles"
    raise NumericalError(f"{name.format(*args)} {fault}: out of scale")


def _log_sphere_volume_per_half_dim(n: float) -> float:
    """log vol(S^n) / (n/2) past n = 342, by Stirling's series for
    lgamma((n+1)/2) to its h^-5 term (the rest is below 1e-19 there), each
    term divided by n/2 first, so it is finite for every n up to DBL_MAX,
    where lgamma overflows from n ~ 5e305 on."""
    h, m = 0.5 * n + 0.5, 0.5 * n
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * h * h)) / (h * h)) / h
    return ((0.5 * math.log(2.0 / math.pi) - stirling) / m
            + h / m * math.log(math.e * math.pi) - math.log(h))


# Gamma((n + 1) / 2) is a double up to n = 342, where both keep its expression
def _sphere_volume(n: float) -> float:
    return (2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0) if n <= 342
            else math.exp(0.5 * n * _log_sphere_volume_per_half_dim(n)))


def _sigma_sn(n: float) -> float:
    return (n * (n - 1) * _sphere_volume(n) ** (2.0 / n) if n <= 342
            else n * math.exp(math.log(n - 1) + _log_sphere_volume_per_half_dim(n)))


def sphere_volume(n: int) -> float:
    """Volume of the unit n-sphere, 2 pi^{(n+1)/2} / Gamma((n+1)/2), by that
    expression up to n = 342 and from its logarithm past it, where Gamma
    overflows: from n = 455 on it underflows to 0 (NumericalError,
    `_closed_form`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _closed_form(f"vol(S^{n})", _sphere_volume, min(n, sys.float_info.max))


def sigma_sn(n: int) -> float:
    """Best-constant value n (n-1) vol(S^n)^{2/n} of the round n-sphere,
    about 2 pi e n for large n: a double wherever it is one, up to n of about
    1e307, from the logarithm of the volume past n = 342, so past its
    underflow too."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _closed_form(f"sigma(S^{n})", _sigma_sn, min(n, sys.float_info.max))


#: 3 * 2^{5/3} * pi^{4/3}, the round 3-sphere value; every bound is a multiple of it.
SIGMA_S3 = sigma_sn(3)


@dataclass(frozen=True)
class YamabeReport:
    J: float
    numerator: float
    denominator: float
    route: str  # "base_integral", the one route that produces a report
    error_estimate: float


def functional_J(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> YamabeReport:
    """Evaluate the functional by the base-integral route, cross-checked
    against the direct total-scalar-curvature route.

    The base route's numerator, the volume and the direct route's numerator
    are three rows of one integral, which share the values of ell, K, F and
    the total scalar curvature; at the first level those are the metric's
    own, kept once (`bundle._node_values`).  A row whose integral is not
    finite, as when the data's scale overflows, raises NumericalError naming
    the rows not finite at the first level's nodes, with no numpy warning.
    """

    def rows(s):
        out = np.empty((3, np.size(s)))
        ell, K, F, scal = _node_values(metric, s)
        out[0] = (2.0 * K - 0.5 * ell**2 * F**2) * ell
        out[1] = ell
        out[2] = scal * ell
        return out

    base = metric.base
    try:
        num, vol_base, direct = integrate_over_base(base, rows, cfg)
    except NonFinite as exc:
        every = ("(2K - ell^2 F^2 / 2) ell", "ell", "scal ell")
        with np.errstate(all="ignore"):  # the rows are out of scale: name them, quietly
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
    on every CPU, so `ell_scan`'s rows equal `functional_J_closed`.  A value
    that leaves the doubles raises NumericalError (`_closed_form`)."""
    return _closed_form(
        "J at ell = {3!r}", lambda v, c, w, l: (math.pi**2 / (16.0 * v)) ** (1.0 / 3.0)
        * (16.0 * math.pi * c * l ** (2.0 / 3.0) - w * l ** (8.0 / 3.0)),
        vol, chi, omega_L2_sq, ell, positive=False)


def conformal_functional(
    metric: InvariantMetric, u: FieldLike, cfg: QuadratureConfig | None = None
) -> float:
    """Functional at the conformal factor u (fourth-power convention, n = 3):

        int 2 pi ell (8 |du|^2 + Scal u^2) dv / (int 2 pi ell u^6 dv)^{1/3}

    Invariant under u -> c u; requires u > 0 at the 511 nodes of the base
    plan's Galerkin grid (`orbifold._GRID_LEVEL`), which hold every node the
    integrals' first levels read (NonPositiveFactor otherwise).  Those nodes
    are denser than a uniform grid of 511 points within 11% of L of either
    pole, and up to 1.57 times sparser (L/326 against L/512) in the middle.
    ell and the total scalar curvature at the first level are the metric's
    own, kept once (`bundle._node_values`), and u there is read from its
    values on the grid, whose every fourth node is a first-level node.
    """
    base = metric.base
    uf = as_radial_field(u, base)
    u_grid = np.asarray(uf.value(_rule(base, _GRID_LEVEL)[0]), dtype=float)
    if np.any(u_grid <= 0.0):
        raise NonPositiveFactor("conformal factor must be strictly positive")

    def rows(s):
        # numerator and denominator share the evaluations of ell and u
        out = np.empty((2, np.size(s)))
        ell, _, _, scal = _node_values(metric, s)
        u_s = u_grid[3::4] if s is quadrature_nodes(base) else uf.value(s)
        fiber = 2.0 * math.pi * ell
        out[0] = fiber * (8.0 * uf.d1(s) ** 2 + scal * u_s**2)
        out[1] = fiber * u_s**6
        return out

    num, den = integrate_over_base(base, rows, cfg)
    if den.value == 0.0:
        raise NumericalError("the volume int 2 pi ell u^6 dv underflowed to 0: out of scale")
    return num.value / den.value ** (1.0 / 3.0)


def _closed_form_optimum(vol: float, chi: float, omega_L2_sq: float) -> tuple[float, float]:
    """`optimal_ell`'s ell* and J_max from vol, chi > 0 and |Omega|_2^2 > 0:
    the one critical point of `closed_form_J` in ell, a maximum, and its
    value, positive (`_closed_form`)."""
    ell_star = math.sqrt(4.0 * math.pi * chi) / math.sqrt(omega_L2_sq)
    return ell_star, _closed_form(
        "J_max at vol = {0!r}, chi = {1!r}, |Omega|_2^2 = {2!r}", lambda v, c, w:
        3.0 * 2.0 ** (4.0 / 3.0) * math.pi**2 * v ** (-1.0 / 3.0) * c ** (4.0 / 3.0)
        * w ** (-1.0 / 3.0), vol, chi, omega_L2_sq)


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

    normalized so that (1/2pi) int F dA over the base is 1/(m1 m2).  Weights
    of 2^255 or more raise NonFinite (`orbifold._square_difference`).
    """
    # P as m1^2 sin^2 s + m2^2 cos^2 s rather than a polynomial in sin^2 s:
    # stable at both poles
    a = _square_difference(m1, m2)
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
    return _closed_form(
        "the Cauchy-Schwarz bound at chi = {0!r}, |Omega|_1 = {1!r}", lambda c, w:
        3.0 * 2.0 ** (4.0 / 3.0) * math.pi**2 * c ** (4.0 / 3.0) * w ** (-2.0 / 3.0),
        chi, norms.omega_L1)


def bound_theorem_main(chi: float, c1: float) -> float:
    """Topological upper bound sigma(S^3) (chi / (2 sqrt(|c1|)))^{4/3}."""
    if chi <= 0:
        raise InvalidCase("the topological bound requires chi > 0")
    if c1 == 0:
        raise InvalidCase("the topological bound requires a nonzero Chern number")
    return _closed_form("the topological bound at chi = {0!r}, c1 = {1!r}", lambda c, c1:
                        SIGMA_S3 * (c / (2.0 * math.sqrt(abs(c1)))) ** (4.0 / 3.0), chi, c1)


def bound_weighted_hopf(m1: int, m2: int) -> float:
    """sigma(S^3) ((m1 + m2) / (2 sqrt(m1 m2)))^{4/3} for the weighted actions;
    the weights must be coprime positive integers (`orbifold._check_weights`)."""
    _check_weights(m1, m2)
    return _closed_form("the weighted-pair bound at (m1 + m2) / 2 sqrt(m1 m2) = {0!r}", lambda r:
                        SIGMA_S3 * r ** (4.0 / 3.0), (m1 + m2) / (2.0 * math.sqrt(m1 * m2)))


def hebey_vaugon_bound(n: int, k: Union[int, float]) -> float:
    """sigma(S^n) k^{2/n} where k is the minimal orbit cardinality, a
    positive integer of at most DBL_MAX.

    k may be math.inf, in which case the bound is +inf (no constraint).
    """
    if n < 3:
        raise ValueError("the bound applies in dimension n >= 3")
    if k == math.inf:
        return math.inf
    if k < 1 or int(k) != k or k > sys.float_info.max:
        raise ValueError("orbit cardinality must be a positive integer up to DBL_MAX, or inf")
    return _closed_form("the orbit-count bound at n = {2!r}, k = {1!r}",
                        lambda s, k, n: s * k ** (2.0 / n), sigma_sn(n), float(k), n)
