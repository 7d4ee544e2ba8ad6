"""Topological invariants of weighted projective lines.

The rational Chern number of the associated line bundle and the orbifold
Euler characteristic are each computed three ways: exact closed form,
quadrature of the chart integrand, and (for chi) evaluation of the boundary
form's one-sided limits.  The three routes cross-validate one another.

Sign convention: the chart integrands are orientation-dependent and the raw
parameter integrals come out negative; every public routine reports the
positively oriented value, matching the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .numerics import IntegralResult, QuadratureConfig, integrate, limit_at_zero
from .orbifold import WpsChart, _check_weights

__all__ = [
    "InvariantReport",
    "c1_closed",
    "c1_quadrature",
    "chi_closed",
    "chi_quadrature",
    "chi_boundary",
    "kappa",
    "build_invariant_report",
]

# the kappa-route integrand cancels large terms near the endpoints, so the
# refinement tolerance is kept looser than the library default
_CHI_CFG = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-9)


def c1_closed(m1: int, m2: int) -> Fraction:
    """|c1| of the associated line bundle: exactly 1/(m1 m2)."""
    _check_weights(m1, m2)
    return Fraction(1, int(m1) * int(m2))


def c1_quadrature(m1: int, m2: int, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Chern integrand m1 m2 / (m2^2 + (m1^2 - m2^2) r)^2 integrated over (0, 1)."""
    _check_weights(m1, m2)
    a = m1 * m1 - m2 * m2

    def integrand(r):
        return (m1 * m2) / (m2 * m2 + a * r) ** 2

    return integrate(integrand, 0.0, 1.0, cfg)


def chi_closed(m1: int, m2: int) -> Fraction:
    """Orbifold Euler characteristic: exactly 1/m1 + 1/m2."""
    _check_weights(m1, m2)
    return Fraction(1, int(m1)) + Fraction(1, int(m2))


def kappa(m1: int, m2: int, r):
    """Gaussian curvature of the quotient metric at radial parameter r in (0, 1)."""
    _check_weights(m1, m2)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or np.any(r_arr >= 1.0):
        raise DomainError("kappa is defined for r strictly inside (0, 1)")
    return WpsChart(int(m1), int(m2)).kappa(r)


def chi_quadrature(m1: int, m2: int, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Euler characteristic as the curvature integral of the chart metric.

    Integrates kappa against the radial area density over (0, 1), then fixes
    the orientation sign.
    """
    _check_weights(m1, m2)
    chart = WpsChart(int(m1), int(m2))

    def integrand(r):
        # (1/2) kappa * gamma' / (lam1 lam2 gamma); equals -kappa/(2 sqrt(P))
        return 0.5 * chart.kappa(r) * chart.dlog_gamma(r) / (chart.lam1(r) * chart.lam2(r))

    res = integrate(integrand, 0.0, 1.0, cfg or _CHI_CFG)
    return IntegralResult(-res.value, res.error_estimate, res.refinements_used)


def chi_boundary(m1: int, m2: int) -> float:
    """Euler characteristic from the one-sided limits of the boundary form.

    The boundary form tends to 1/m2 at r -> 0+ and to -1/m1 at r -> 1-; the
    positively oriented difference of the limits is chi.
    """
    _check_weights(m1, m2)
    chart = WpsChart(int(m1), int(m2))
    # the endpoint Taylor series has coefficients like (m_big/m_small)^k, so
    # the ladder starts at 1e-5 scaled down by that ratio to stay asymptotic
    h0 = 1e-5 * min(m1, m2) / max(m1, m2)
    at_zero, _ = limit_at_zero(lambda eps: chart.boundary_form(eps), h0=h0, rel_tol=1e-8)
    at_one, _ = limit_at_zero(lambda eps: chart.boundary_form(1.0 - eps), h0=h0, rel_tol=1e-8)
    return at_zero - at_one


@dataclass(frozen=True)
class InvariantReport:
    m1: int
    m2: int
    c1_closed: Fraction
    c1_quadrature: float
    c1_error: float
    chi_closed: Fraction
    chi_quadrature: float
    chi_quadrature_error: float
    chi_boundary: float

    def deltas(self) -> dict[str, float]:
        return {
            "c1_quadrature_vs_closed": abs(self.c1_quadrature - float(self.c1_closed)),
            "chi_quadrature_vs_closed": abs(self.chi_quadrature - float(self.chi_closed)),
            "chi_boundary_vs_closed": abs(self.chi_boundary - float(self.chi_closed)),
        }


def build_invariant_report(
    m1: int, m2: int, cfg: QuadratureConfig | None = None
) -> InvariantReport:
    """All routes at once, for the CLI and for cross-route validation."""
    c1q = c1_quadrature(m1, m2, cfg)
    chiq = chi_quadrature(m1, m2, cfg)
    return InvariantReport(
        m1=int(m1),
        m2=int(m2),
        c1_closed=c1_closed(m1, m2),
        c1_quadrature=c1q.value,
        c1_error=c1q.error_estimate,
        chi_closed=chi_closed(m1, m2),
        chi_quadrature=chiq.value,
        chi_quadrature_error=chiq.error_estimate,
        chi_boundary=chi_boundary(m1, m2),
    )
