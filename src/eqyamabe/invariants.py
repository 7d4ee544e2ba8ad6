"""Topological invariants of weighted projective lines.

The rational Chern number of the associated line bundle and the orbifold
Euler characteristic are each computed three ways: exact closed form,
quadrature on the arclength base `wps_profile(m1, m2)`, and (for chi) the
pole slopes of its closed-form profile.  The three routes cross-validate one
another.

On that base, dA = 2 pi phi ds; c1 = (1/2pi) int F dA with F the density of
`yamabe.wps_density_field`, and chi = (1/2pi) int K dA, which Gauss-Bonnet
turns into the pole slopes phi'(0) - phi'(L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InconsistentRoutes
from .numerics import _DEFAULT_CONFIG, IntegralResult, QuadratureConfig
from .orbifold import ConeSurfaceProfile, _check_weights, integrate_over_base, wps_profile
from .yamabe import wps_density_field

__all__ = [
    "InvariantReport",
    "c1_closed",
    "c1_quadrature",
    "chi_closed",
    "chi_quadrature",
    "chi_boundary",
    "build_invariant_report",
]


def c1_closed(m1: int, m2: int) -> Fraction:
    """|c1| of the associated line bundle: exactly 1/(m1 m2)."""
    _check_weights(m1, m2)
    return Fraction(1, int(m1) * int(m2))


def _over_2pi(
    base: ConeSurfaceProfile, fn: Callable, cfg: QuadratureConfig | None
) -> IntegralResult:
    """(1/2pi) int fn dA over the base, value and estimate alike."""
    res = integrate_over_base(base, fn, cfg)
    two_pi = 2.0 * math.pi
    return IntegralResult(res.value / two_pi, res.error_estimate / two_pi, res.refinements_used)


def c1_quadrature(m1: int, m2: int, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """(1/2pi) int F dA of the weighted Hopf curvature density over `wps_profile`."""
    return _over_2pi(wps_profile(m1, m2), wps_density_field(m1, m2).value, cfg)


def chi_closed(m1: int, m2: int) -> Fraction:
    """Orbifold Euler characteristic: exactly 1/m1 + 1/m2."""
    _check_weights(m1, m2)
    return Fraction(1, int(m1)) + Fraction(1, int(m2))


def chi_quadrature(m1: int, m2: int, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """(1/2pi) int K dA over `wps_profile`, the Gauss-Bonnet integral."""
    base = wps_profile(m1, m2)
    return _over_2pi(base, base.gauss_curvature, cfg)


def chi_boundary(m1: int, m2: int) -> float:
    """Euler characteristic from the pole slopes phi'(0) - phi'(L) of the
    closed-form profile: 1/m2 + 1/m1, exact up to the rounding of each slope
    and of their sum."""
    base = wps_profile(m1, m2)
    return float(base.phi_d1(0.0) - base.phi_d1(base.length))


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
    """All routes at once, for the CLI and for cross-route validation.  A
    quadrature route that misses its closed form by more than 1e-6 relative
    (or the config's rel_tol, if looser) raises InconsistentRoutes: past the
    weights its rule resolves, a quadrature can settle on a wrong value with
    a small error estimate."""
    c1q = c1_quadrature(m1, m2, cfg)
    chiq = chi_quadrature(m1, m2, cfg)
    report = InvariantReport(
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
    rel_tol = max(1e-6, (cfg or _DEFAULT_CONFIG).rel_tol)
    deltas = report.deltas()
    for name, value, closed in (("c1", c1q.value, float(report.c1_closed)),
                                ("chi", chiq.value, float(report.chi_closed))):
        if not deltas[f"{name}_quadrature_vs_closed"] <= rel_tol * closed:
            raise InconsistentRoutes(
                f"{name} quadrature {value:.6g} misses the closed form {closed:.6g} "
                f"by more than {rel_tol:.0e} relative: weights past what the rule resolves"
            )
    return report
