"""30-digit mpmath references for the curvature-form norms and Gauss-Bonnet.

On the quotient base of wps(m1, m2), in the arclength s in (0, pi/2),

    phi(s) = sin s cos s / sqrt(P),  F(s) = 2 m1 m2 / P^{3/2},
    P(s) = m1^2 sin^2 s + m2^2 cos^2 s,

so |Omega|_2^2 = 2 pi int 2 F^2 phi ds, c1 = int F phi ds and the
Gauss-Bonnet integral is int -phi'' ds.  The references below integrate these
expressions with mpmath's tanh-sinh rule, independently of the library.
"""

from __future__ import annotations

import mpmath
import pytest

import eqyamabe as eq

PAIRS = [(1, 2), (2, 3), (1, 9)]
REL = 1e-13


def _references(m1: int, m2: int) -> dict[str, float]:
    with mpmath.workdps(30):
        P = lambda s: (m1 * mpmath.sin(s)) ** 2 + (m2 * mpmath.cos(s)) ** 2  # noqa: E731
        phi = lambda s: mpmath.sin(s) * mpmath.cos(s) / mpmath.sqrt(P(s))  # noqa: E731
        F = lambda s: 2 * m1 * m2 / P(s) ** 1.5  # noqa: E731
        ends = [0, mpmath.pi / 2]
        l2sq = 2 * mpmath.pi * mpmath.quad(lambda s: 2 * F(s) ** 2 * phi(s), ends)
        return {
            "omega_L2_sq": float(l2sq),
            "chern_number": float(mpmath.quad(lambda s: F(s) * phi(s), ends)),
            "gauss_bonnet": float(mpmath.quad(lambda s: -mpmath.diff(phi, s, 2), ends)),
        }


@pytest.mark.parametrize("m1,m2", PAIRS)
def test_norms_and_gauss_bonnet_match_mpmath(m1, m2):
    ref = _references(m1, m2)
    # guards the references themselves: c1 = 1/(m1 m2) and chi = 1/m1 + 1/m2
    assert ref["chern_number"] == pytest.approx(1.0 / (m1 * m2), rel=1e-15)
    assert ref["gauss_bonnet"] == pytest.approx(1.0 / m1 + 1.0 / m2, rel=1e-15)
    metric = eq.wps_metric(m1, m2)
    norms = eq.omega_norms(metric)
    assert norms.omega_L2_sq == pytest.approx(ref["omega_L2_sq"], rel=REL)
    assert norms.chern_number == pytest.approx(ref["chern_number"], rel=REL)
    assert eq.gauss_bonnet_check(metric.base) == pytest.approx(ref["gauss_bonnet"], rel=REL)
