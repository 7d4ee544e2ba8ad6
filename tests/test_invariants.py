"""Chern number and Euler characteristic: three routes, mutual agreement."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe.errors import NotCoprime


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "m1,m2,expected",
    [(1, 1, Fraction(1)), (2, 3, Fraction(1, 6)), (7, 11, Fraction(1, 77))],
)
def test_c1_closed(m1, m2, expected):
    assert eq.c1_closed(m1, m2) == expected


@pytest.mark.parametrize(
    "m1,m2,expected",
    [(1, 1, Fraction(2)), (2, 3, Fraction(5, 6)), (1, 2, Fraction(3, 2))],
)
def test_chi_closed(m1, m2, expected):
    assert eq.chi_closed(m1, m2) == expected


def test_closed_forms_reject_noncoprime():
    with pytest.raises(NotCoprime):
        eq.c1_closed(2, 4)
    with pytest.raises(NotCoprime):
        eq.chi_closed(6, 3)


# ---------------------------------------------------------------------------
# quadrature routes
# ---------------------------------------------------------------------------

def test_c1_quadrature_unit_weights_constant_integrand():
    res = eq.c1_quadrature(1, 1)
    assert res.value == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("m1,m2", [(2, 3), (3, 5)])
def test_c1_quadrature_paper_pairs(m1, m2):
    res = eq.c1_quadrature(m1, m2)
    assert res.value == pytest.approx(1.0 / (m1 * m2), abs=1e-10)


@pytest.mark.parametrize("m1,m2", [(1, 1), (3, 5), (1, 2)])
def test_chi_quadrature(m1, m2):
    res = eq.chi_quadrature(m1, m2)
    assert res.value == pytest.approx(1.0 / m1 + 1.0 / m2, abs=1e-6)


@pytest.mark.parametrize("m1,m2", [(1, 1), (2, 3)])
def test_chi_boundary(m1, m2):
    assert eq.chi_boundary(m1, m2) == pytest.approx(1.0 / m1 + 1.0 / m2, abs=1e-8)


def test_chi_boundary_on_all_coprime_pairs_to_fifty():
    # each pole slope and their difference round once, so the exact chi is
    # within the reported error estimate 2 eps chi, lopsided pairs included
    eps = np.finfo(float).eps
    for m1 in range(1, 51):
        for m2 in range(1, 51):
            if math.gcd(m1, m2) == 1:
                chi = eq.chi_boundary(m1, m2)
                exact = Fraction(1, m1) + Fraction(1, m2)
                assert abs(Fraction(chi) - exact) <= 2.0 * eps * chi, (m1, m2)


def test_chi_boundary_swap_symmetric():
    assert eq.chi_boundary(5, 3) == pytest.approx(8.0 / 15.0, abs=1e-8)
    assert eq.chi_boundary(5, 3) == pytest.approx(eq.chi_boundary(3, 5), abs=1e-10)


# ---------------------------------------------------------------------------
# curvature of the base in the chart variable r = sin^2 s
# ---------------------------------------------------------------------------

def test_kappa_unit_weights_is_constant_four():
    base = eq.wps_profile(1, 1)
    for r in np.linspace(0.1, 0.9, 9):
        K = eq.gauss_curvature(base, math.asin(math.sqrt(r)))
        assert float(K) == pytest.approx(4.0, abs=1e-8)


def test_kappa_integral_recovers_chi():
    # (1, 2): the curvature integral (1/2pi) int K dA gives chi = 3/2
    res = eq.chi_quadrature(1, 2)
    assert res.value == pytest.approx(1.5, abs=1e-6)


# ---------------------------------------------------------------------------
# cross-route properties
# ---------------------------------------------------------------------------

def _coprime_pairs_up_to(m_max):
    for m1 in range(1, m_max + 1):
        for m2 in range(m1, m_max + 1):
            if math.gcd(m1, m2) == 1:
                yield m1, m2


def test_all_routes_agree_up_to_twenty():
    for m1, m2 in _coprime_pairs_up_to(20):
        closed_c1 = 1.0 / (m1 * m2)
        closed_chi = 1.0 / m1 + 1.0 / m2
        assert eq.c1_quadrature(m1, m2).value == pytest.approx(closed_c1, abs=1e-8)
        assert eq.chi_quadrature(m1, m2).value == pytest.approx(closed_chi, abs=1e-12)
        assert eq.chi_boundary(m1, m2) == pytest.approx(closed_chi, abs=1e-8)


def test_quadrature_routes_match_the_closed_forms_to_rounding():
    # the nested rule settles both base integrals within two doublings on
    # every ordered coprime pair up to 20, at rounding level
    for m1, m2 in _coprime_pairs_up_to(20):
        for a, b in ((m1, m2), (m2, m1)):
            c1, chi = eq.c1_quadrature(a, b), eq.chi_quadrature(a, b)
            assert c1.value == pytest.approx(1.0 / (a * b), rel=1e-12, abs=0.0), (a, b)
            assert chi.value == pytest.approx(1.0 / a + 1.0 / b, rel=0.0, abs=1e-12), (a, b)
            assert max(c1.refinements_used, chi.refinements_used) <= 2, (a, b)


def test_swap_invariance():
    for m1, m2 in [(2, 3), (3, 7)]:
        assert eq.c1_quadrature(m1, m2).value == pytest.approx(
            eq.c1_quadrature(m2, m1).value, abs=1e-10
        )
        assert eq.chi_quadrature(m1, m2).value == pytest.approx(
            eq.chi_quadrature(m2, m1).value, abs=1e-6
        )


def test_invariant_report_deltas():
    rep = eq.build_invariant_report(2, 3)
    d = rep.deltas()
    assert d["c1_quadrature_vs_closed"] <= 1e-8
    assert d["chi_quadrature_vs_closed"] <= 1e-6
    assert d["chi_boundary_vs_closed"] <= 1e-8
    assert rep.c1_closed == Fraction(1, 6)
