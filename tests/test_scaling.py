"""Fiber-length ladders: interior maximum, blow-up, collapse, exponent fits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqyamabe as eq
from eqyamabe.errors import DegenerateData, InvalidCase, PositiveChi
from eqyamabe.scaling import (
    REGIME_DIVERGES,
    REGIME_INTERIOR_MAX,
    REGIME_SUP_ZERO,
    ScanTable,
)

from conftest import BLOWUP_COEF, SIGMA_S3, TORUS_J_ELL01, TORUS_LOWER_01


# ---------------------------------------------------------------------------
# ell_scan
# ---------------------------------------------------------------------------

def test_hopf_scan_peaks_at_one(hopf):
    ells = np.geomspace(0.25, 2.0, 13)
    table = eq.ell_scan(hopf.base, hopf.F, ells)
    assert table.regime == REGIME_INTERIOR_MAX
    peak = int(np.argmax(table.J))
    assert table.ell[peak] == pytest.approx(1.0, rel=1e-12)
    assert table.flags[peak] == "max"
    assert table.J[peak] == pytest.approx(SIGMA_S3, rel=1e-9)


def test_blowup_scan_flat_bundle(half_sphere):
    table = eq.ell_scan(half_sphere, 0.0, [1.0, 10.0, 100.0])
    assert table.regime == REGIME_DIVERGES
    assert np.all(np.diff(table.J) > 0.0)
    assert table.J[0] == pytest.approx(BLOWUP_COEF, rel=1e-9)
    assert table.J[2] == pytest.approx(BLOWUP_COEF * 100.0 ** (2.0 / 3.0), rel=1e-9)


def test_collapse_scan_torus(torus_metric):
    table = eq.ell_scan(torus_metric.base, torus_metric.F, [0.5, 0.1, 0.02])
    assert table.regime == REGIME_SUP_ZERO
    assert np.all(table.J < 0.0)
    assert table.J[np.where(table.ell == 0.1)[0][0]] == pytest.approx(
        TORUS_J_ELL01, rel=1e-9
    )
    assert table.lower is not None
    assert np.all(table.lower[~np.isnan(table.lower)] <= 0.0)
    # values sorted ascending in ell and J decaying to zero from below
    assert np.all(np.diff(np.abs(table.J)) > 0.0)


def test_scan_requires_positive_ells(hopf):
    with pytest.raises(ValueError):
        eq.ell_scan(hopf.base, hopf.F, [0.5, -1.0])
    with pytest.raises(ValueError):
        eq.ell_scan(hopf.base, hopf.F, [])


# ---------------------------------------------------------------------------
# collapse_bounds
# ---------------------------------------------------------------------------

def test_collapse_bounds_frozen_values(torus_metric):
    upper, lower = eq.collapse_bounds(torus_metric.base, torus_metric.F, 0.1)
    assert upper == pytest.approx(TORUS_J_ELL01, rel=1e-9)
    assert lower == pytest.approx(TORUS_LOWER_01, rel=1e-9)
    assert lower <= upper


def test_collapse_bounds_exponents(torus_metric):
    base, F = torus_metric.base, torus_metric.F
    ells = np.geomspace(0.01, 1.0, 7)
    uppers, lowers = zip(*(eq.collapse_bounds(base, F, l) for l in ells))
    up_fit = np.polyfit(np.log(ells), np.log(np.abs(uppers)), 1)[0]
    lo_fit = np.polyfit(np.log(ells), np.log(np.abs(lowers)), 1)[0]
    assert up_fit == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert lo_fit == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_collapse_bounds_zero_density():
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    upper, lower = eq.collapse_bounds(base, 0.0, 0.5)
    assert upper == 0.0
    assert lower == 0.0


# collapse_bounds(FlatTorusBase(1, 1), F, ell) and the lower bounds of
# ell_scan on the ladder (1e-3, 0.05, 1, 2), by float.hex: each scan row is
# collapse_bounds's lower bound at its fiber length, and ell = 2 > 1 has none
TORUS_COLLAPSE_HEX = {
    "one": (
        {1.0: ("-0x1.730379caabb36p+2", "-0x1.730379caabb35p+2"),
         0.05: ("-0x1.01d05fd36efc4p-9", "-0x1.92d595ba5d69ep-1"),
         1e-3: ("-0x1.f1f74b5eddcb9p-25", "-0x1.dae5ba9d04bccp-5")},
        ("-0x1.dae5ba9d04bccp-5", "-0x1.92d595ba5d69ep-1", "-0x1.730379caabb35p+2", "nan"),
    ),
    "cos": (
        {1.0: ("-0x1.730379caabb35p+1", "-0x1.a3100f463a2a8p+1"),
         0.05: ("-0x1.01d05fd36efc4p-10", "-0x1.c701274ec9f0fp-2"),
         1e-3: ("-0x1.f1f74b5eddcb7p-26", "-0x1.0c333cf9bed3ap-5")},
        ("-0x1.0c333cf9bed3ap-5", "-0x1.c701274ec9f0fp-2", "-0x1.a3100f463a2a8p+1", "nan"),
    ),
}


@pytest.mark.parametrize("name", sorted(TORUS_COLLAPSE_HEX))
def test_torus_collapse_bounds_keep_their_bits(name):
    # F = 1, and cos(2 pi s), whose two roots split the norms' integral
    k = 2.0 * math.pi
    F = 1.0 if name == "one" else eq.RadialField(
        lambda s: np.cos(k * np.asarray(s)),
        lambda s: -k * np.sin(k * np.asarray(s)),
        lambda s: -k * k * np.cos(k * np.asarray(s)),
    )
    pairs, scan = TORUS_COLLAPSE_HEX[name]
    for ell, expected in pairs.items():
        got = eq.collapse_bounds(eq.FlatTorusBase(1.0, 1.0), F, ell)
        assert tuple(v.hex() for v in got) == expected, ell
    table = eq.ell_scan(eq.FlatTorusBase(1.0, 1.0), F, [1e-3, 0.05, 1.0, 2.0])
    assert tuple(float(v).hex() for v in table.lower) == scan


@pytest.mark.parametrize("name", ["one", "cos", "sphere"])
def test_scan_rows_equal_the_closed_forms_to_the_bit(name):
    # each row is computed at its own fiber length as a number, so its J and
    # lower bound are functional_J_closed's and collapse_bounds's on every CPU
    k = 2.0 * math.pi
    base = eq.make_round_sphere(1.0) if name == "sphere" else eq.FlatTorusBase(1.0, 1.0)
    F = 1.0 if name != "cos" else eq.RadialField(
        lambda s: np.cos(k * np.asarray(s)),
        lambda s: -k * np.sin(k * np.asarray(s)),
        lambda s: -k * k * np.cos(k * np.asarray(s)),
    )
    ladder = [1e-3, 0.05, 0.3, 1.0]
    table = eq.ell_scan(base, F, ladder)
    assert [v.hex() for v in table.J.tolist()] == [
        eq.functional_J_closed(base, F, ell).hex() for ell in ladder
    ]
    if name == "sphere":
        assert table.lower is None
    else:
        assert [v.hex() for v in table.lower.tolist()] == [
            eq.collapse_bounds(base, F, ell)[1].hex() for ell in ladder
        ]


@pytest.mark.parametrize("ell", [0.0, -0.5])
def test_collapse_bounds_need_a_positive_fiber_length(torus_metric, ell):
    with pytest.raises(ValueError, match="fiber length must be positive"):
        eq.collapse_bounds(torus_metric.base, torus_metric.F, ell)


def test_collapse_bounds_regime_errors(half_sphere, torus_metric):
    with pytest.raises(PositiveChi):
        eq.collapse_bounds(half_sphere, 2.0, 0.1)
    with pytest.raises(InvalidCase):
        eq.collapse_bounds(torus_metric.base, 1.0, 2.0)


# ---------------------------------------------------------------------------
# fit_exponent
# ---------------------------------------------------------------------------

def test_fit_exponent_collapse_table(torus_metric):
    table = eq.ell_scan(torus_metric.base, torus_metric.F, np.geomspace(0.02, 0.5, 6))
    exponent, coefficient = eq.fit_exponent(table)
    assert exponent == pytest.approx(8.0 / 3.0, abs=0.05)
    assert coefficient == pytest.approx(2.0 ** (1.0 / 3.0) * math.pi ** (4.0 / 3.0), rel=1e-6)


def test_fit_exponent_blowup_table(half_sphere):
    table = eq.ell_scan(half_sphere, 0.0, np.geomspace(1.0, 1e3, 10))
    exponent, _ = eq.fit_exponent(table)
    assert exponent == pytest.approx(2.0 / 3.0, abs=0.05)


def test_fit_exponent_constant_table():
    table = ScanTable(
        ell=np.geomspace(0.1, 10.0, 8),
        J=np.full(8, 3.7),
        lower=None,
        flags=[""] * 8,
        regime=REGIME_INTERIOR_MAX,
    )
    exponent, coefficient = eq.fit_exponent(table)
    assert exponent == pytest.approx(0.0, abs=1e-12)
    assert coefficient == pytest.approx(3.7, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    exponent=st.floats(-4.0, 4.0),
    coefficient=st.floats(0.01, 100.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_fit_exponent_recovers_power_laws(exponent, coefficient, sign):
    ells = np.geomspace(0.05, 20.0, 9)
    table = ScanTable(
        ell=ells,
        J=sign * coefficient * ells**exponent,
        lower=None,
        flags=[""] * 9,
        regime=REGIME_INTERIOR_MAX,
    )
    fitted_exp, fitted_coef = eq.fit_exponent(table)
    assert fitted_exp == pytest.approx(exponent, abs=1e-9)
    assert fitted_coef == pytest.approx(coefficient, rel=1e-9)


def test_fit_exponent_degenerate():
    table = ScanTable(
        ell=np.array([1.0, 2.0, 3.0]),
        J=np.array([1.0, 2.0, 3.0]),
        lower=None,
        flags=[""] * 3,
        regime=REGIME_INTERIOR_MAX,
    )
    with pytest.raises(DegenerateData):
        eq.fit_exponent(table)


def test_fit_exponent_of_a_ladder_without_spread():
    # five rows, all of nonzero J, at one fiber length
    table = ScanTable(
        ell=np.full(5, 0.5),
        J=np.arange(1.0, 6.0),
        lower=None,
        flags=[""] * 5,
        regime=REGIME_INTERIOR_MAX,
    )
    with pytest.raises(DegenerateData, match="no spread"):
        eq.fit_exponent(table)
    # ell_scan swallows it: a table of four equal fiber lengths has no exponent
    scan = eq.ell_scan(eq.make_round_sphere(0.5), 2.0, [0.5] * 4)
    assert scan.J.size == 4 and scan.exponent is None and scan.coefficient is None


def test_scan_rows_structure(torus_metric):
    table = eq.ell_scan(torus_metric.base, torus_metric.F, [0.5, 0.1])
    cols = table.columns()
    assert list(cols) == ["ell", "J", "flag", "lower_bound"]
    assert all(len(col) == 2 for col in cols.values())
    ell0, J0, flag0, lower0 = (col[0] for col in cols.values())
    assert ell0 == 0.1  # sorted ascending
    assert lower0 is not None and lower0 < 0.0
    assert flag0 == "collapse"
