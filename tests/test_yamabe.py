"""Functional values, fiber-length optimum, and the topological bounds."""

from __future__ import annotations

import math
import random
import re
import time
import warnings

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import numerics
from eqyamabe.errors import (
    InconsistentRoutes,
    InvalidCase,
    NonFinite,
    NonpositiveChi,
    NonPositiveFactor,
    NotCoprime,
    NumericalError,
    UnboundedInEll,
)
from eqyamabe.yamabe import _closed_form_optimum, closed_form_J

from conftest import (
    BERGER_HALF_J,
    COPRIME_PAIRS,
    HEBEY_VAUGON_3_2,
    SIGMA_S2,
    SIGMA_S3,
    TORUS_J_ELL01,
    TORUS_J_ELL1,
    WEIGHTED_BOUND,
    fourier_field,
)


def berger(ell):
    return eq.InvariantMetric(
        base=eq.make_round_sphere(0.5),
        ell=eq.RadialField.const(ell),
        F=eq.RadialField.const(2.0),
    )


# ---------------------------------------------------------------------------
# sigma constants
# ---------------------------------------------------------------------------

def test_sigma_s3_closed_form():
    assert eq.SIGMA_S3 == pytest.approx(SIGMA_S3, rel=1e-15)
    assert eq.SIGMA_S3 == pytest.approx(3.0 * 2.0 ** (5.0 / 3.0) * math.pi ** (4.0 / 3.0), rel=1e-15)


def test_sphere_volumes():
    assert eq.sphere_volume(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert eq.sphere_volume(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert 0.0 < eq.sphere_volume(342) < 1e-200  # Gamma(171.5) is still a double
    with pytest.raises(ValueError, match="n must be >= 1"):
        eq.sphere_volume(0)
    # Gamma((n+1)/2) is past the largest double, the volume is not
    assert 0.0 < eq.sphere_volume(343) < eq.sphere_volume(342)
    assert eq.sphere_volume(400) == pytest.approx(1.7118955476142872e-274, rel=1e-12)
    for n in (1000, 10**400):  # the volume itself underflows to 0
        with pytest.raises(NumericalError, match=r"vol\(S\^.*underflowed to 0: out of scale"):
            eq.sphere_volume(n)


def _mp_sigma(n):
    import mpmath

    with mpmath.workdps(40):
        h = mpmath.mpf(n + 1) / 2
        return float(n * (n - 1) * (2 * mpmath.pi**h / mpmath.gamma(h)) ** (mpmath.mpf(2) / n))


@pytest.mark.parametrize("n, reference", [
    (343, 5853.0025055663547), (400, 6826.5342472093261), (1000, 17074.222669202922)])
def test_sigma_sn_past_the_gamma_overflow(n, reference):
    assert _mp_sigma(n) == pytest.approx(reference, rel=1e-15)
    assert eq.sigma_sn(n) == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert eq.hebey_vaugon_bound(n, 1) == eq.sigma_sn(n)


def test_sigma_sn_past_the_doubles_raises():
    # sigma(S^n) is about 2 pi e n: past DBL_MAX from n ~ 1e307 on
    for n in (10**308, 10**400):
        with pytest.raises(NumericalError, match="leaves the doubles: out of scale"):
            eq.sigma_sn(n)
        with pytest.raises(NumericalError, match="leaves the doubles: out of scale"):
            eq.hebey_vaugon_bound(n, 1)


def test_sphere_volume_and_sigma_keep_the_gamma_expression_up_to_342():
    # the bits of 2 pi^{(n+1)/2} / Gamma((n+1)/2) and n (n-1) vol^{2/n} in
    # Python floats, where Gamma is a double
    for n in range(1, 343):
        vol = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
        assert eq.sphere_volume(n).hex() == vol.hex()
        if n >= 2:
            assert eq.sigma_sn(n).hex() == (n * (n - 1) * vol ** (2.0 / n)).hex()
    assert eq.SIGMA_S3.hex() == "0x1.5e95fb08ca59bp+5"


def test_sigma_s2_is_eight_pi():
    assert eq.sigma_sn(2) == pytest.approx(SIGMA_S2, rel=1e-15)
    with pytest.raises(ValueError, match="n must be >= 2"):
        eq.sigma_sn(1)


# ---------------------------------------------------------------------------
# functional_J and the closed form
# ---------------------------------------------------------------------------

def test_hopf_functional_value(hopf):
    rep = eq.functional_J(hopf)
    assert rep.J == pytest.approx(SIGMA_S3, rel=1e-8)
    assert rep.J == pytest.approx(rep.numerator / rep.denominator, rel=1e-12)
    assert rep.route == "base_integral"


def test_berger_half_functional(hopf):
    metric = berger(0.5)
    rep = eq.functional_J(metric)
    assert rep.J == pytest.approx(BERGER_HALF_J, rel=1e-10)
    closed = eq.functional_J_closed(metric.base, 2.0, 0.5)
    assert closed == pytest.approx(BERGER_HALF_J, rel=1e-10)
    assert abs(rep.J - closed) <= 1e-8 * abs(closed)


def test_torus_functional(torus_metric):
    rep = eq.functional_J(torus_metric)
    assert rep.J == pytest.approx(TORUS_J_ELL1, rel=1e-10)


def test_torus_closed_form_small_ell(torus_metric):
    val = eq.functional_J_closed(torus_metric.base, 1.0, 0.1)
    assert val == pytest.approx(TORUS_J_ELL01, rel=1e-10)


def test_closed_form_needs_a_positive_fiber_length(hopf):
    for ell in (0.0, -1.0):
        with pytest.raises(ValueError, match="fiber length must be positive"):
            eq.functional_J_closed(hopf.base, 2.0, ell)


def test_hopf_closed_form_identity(hopf):
    # (pi/16)^(1/3) (32 pi - 8 pi) simplifies to the round-sphere constant
    assert eq.functional_J_closed(hopf.base, 2.0, 1.0) == pytest.approx(SIGMA_S3, rel=1e-10)


def test_closed_form_vanishes_as_ell_to_zero(hopf):
    # the ell^(2/3) term dominates: values stay positive and shrink to zero
    vals = [eq.functional_J_closed(hopf.base, 2.0, l) for l in (1e-3, 1e-6, 1e-9)]
    assert all(v > 0.0 for v in vals)
    assert vals[2] < vals[1] < vals[0] < 1.0


def test_functional_variable_ell_routes_agree(half_sphere):
    ell = fourier_field(half_sphere.length, [0.25, -0.1], offset=1.0)
    metric = eq.InvariantMetric(base=half_sphere, ell=ell, F=eq.RadialField.const(2.0))
    rep = eq.functional_J(metric)  # raises InconsistentRoutes on disagreement
    assert np.isfinite(rep.J)
    # an ell'' that is not its value's: only the direct route reads it
    wrong = eq.RadialField(ell.value, ell.d1, lambda s: ell.d2(s) + 1.0)
    with pytest.raises(InconsistentRoutes, match="routes disagree"):
        eq.functional_J(eq.InvariantMetric(base=half_sphere, ell=wrong, F=eq.RadialField.const(2.0)))


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_functional_scale_invariance(hopf, c):
    ell = fourier_field(hopf.base.length, [0.2], offset=1.1)
    metric = eq.InvariantMetric(base=hopf.base, ell=ell, F=hopf.F)
    J0 = eq.functional_J(metric).J
    J1 = eq.functional_J(eq.scale_metric(metric, c)).J
    assert J1 == pytest.approx(J0, abs=1e-9 * max(1.0, abs(J0)))


# ---------------------------------------------------------------------------
# conformal functional
# ---------------------------------------------------------------------------

def test_conformal_at_one_matches_functional(hopf):
    rep = eq.functional_J(hopf)
    val = eq.conformal_functional(hopf, 1.0)
    assert val == pytest.approx(rep.J, abs=1e-10 * abs(rep.J))


def test_conformal_scale_invariance(hopf):
    assert eq.conformal_functional(hopf, 7.0) == pytest.approx(
        eq.conformal_functional(hopf, 1.0), rel=1e-12
    )


def test_conformal_respects_round_sphere_infimum(hopf):
    L = hopf.base.length
    u = fourier_field(L, [0.1], offset=1.0)  # 1 + 0.1 cos(pi s / L)
    val = eq.conformal_functional(hopf, u)
    assert val >= SIGMA_S3 - 1e-6


def test_conformal_rejects_nonpositive(hopf):
    with pytest.raises(NonPositiveFactor):
        eq.conformal_functional(hopf, -1.0)


def test_conformal_factor_out_of_scale_raises_without_a_warning():
    # u^6 = 1e360 overflows in the integrand: the quadrature's NonFinite,
    # where numpy's "overflow encountered in power" was raised first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite):
            eq.conformal_functional(eq.hopf_metric(), 1e60)


def test_a_fiber_length_flat_to_third_order_at_the_poles_stays_quiet():
    # ell = 1 + 0.1 sin^3(pi s / L) has zero slope and second derivative at
    # both poles but not a zero third: its cosine series has a k^-4 tail and
    # still chops, so the smoothness checks must accept it, quietly and fast
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = eq.wps_profile(2, 3)
        L = base.length
        ell = lambda s: 1.0 + 0.1 * np.sin(math.pi * np.asarray(s) / L) ** 3
        J = eq.functional_J(eq.InvariantMetric(base, ell, eq.wps_density_field(2, 3))).J
    assert time.perf_counter() - started < 1.0
    assert J == pytest.approx(32.41304108138776, rel=1e-13)


def test_functionals_name_a_volume_that_underflows():
    # radius 1e-150 and ell = 1e-100: int 2 pi ell dA = 7.9e-399 is 0 in
    # doubles, which was a ZeroDivisionError in both functionals
    metric = eq.InvariantMetric(eq.make_round_sphere(1e-150), 1e-100, 1.0)
    with pytest.raises(NumericalError, match="volume underflowed to 0: out of scale"):
        eq.functional_J(metric)
    with pytest.raises(NumericalError, match="volume int 2 pi ell u\\^6 dv underflowed to 0"):
        eq.conformal_functional(metric, 1.0)


@pytest.mark.parametrize("a,k", [(0.01, 2), (0.3, 4), (0.5, 8)])
def test_plain_callable_ell_matches_exact_derivatives(a, k):
    # a bare callable is read as its chopped cosine series, so ell'' is exact
    # to rounding (a central difference put noise of 1e-4 into it)
    base = eq.make_round_sphere(0.5)
    w = k / 0.5
    exact = eq.RadialField(
        value=lambda s: 1.0 + a * np.cos(w * np.asarray(s)),
        d1=lambda s: -a * w * np.sin(w * np.asarray(s)),
        d2=lambda s: -a * w * w * np.cos(w * np.asarray(s)),
    )
    plain = eq.InvariantMetric(base=base, ell=exact.value, F=2.0)
    ref = eq.InvariantMetric(base=base, ell=exact, F=2.0)
    assert eq.functional_J(plain).J == pytest.approx(eq.functional_J(ref).J, rel=1e-13)
    assert eq.conformal_functional(plain, 1.0) == pytest.approx(
        eq.conformal_functional(ref, 1.0), rel=1e-13
    )


@pytest.mark.parametrize("weights", [(2, 3), (1, 9)])
def test_plain_callable_factor_matches_exact_derivatives(weights):
    metric = eq.wps_metric(*weights)
    w = 2.0 * math.pi / metric.base.length
    u = lambda s: np.exp(0.3 * np.cos(w * np.asarray(s)))  # noqa: E731
    exact = eq.RadialField(
        value=u,
        d1=lambda s: -0.3 * w * np.sin(w * np.asarray(s)) * u(s),
        d2=lambda s: ((0.3 * w * np.sin(w * np.asarray(s))) ** 2
                      - 0.3 * w * w * np.cos(w * np.asarray(s))) * u(s),
    )
    assert eq.conformal_functional(metric, u) == pytest.approx(
        eq.conformal_functional(metric, exact), rel=1e-14
    )


# ---------------------------------------------------------------------------
# optimal fiber length
# ---------------------------------------------------------------------------

def test_optimal_ell_hopf(hopf):
    ell_star, j_max = eq.optimal_ell(hopf.base, 2.0)
    assert ell_star == pytest.approx(1.0, abs=1e-10)
    assert j_max == pytest.approx(SIGMA_S3, rel=1e-10)


def test_closed_form_optimum_is_the_maximum_of_the_closed_form():
    # a golden-section search of closed_form_J finds the same ell* and J_max
    # over six decades of each of vol, chi and |Omega|_2^2
    decades = np.logspace(-3.0, 3.0, 7)
    for vol in decades:
        for chi in decades:
            for omega_L2_sq in decades:
                ell_star, j_max = _closed_form_optimum(vol, chi, omega_L2_sq)
                ell_num, neg_j = numerics.minimize_scalar(
                    lambda ell: -closed_form_J(vol, chi, omega_L2_sq, ell),
                    bracket=[ell_star / 8.0, ell_star * 8.0],
                    tol=1e-9 * ell_star,
                )
                assert abs(ell_num - ell_star) <= 1e-6 * ell_star, (vol, chi, omega_L2_sq)
                assert abs(-neg_j - j_max) <= 1e-6 * j_max, (vol, chi, omega_L2_sq)


def test_optimal_ell_weighted_pair_below_bound():
    metric = eq.wps_metric(2, 3)
    _, j_max = eq.optimal_ell(metric.base, metric.F)
    assert j_max <= WEIGHTED_BOUND[(2, 3)] + 1e-9


def test_optimal_ell_flat_bundle_raises(half_sphere):
    with pytest.raises(UnboundedInEll):
        eq.optimal_ell(half_sphere, 0.0)


@pytest.mark.parametrize("F, flat", [(5e-14, True), (5e-13, False)])
def test_curvature_form_zero_test_is_scale_free(F, flat):
    # |Omega|_1 = 8.9e-13 and 8.9e-12 on the unit sphere, and in any units:
    # the scan's regime, optimal_ell and Cauchy-Schwarz give one verdict at
    # every scale, where |Omega|_2^2 goes as c^-2
    metric = eq.InvariantMetric(eq.make_round_sphere(1.0), 1.0, F)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fractional Chern data
        for c in (1e-7, 1.0, 1e7):
            scaled = eq.scale_metric(metric, c)
            table = eq.ell_scan(scaled.base, scaled.F, [0.5, 1.0, 2.0])
            assert (table.regime == "DivergesAsEllGrows") is flat, c
            for bound in (eq.optimal_ell, eq.bound_cauchy_schwarz):
                if flat:
                    with pytest.raises(UnboundedInEll):
                        bound(scaled.base, scaled.F)
                else:
                    bound(scaled.base, scaled.F)


def test_underflowed_curvature_norm_is_out_of_scale_not_flat():
    # F^2 = 1e-340 is 0 in doubles: on a sphere of radius 1e80 |Omega|_2^2
    # reads 0 while |Omega|_1 = 1.8e-9, as on its unit-sphere twin with
    # F = 1e-10.  The form is not zero: the scan and Cauchy-Schwarz read it
    # as the twin does, and ell*, which divides by |Omega|_2, is out of scale
    base, twin = eq.make_round_sphere(1e80), eq.make_round_sphere(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fractional Chern data
        norms = eq.omega_norms(eq.InvariantMetric(base, 1.0, 1e-170))
        assert norms.omega_L2_sq == 0.0 < norms.omega_L1
        for b, F in ((base, 1e-170), (twin, 1e-10)):
            assert eq.ell_scan(b, F, [0.5, 1.0]).regime == "MaxInterior"
        cs = eq.bound_cauchy_schwarz(base, 1e-170)
        assert cs == pytest.approx(eq.bound_cauchy_schwarz(twin, 1e-10), rel=1e-9)
        with pytest.raises(NumericalError, match="out of scale"):
            eq.optimal_ell(base, 1e-170)


def test_optimal_ell_nonpositive_chi(torus_metric):
    with pytest.raises(NonpositiveChi):
        eq.optimal_ell(torus_metric.base, 1.0)


def test_cauchy_schwarz_nonpositive_chi(torus_metric):
    with pytest.raises(NonpositiveChi, match="requires chi > 0"):
        eq.bound_cauchy_schwarz(torus_metric.base, 1.0)


# ---------------------------------------------------------------------------
# weighted curvature density
# ---------------------------------------------------------------------------

def test_wps_density_unit_weights_is_hopf():
    t = np.linspace(0.05, 0.95, 11)
    F = eq.wps_density_field(1, 1).value(np.arcsin(np.sqrt(t)))
    assert np.max(np.abs(F - 2.0)) <= 1e-14


@pytest.mark.parametrize("m1,m2", [(2, 3), (3, 5)])
def test_wps_density_chern_number(m1, m2):
    metric = eq.wps_metric(m1, m2)
    norms = eq.omega_norms(metric)
    assert norms.chern_number == pytest.approx(1.0 / (m1 * m2), abs=1e-6)


def test_wps_density_positive():
    s = np.arcsin(np.sqrt(np.linspace(0.01, 0.99, 23)))
    for m1, m2 in COPRIME_PAIRS:
        assert np.all(eq.wps_density_field(m1, m2).value(s) > 0.0)


def test_wps_density_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        eq.wps_metric(2, 6)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_cauchy_schwarz_equality_for_constant_density(hopf):
    _, j_max = eq.optimal_ell(hopf.base, 2.0)
    cs = eq.bound_cauchy_schwarz(hopf.base, 2.0)
    assert cs == pytest.approx(j_max, abs=1e-9 * j_max)


def test_cauchy_schwarz_strict_for_variable_density(hopf):
    # chern number stays 1 (the cosine mode integrates to zero against dv)
    F = fourier_field(hopf.base.length, [0.5], offset=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, j_max = eq.optimal_ell(hopf.base, F)
        cs = eq.bound_cauchy_schwarz(hopf.base, F)
    assert cs > j_max + 1e-6


@pytest.mark.parametrize("case", ["wps23", "fourier_on_hopf"])
def test_bounds_from_given_norms_are_bit_identical(case, hopf):
    # omega_norms does not read ell, so one report serves both bounds
    if case == "wps23":
        metric = eq.wps_metric(2, 3)
        base, F = metric.base, metric.F
    else:
        base = hopf.base
        F = fourier_field(base.length, [0.5, -0.2], offset=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        norms = eq.omega_norms(eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F))
        assert eq.optimal_ell(base, F, norms=norms) == eq.optimal_ell(base, F)
        assert eq.bound_cauchy_schwarz(base, F, norms=norms) == eq.bound_cauchy_schwarz(base, F)


def test_cauchy_schwarz_dominates_weighted_bound():
    metric = eq.wps_metric(2, 3)
    cs = eq.bound_cauchy_schwarz(metric.base, metric.F)
    assert cs >= WEIGHTED_BOUND[(2, 3)] - 1e-9


def test_bound_theorem_main_values():
    assert eq.bound_theorem_main(2.0, 1.0) == pytest.approx(SIGMA_S3, rel=1e-12)
    assert eq.bound_theorem_main(1.5, 0.5) == pytest.approx(WEIGHTED_BOUND[(1, 2)], rel=1e-12)
    assert eq.bound_theorem_main(5.0 / 6.0, 1.0 / 6.0) == pytest.approx(
        WEIGHTED_BOUND[(2, 3)], rel=1e-12
    )


def test_bound_theorem_main_out_of_scale():
    # the power of a finite ratio, and the ratio itself, past DBL_MAX
    for chi, c1 in ((1e300, 1.0), (1e300, 1e-300)):
        with pytest.raises(NumericalError, match="topological bound at .* leaves the doubles"):
            eq.bound_theorem_main(chi, c1)
    # a positive bound of about 1e-427, which underflowed to 0
    with pytest.raises(NumericalError, match="topological bound at .* underflowed to 0"):
        eq.bound_theorem_main(1e-320, 1.0)
    assert eq.bound_theorem_main(1e-200, 1.0) > 0.0


def test_closed_form_J_is_judged_on_its_value():
    # ell^{8/3} is finite at 2e115, its product with |Omega|_2^2 = 25 is not;
    # at 4e115 the power itself passes DBL_MAX: one rule and one message
    for ell in (2e115, 4e115):
        with pytest.raises(NumericalError, match=re.escape(f"J at ell = {ell!r} leaves the doubles")):
            closed_form_J(1.0, 2.0, 25.0, ell)
    # a base whose area underflowed to 0 divides by it: out of scale, not ZeroDivisionError
    with pytest.raises(NumericalError, match="J at ell = 0.5 leaves the doubles"):
        closed_form_J(0.0, 2.0, 0.0, 0.5)
    with pytest.raises(NumericalError, match="J_max at vol = 0.0"):
        _closed_form_optimum(0.0, 2.0, 1.0)
    # J may be 0 itself, where the two terms cancel
    assert closed_form_J(1.0, 1.0, 16.0 * math.pi, 1.0) == 0.0


def test_closed_forms_keep_the_bits_of_python_floats_on_every_scale():
    # arguments past 1e+-100 are evaluated in numpy doubles with warnings
    # off: every value Python floats give is the same to the bit, and every
    # one they cannot give (OverflowError, ZeroDivisionError, inf, or a
    # positive bound at 0) raises NumericalError
    rng = random.Random(20240611)

    def python(formula, *args):
        try:
            return formula(*args)
        except (OverflowError, ZeroDivisionError):
            return math.inf

    J = lambda v, c, w, l: (math.pi**2 / (16.0 * v)) ** (1.0 / 3.0) * (  # noqa: E731
        16.0 * math.pi * c * l ** (2.0 / 3.0) - w * l ** (8.0 / 3.0))
    main = lambda c, c1: eq.SIGMA_S3 * (c / (2.0 * math.sqrt(abs(c1)))) ** (4.0 / 3.0)  # noqa: E731
    checked = 0
    for _ in range(3000):
        v, c, w, l, c1 = (10.0 ** rng.uniform(-320.0, 308.0) for _ in range(5))
        for ours, theirs, args, positive in ((closed_form_J, J, (v, 2.0, w, l), False),
                                            (eq.bound_theorem_main, main, (c, c1), True)):
            expected = python(theirs, *args)
            if math.isfinite(expected) and (expected != 0.0 or not positive):
                assert ours(*args).hex() == expected.hex(), args
                checked += 1
            else:
                with pytest.raises(NumericalError, match="out of scale"):
                    ours(*args)
    assert checked > 3000


def test_bound_theorem_main_invalid_cases():
    with pytest.raises(InvalidCase):
        eq.bound_theorem_main(-1.0, 1.0)
    with pytest.raises(InvalidCase):
        eq.bound_theorem_main(2.0, 0.0)


@pytest.mark.parametrize("m1,m2", COPRIME_PAIRS)
def test_weighted_hopf_matches_theorem_main(m1, m2):
    chi = 1.0 / m1 + 1.0 / m2
    c1 = 1.0 / (m1 * m2)
    assert eq.bound_weighted_hopf(m1, m2) == pytest.approx(
        eq.bound_theorem_main(chi, c1), rel=1e-12
    )
    assert eq.bound_weighted_hopf(m1, m2) == pytest.approx(WEIGHTED_BOUND[(m1, m2)], rel=1e-14)


def test_weighted_hopf_equal_weights_factor_one():
    # only the unit pair is coprime with m1 = m2; its factor is exactly 1
    assert eq.bound_weighted_hopf(1, 1) == eq.SIGMA_S3
    with pytest.raises(NotCoprime):
        eq.bound_weighted_hopf(2, 2)


def test_hebey_vaugon_values():
    assert eq.hebey_vaugon_bound(3, 1) == pytest.approx(SIGMA_S3, rel=1e-14)
    assert eq.hebey_vaugon_bound(3, 2) == pytest.approx(HEBEY_VAUGON_3_2, rel=1e-14)
    assert eq.hebey_vaugon_bound(3, math.inf) == math.inf


def test_hebey_vaugon_validation():
    with pytest.raises(ValueError):
        eq.hebey_vaugon_bound(2, 1)
    with pytest.raises(ValueError):
        eq.hebey_vaugon_bound(3, 0)


# ---------------------------------------------------------------------------
# ordering chain on random radial data (small sweep; the acceptance suite
# runs the full-size version)
# ---------------------------------------------------------------------------

def test_ordering_chain_randomized():
    rng = np.random.default_rng(20240611)
    slack = 1.0 + 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m1, m2 in [(1, 1), (1, 2), (2, 3)]:
            base = eq.wps_profile(m1, m2) if (m1, m2) != (1, 1) else eq.make_round_sphere(0.5)
            chi = eq.chi_orb(base)
            for _ in range(40):
                coeffs = rng.normal(scale=0.4, size=4) / np.arange(1, 5) ** 2
                offset = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
                F = fourier_field(base.length, coeffs, offset)
                ell = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
                norms = eq.omega_norms(
                    eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F)
                )
                J = eq.functional_J_closed(base, F, ell, norms=norms)
                _, j_max = eq.optimal_ell(base, F, norms=norms)
                cs = eq.bound_cauchy_schwarz(base, F, norms=norms)
                main = eq.bound_theorem_main(chi, norms.chern_number)
                assert J <= j_max * slack + 1e-12
                assert j_max <= cs * slack + 1e-12
                assert cs <= main * slack + 1e-12
