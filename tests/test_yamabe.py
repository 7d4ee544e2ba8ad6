"""Functional values, fiber-length optimum, and the topological bounds."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe.errors import (
    InvalidCase,
    NonpositiveChi,
    NonPositiveFactor,
    NotCoprime,
    UnboundedInEll,
)

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


def test_sigma_s2_is_eight_pi():
    assert eq.sigma_sn(2) == pytest.approx(SIGMA_S2, rel=1e-15)


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


def test_optimal_ell_weighted_pair_below_bound():
    metric = eq.wps_metric(2, 3)
    _, j_max = eq.optimal_ell(metric.base, metric.F)
    assert j_max <= WEIGHTED_BOUND[(2, 3)] + 1e-9


def test_optimal_ell_flat_bundle_raises(half_sphere):
    with pytest.raises(UnboundedInEll):
        eq.optimal_ell(half_sphere, 0.0)


def test_optimal_ell_nonpositive_chi(torus_metric):
    with pytest.raises(NonpositiveChi):
        eq.optimal_ell(torus_metric.base, 1.0)


# ---------------------------------------------------------------------------
# weighted curvature density
# ---------------------------------------------------------------------------

def test_wps_density_unit_weights_is_hopf():
    t = np.linspace(0.05, 0.95, 11)
    assert np.max(np.abs(eq.wps_curvature_density(1, 1, t) - 2.0)) <= 1e-14


@pytest.mark.parametrize("m1,m2", [(2, 3), (3, 5)])
def test_wps_density_chern_number(m1, m2):
    metric = eq.wps_metric(m1, m2)
    norms = eq.omega_norms(metric)
    assert norms.chern_number == pytest.approx(1.0 / (m1 * m2), abs=1e-6)


def test_wps_density_positive():
    t = np.linspace(0.01, 0.99, 23)
    for m1, m2 in COPRIME_PAIRS:
        assert np.all(eq.wps_curvature_density(m1, m2, t) > 0.0)


def test_wps_density_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        eq.wps_curvature_density(2, 6, 0.5)


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
