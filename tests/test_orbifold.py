"""Profiles, the weighted-quotient profile, curvature, area, Gauss-Bonnet."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import orbifold
from eqyamabe.errors import DomainError, NonFinite, NotCoprime
from eqyamabe.numerics import QuadratureConfig, _interpolant

from conftest import COPRIME_PAIRS, bump_sphere


# ---------------------------------------------------------------------------
# round spheres
# ---------------------------------------------------------------------------

def test_round_sphere_half_radius(half_sphere):
    assert eq.area(half_sphere) == pytest.approx(math.pi, rel=1e-12)
    assert eq.gauss_bonnet_check(half_sphere) == pytest.approx(2.0, abs=1e-8)
    for s in np.linspace(0.05, half_sphere.length - 0.05, 7):
        assert eq.gauss_curvature(half_sphere, s) == pytest.approx(4.0, abs=1e-10)


def test_round_sphere_unit():
    base = eq.make_round_sphere(1.0)
    assert eq.area(base) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert eq.gauss_bonnet_check(base) == pytest.approx(2.0, abs=1e-8)


def test_round_sphere_radius_two_curvature():
    base = eq.make_round_sphere(2.0)
    assert eq.gauss_curvature(base, 1.0) == pytest.approx(0.25, abs=1e-13)


def test_curvature_domain_error(half_sphere):
    with pytest.raises(DomainError):
        eq.gauss_curvature(half_sphere, 0.0)
    with pytest.raises(DomainError):
        eq.gauss_curvature(half_sphere, half_sphere.length)


# ---------------------------------------------------------------------------
# weighted quotient profile
# ---------------------------------------------------------------------------

def test_wps_profile_unit_weights_is_half_radius_sphere(half_sphere):
    base = eq.wps_profile(1, 1)
    s = np.linspace(1e-6, base.length - 1e-6, 501)
    assert base.length == pytest.approx(half_sphere.length, abs=1e-15)
    assert np.max(np.abs(base.phi(s) - half_sphere.phi(s))) <= 1e-8
    assert eq.area(base) == pytest.approx(math.pi, abs=1e-8)
    K = eq.gauss_curvature(base, s)
    assert np.max(np.abs(K - 4.0)) <= 1e-13


@pytest.mark.parametrize("m1,m2", COPRIME_PAIRS)
def test_wps_profile_gauss_bonnet(m1, m2):
    base = eq.wps_profile(m1, m2)
    assert eq.gauss_bonnet_check(base) == pytest.approx(1.0 / m1 + 1.0 / m2, abs=1e-6)


@pytest.mark.parametrize("m1,m2", COPRIME_PAIRS)
def test_wps_profile_area_closed_form(m1, m2):
    # along the chart, dA integrates to 2 pi / (m1 + m2): an independent
    # closed form obtained from int_0^1 dt / sqrt((m1^2-m2^2) t + m2^2)
    base = eq.wps_profile(m1, m2)
    assert eq.area(base) == pytest.approx(2.0 * math.pi / (m1 + m2), rel=1e-10)


def test_wps_profile_single_cone_point():
    base = eq.wps_profile(1, 2)
    assert (base.m_start, base.m_end) == (2, 1)
    h = 1e-6
    slope_end = (0.0 - float(base.phi(base.length - h))) / h
    assert slope_end == pytest.approx(-1.0, abs=1e-6)
    slope_start = float(base.phi(h)) / h
    assert slope_start == pytest.approx(0.5, abs=1e-6)


def test_wps_profile_cone_slopes_all_pairs():
    for m1, m2 in COPRIME_PAIRS:
        base = eq.wps_profile(m1, m2)
        h = 1e-6
        assert float(base.phi(h)) / h == pytest.approx(1.0 / m2, abs=1e-6)
        assert -float(base.phi(base.length - h)) / h == pytest.approx(-1.0 / m1, abs=1e-6)
        # the closed form is exact at the poles
        assert base.phi(0.0) == base.phi(base.length) == 0.0
        assert (base.phi_d1(0.0), base.phi_d1(base.length)) == (1.0 / m2, -1.0 / m1)
        # and phi'' stays accurate next to them: it is odd about each pole,
        # so phi''/d tends to a finite limit in the distance d to the pole
        for pole in (0.0, base.length):
            s = np.abs(pole - np.array([1e-8, 1e-6]))
            d = np.abs(pole - s)
            near, far = base.phi_d2(s) / d
            assert near == pytest.approx(far, rel=1e-9)


def test_wps_profile_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        eq.wps_profile(2, 4)
    with pytest.raises(NotCoprime):
        eq.wps_profile(0, 1)


def test_weights_past_the_doubles_are_refused():
    # c1 = 1/(m1 m2) must be a double above 0: a usage error past DBL_MAX
    for m1, m2 in ((10**400, 1), (10**200, 10**200 + 1)):
        with pytest.raises(NotCoprime, match="product of the weights"):
            eq.wps_profile(m1, m2)
        with pytest.raises(NotCoprime, match="product of the weights"):
            eq.bound_weighted_hopf(m1, m2)
    # the closed forms reach fourth powers of a weight: out of scale from 2^255
    for m1, m2 in ((2**255, 1), (1, 10**300), (2**255 + 2, 2**255 + 1)):
        with pytest.raises(NonFinite, match=r"below 2\^255"):
            eq.wps_profile(m1, m2)
        with pytest.raises(NonFinite, match=r"below 2\^255"):
            eq.wps_density_field(m1, m2)
    assert eq.wps_profile(2**255 - 1, 1).m_end == 2**255 - 1


def test_the_square_difference_keeps_its_bits_below_2_to_the_26():
    rng = np.random.default_rng(5)
    top = 2**26 - 1
    pairs = [(top, 1), (1, top), (top, top - 1)]
    pairs += [tuple(rng.integers(1, top, 2)) for _ in range(200)]
    for m1, m2 in pairs:
        m1, m2 = int(m1), int(m2)
        assert orbifold._square_difference(m1, m2) == float(m1 * m1 - m2 * m2), (m1, m2)


ALL_PAIRS_TO_30 = [
    (m1, m2) for m1 in range(1, 31) for m2 in range(1, 31) if math.gcd(m1, m2) == 1
]


@pytest.mark.parametrize("m1,m2", ALL_PAIRS_TO_30)
def test_wps_profile_on_all_coprime_pairs_to_thirty(m1, m2):
    # lopsided pairs such as (1, 29) put a cone of order 29 at one pole
    base = eq.wps_profile(m1, m2)
    chi = 1.0 / m1 + 1.0 / m2
    assert abs(eq.gauss_bonnet_check(base) - chi) <= 1e-6
    F = eq.wps_density_field(m1, m2)
    norms = eq.omega_norms(eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F))
    _, j_max = eq.optimal_ell(base, F, norms=norms)
    cs = eq.bound_cauchy_schwarz(base, F, norms=norms)
    main_bound = eq.bound_theorem_main(chi, 1.0 / (m1 * m2))
    slack = 1.0 + 1e-9
    assert j_max <= cs * slack
    assert cs <= main_bound * slack


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------

def test_flat_torus_invariants():
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    assert eq.area(base) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert eq.gauss_bonnet_check(base) == 0.0
    assert eq.gauss_curvature(base, 0.3) == 0.0
    assert eq.chi_orb(base) == 0.0


def test_flat_torus_validation():
    with pytest.raises(ValueError):
        eq.FlatTorusBase(length=-1.0, radius=1.0)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_gauss_bonnet_constructor_sweep(torus_metric):
    for m1, m2 in COPRIME_PAIRS:
        base = eq.wps_profile(m1, m2)
        assert eq.gauss_bonnet_check(base) == pytest.approx(eq.chi_orb(base), abs=1e-6)
    assert eq.gauss_bonnet_check(torus_metric.base) == pytest.approx(0.0, abs=1e-12)


def test_area_and_gb_stable_under_grid_refinement():
    # three pieces of the rule, 381 other nodes, against the one-piece plan
    base = eq.wps_profile(2, 3)
    cuts = [0.3 * base.length, 0.7 * base.length]
    a0 = eq.area(base)
    a1 = orbifold.integrate_over_base(base, np.ones_like, breaks=cuts).value
    assert abs(a1 - a0) <= 1e-8 * abs(a0)
    g0 = eq.gauss_bonnet_check(base)
    g1 = orbifold.integrate_over_base(base, base.gauss_curvature, breaks=cuts).value / (2 * math.pi)
    assert abs(g1 - g0) <= 1e-7


def _sampled_bump_sphere():
    s = np.linspace(0.0, math.pi, 601)
    return eq.profile_from_samples(s, bump_sphere().phi(s) * (s > 0) * (s < math.pi), 1, 1)


SCALING_BASES = {
    "hopf": lambda: eq.make_round_sphere(0.5),
    "wps23": lambda: eq.wps_profile(2, 3),
    "sampled_bump": _sampled_bump_sphere,
    "torus": lambda: eq.FlatTorusBase(length=1.0, radius=1.0),
}


@pytest.mark.parametrize("name", list(SCALING_BASES))
def test_metric_scaling_of_base(name):
    base = SCALING_BASES[name]()
    for c in (0.5, 2.0, 3.0, 10.0):
        scaled = eq.scale_base(base, c)
        assert type(scaled) is type(base)
        assert scaled.cone_orders == base.cone_orders
        assert eq.area(scaled) == pytest.approx(c * c * eq.area(base), rel=1e-14)
        assert eq.gauss_bonnet_check(scaled) == pytest.approx(
            eq.gauss_bonnet_check(base), abs=1e-6
        )
    for c in (0.0, -2.0):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            eq.scale_base(base, c)


# (phi, phi', phi'') at s = 0.9 c, by float.hex, of wps(2, 3) scaled by c and
# of the round sphere of radius c: one chain rule builds both
SCALED_PHI_HEX = {
    0.37: {"wps23": ("0x1.2efc5ef19128ep-4", "-0x1.7012bd93322adp-7", "-0x1.196ef59c90bb1p+1"),
           "sphere": ("0x1.28c9723f362e8p-2", "0x1.3e43a9692e21cp-1", "-0x1.0efd1ff2a8671p+1")},
    7.0: {"wps23": ("0x1.6642a0b264b90p+0", "-0x1.7012bd93322adp-7", "-0x1.dc064920398e5p-4"),
          "sphere": ("0x1.5eee32551f339p+2", "0x1.3e43a9692e21cp-1", "-0x1.ca5baf7467726p-4")},
}


@pytest.mark.parametrize("c", sorted(SCALED_PHI_HEX))
def test_scaled_profiles_keep_their_bits(c):
    for name, base in (("wps23", eq.wps_profile(2, 3).scaled(c)),
                       ("sphere", eq.make_round_sphere(c))):
        got = tuple(float(f(0.9 * c)).hex() for f in (base.phi, base.phi_d1, base.phi_d2))
        assert got == SCALED_PHI_HEX[c][name], name


# ---------------------------------------------------------------------------
# sampled profiles
# ---------------------------------------------------------------------------

def test_bump_sphere_profile():
    base = bump_sphere(0.15)
    assert eq.gauss_bonnet_check(base) == pytest.approx(2.0, abs=1e-6)
    assert eq.area(base) > 4.0 * math.pi / 2.0


def test_profile_from_samples_recovers_sphere():
    s = np.linspace(0.0, math.pi, 801)
    base = eq.profile_from_samples(s, np.sin(s), 1, 1)
    assert eq.area(base) == pytest.approx(4.0 * math.pi, rel=1e-8)
    assert eq.gauss_bonnet_check(base) == pytest.approx(2.0, abs=1e-5)
    # series-based second derivative stays close to the true curvature at poles
    assert eq.gauss_curvature(base, 0.01) == pytest.approx(1.0, abs=1e-2)


def test_profile_from_samples_validation():
    s = np.linspace(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        eq.profile_from_samples(s, np.ones_like(s), 1, 1)  # no pole zeros
    phi = np.sin(np.pi * s)
    with pytest.raises(ValueError):
        # slopes are pi, not matching cone orders (1, 1) at slope 1
        eq.profile_from_samples(s, phi, 1, 1)
    with pytest.raises(ValueError, match="at least 8 points"):
        eq.profile_from_samples(s[:7], phi[:7], 1, 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        eq.profile_from_samples(s[::-1], phi, 1, 1)
    dipped = phi.copy()
    dipped[16] = 0.0
    with pytest.raises(ValueError, match="positive between the poles"):
        eq.profile_from_samples(s, dipped, 1, 1)


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e4, 1e6])
def test_profile_samples_in_any_units_are_the_same_profile(c):
    # the poles hold phi = c sin(pi) (1 + ...), 1.2e-12 and more from c = 1e4;
    # they are judged against max|phi|, so the units of the samples do not matter
    s = np.linspace(0.0, math.pi, 201)
    phi = bump_sphere().phi(s)
    base = eq.profile_from_samples(c * s, c * phi, 1, 1)
    unit = eq.profile_from_samples(s, phi, 1, 1)
    assert eq.area(base) == pytest.approx(c * c * eq.area(unit), rel=1e-14)
    assert eq.gauss_bonnet_check(base) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="vanish at both poles"):
        eq.profile_from_samples(c * s, c * (phi + 1e-9), 1, 1)


@pytest.mark.parametrize("orders", [(0, 1), (1, 0), (-1, 1), (1.5, 1.5)])
def test_cone_orders_must_be_positive_integers(orders):
    # checked before any division by them, and never rounded: int(1.5) = 1
    # would give chi_orb 2 to a profile whose Gauss-Bonnet integral is 4/3
    name, bad = ("m_start", orders[0]) if orders[0] != 1 else ("m_end", orders[1])
    message = rf"cone order {name} must be a positive integer, got {bad}"
    s = np.linspace(0.0, math.pi, 65)
    phi = np.sin(s) / (1.5 if orders == (1.5, 1.5) else 1.0)
    phi[-1] = 0.0
    with pytest.raises(ValueError, match=message):
        eq.profile_from_samples(s, phi, *orders)
    with pytest.raises(ValueError, match=message):
        eq.profile_from_callables(math.pi, np.sin, *orders)


@pytest.mark.parametrize("position", ["m_start", "m_end"])
@pytest.mark.parametrize("bad", [0, -1, True, 1.5])
def test_a_profile_checks_its_cone_orders_where_it_is_built(position, bad):
    # however a profile is built, its cone orders are positive integers, so
    # its chi is positive: collapse_bounds, on chi <= 0, reads a flat base
    orders = {"m_start": 1, "m_end": 1, position: bad}
    message = rf"cone order {position} must be a positive integer, got {bad}"
    with pytest.raises(ValueError, match=message):
        eq.ConeSurfaceProfile(
            math.pi, orders["m_start"], orders["m_end"], np.sin, np.cos, lambda s: -np.sin(s)
        )


def test_numpy_integer_cone_orders_are_accepted():
    s = np.linspace(0.0, math.pi, 65)
    phi = np.sin(s)
    phi[-1] = 0.0
    base = eq.profile_from_samples(s, phi, np.int64(1), np.int32(1))
    assert base.cone_orders == (1, 1)
    assert all(type(m) is int for m in base.cone_orders)


SAMPLED_PROFILES = {
    "sin": lambda: eq.make_round_sphere(1.0),
    "sin_plus_sin_cubed": lambda: bump_sphere(0.1),  # sin s + 0.1 sin^3 s
    "bump": lambda: bump_sphere(0.15),
    "wps23": lambda: eq.wps_profile(2, 3),
}


def _samples(base, s):
    p = np.asarray(base.phi(s), dtype=float)
    p[0] = p[-1] = 0.0
    return eq.profile_from_samples(s, p, base.m_start, base.m_end)


@pytest.mark.parametrize("name", sorted(SAMPLED_PROFILES))
def test_uniform_samples_meet_gauss_bonnet_to_rounding(name):
    # uniform samples give the sine series of the profile, exact to rounding
    # at every sample count
    base = SAMPLED_PROFILES[name]()
    for n in (201, 401, 801, 1601, 3201):
        sampled = _samples(base, np.linspace(0.0, base.length, n))
        assert abs(eq.gauss_bonnet_check(sampled) - eq.chi_orb(base)) <= 1e-9, n


def _warped(length, n):
    t = np.linspace(0.0, 1.0, n)
    s = length * (t + 0.08 * np.sin(2.0 * math.pi * t))
    s[-1] = length
    return s


@pytest.mark.parametrize("name,n", [("bump", 51), ("bump", 201), ("wps13", 201)])
def test_non_uniform_samples_meet_gauss_bonnet_at_the_library_default(name, n):
    # the least-squares sine fit is a sine series, so K is smooth and the
    # library default tolerance applies
    base = {"bump": lambda: bump_sphere(0.15), "wps13": lambda: eq.wps_profile(1, 3)}[name]()
    sampled = _samples(base, _warped(base.length, n))
    gb = eq.gauss_bonnet_check(sampled, QuadratureConfig())
    assert abs(gb - eq.chi_orb(base)) <= 1e-9


def test_non_uniform_samples_meet_the_gauss_bonnet_contract():
    # warped abscissae take the least-squares sine fit, within the 1e-6 contract
    base = bump_sphere(0.15)
    for n in (201, 401, 801, 1601):
        t = np.linspace(0.0, 1.0, n)
        s = math.pi * (t + 0.08 * np.sin(2.0 * math.pi * t))
        s[-1] = math.pi
        assert abs(eq.gauss_bonnet_check(_samples(base, s)) - 2.0) <= 1e-6, n


def test_coarse_uniform_samples_pass_the_cone_slope_check():
    # the pole slopes are read from the sine coefficients of 51 samples,
    # exact for the series, so no step size can misread them
    closed = bump_sphere(0.15)
    base = _samples(closed, np.linspace(0.0, math.pi, 51))
    assert abs(eq.gauss_bonnet_check(base) - 2.0) <= 1e-12
    assert eq.gauss_curvature(base, 1e-3) == pytest.approx(closed.gauss_curvature(1e-3), abs=1e-9)


def test_non_uniform_samples_stop_at_the_first_fit_that_chops():
    # the bump sphere has sine modes 1 and 3 only: the first fit, 16 modes,
    # chops; 51 samples of wps(1, 3) do not chop by the cap of 25 modes
    bump = bump_sphere(0.15)
    s = _warped(math.pi, 3201)
    assert orbifold._sine_fit(s, bump.phi(s), math.pi).coeffs.size == 1 + 16
    wps = eq.wps_profile(1, 3)
    s = _warped(wps.length, 51)
    assert orbifold._sine_fit(s, wps.phi(s), wps.length).coeffs.size == 1 + 25


@pytest.mark.parametrize("closed, n", [(bump_sphere(0.15), 51), (eq.wps_profile(2, 3), 201)],
                         ids=["bump", "wps23"])
def test_pole_slopes_are_the_hand_sums_of_the_sine_coefficients(closed, n):
    # end_slopes() gives phi'(0) = sum (k pi / L) b_k and
    # phi'(L) = sum (-1)^k (k pi / L) b_k bit for bit as the profile builder
    # once summed them by hand, on interpolated and on fitted profiles
    L = closed.length
    uniform, warped = np.linspace(0.0, L, n), _warped(L, n)
    for series in (_interpolant(closed.phi(uniform), L, "odd")[0],
                   orbifold._sine_fit(warped, closed.phi(warped), L)):
        c = series.coeffs
        slopes = np.arange(c.size) * (math.pi / L) * -c.imag
        hand = float(slopes.sum()), float(slopes[::2].sum() - slopes[1::2].sum())
        assert series.end_slopes() == hand
    assert hand == pytest.approx((1.0 / closed.m_start, -1.0 / closed.m_end), abs=1e-6)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_non_uniform_samples_do_not_depend_on_the_blas_thread_count(threads):
    # the poles and sorted uniform draws; a fit of a few modes is well
    # conditioned, so the rounding of a threaded BLAS does not reach
    # Gauss-Bonnet (at most 2 threads: a 2-core runner has no more)
    script = """
import math
import numpy as np
import eqyamabe as eq
for n in (601, 3201):
    rng = np.random.default_rng(0)
    s = np.concatenate([[0.0], np.sort(rng.uniform(0.0, math.pi, n - 2)), [math.pi]])
    phi = np.sin(s) * (1.0 + 0.15 * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    print(eq.gauss_bonnet_check(eq.profile_from_samples(s, phi, 1, 1)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
    )
    assert proc.returncode == 0, proc.stderr
    gb = [float(line) for line in proc.stdout.split()]
    assert len(gb) == 2
    for value in gb:
        assert abs(value - 2.0) <= 1e-12, gb


# ---------------------------------------------------------------------------
# callable profiles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "closed", [bump_sphere(0.15), eq.wps_profile(1, 9)], ids=["bump", "wps19"]
)
def test_profile_from_callables_matches_the_closed_forms(closed):
    # phi alone is sampled; phi' and phi'' are its chopped sine series'
    base = eq.profile_from_callables(closed.length, closed.phi, closed.m_start, closed.m_end)
    assert base.cone_orders == closed.cone_orders
    s = np.linspace(0.0, closed.length, 65)[1:-1]
    assert np.max(np.abs(base.phi_d1(s) - closed.phi_d1(s))) <= 1e-10
    assert np.max(np.abs(base.phi_d2(s) - closed.phi_d2(s))) <= 1e-10
    assert eq.area(base) == pytest.approx(eq.area(closed), rel=1e-12)
    assert eq.gauss_bonnet_check(base) == pytest.approx(eq.gauss_bonnet_check(closed), abs=1e-12)


def test_callable_with_a_wrong_pole_slope_names_the_measured_slope():
    with pytest.raises(ValueError, match=r"slopes at the poles are 1\.1 and -1\.1"):
        eq.profile_from_callables(math.pi, lambda s: 1.1 * np.sin(s), 1, 1)
    # the round sphere's slopes are 1 and -1, not those of cone orders (2, 1)
    with pytest.raises(ValueError, match=r"are 1 and -1; cone orders \(2, 1\) need 0\.5"):
        eq.profile_from_callables(math.pi, np.sin, 2, 1)


def test_callable_profile_negative_between_the_poles_is_rejected():
    # sin(s)(1 - 2 sin^2 s): slopes 1 and -1 at the poles, as cone orders
    # (1, 1) need, but -1 at pi/2
    with pytest.raises(ValueError, match="strictly positive between the poles"):
        eq.profile_from_callables(math.pi, lambda s: np.sin(s) * np.cos(2.0 * s), 1, 1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_callable_profile_not_finite_at_a_pole_is_rejected():
    with pytest.raises(ValueError, match="profile callable is not finite at s = 0;.*the poles"):
        eq.profile_from_callables(math.pi, lambda s: np.sin(s) * np.sin(s) / np.sin(s), 1, 1)
    for length in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="length"):
            eq.profile_from_callables(length, np.sin, 1, 1)
