"""Invariant metrics: total scalar curvature, norms, volume, scaling."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import bundle, orbifold
from eqyamabe.errors import DomainError, NonFinite
from eqyamabe.orbifold import integrate_over_base

from conftest import fourier_field


def berger(ell):
    return eq.InvariantMetric(
        base=eq.make_round_sphere(0.5),
        ell=eq.RadialField.const(ell),
        F=eq.RadialField.const(2.0),
    )


def torus(F=1.0, ell=1.0):
    return eq.InvariantMetric(
        base=eq.FlatTorusBase(length=1.0, radius=1.0),
        ell=eq.RadialField.const(ell),
        F=eq.RadialField.const(F),
    )


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def test_hopf_scalar_curvature_is_six(hopf):
    for s in np.linspace(0.01, hopf.base.length - 0.01, 11):
        assert float(eq.scalar_curvature_total(hopf, s)) == pytest.approx(6.0, abs=1e-10)


@pytest.mark.parametrize("ell", [0.25, 0.5, 1.0, 2.0])
def test_berger_family_scalar_curvature(ell):
    metric = berger(ell)
    s = np.linspace(0.1, metric.base.length - 0.1, 9)
    expected = 8.0 - 2.0 * ell**2
    assert np.max(np.abs(eq.scalar_curvature_total(metric, s) - expected)) <= 1e-10


def test_torus_scalar_curvature():
    metric = torus(F=1.0, ell=0.7)
    assert float(eq.scalar_curvature_total(metric, 0.4)) == pytest.approx(
        -(0.7**2) / 2.0, abs=1e-14
    )


def test_scalar_curvature_pole_domain(hopf):
    from eqyamabe.errors import DomainError

    with pytest.raises(DomainError):
        eq.scalar_curvature_total(hopf, 0.0)


def _scalar_curvature_log_form(metric, s):
    """The total scalar curvature with 2 Delta(log ell) - 2 |d ell|^2 / ell^2
    in place of the fiber-gradient term of `scalar_curvature_total`."""
    base = metric.base
    ell = metric.ell.value(s)
    dell = metric.ell.d1(s)
    F = metric.F.value(s)
    K = eq.gauss_curvature(base, s)
    lap_log = -(metric.ell.d2(s) / ell - (dell / ell) ** 2)
    lap_log = -base.dlog_density(s) * (dell / ell) + lap_log
    return 2.0 * K - 0.5 * ell**2 * F**2 - 2.0 * (dell / ell) ** 2 + 2.0 * lap_log


def test_oneill_two_forms_agree_for_variable_ell(half_sphere):
    # pins the nonnegative Laplacian convention: the fiber-gradient and
    # log-derivative forms must agree pointwise
    ell = fourier_field(half_sphere.length, [0.3, -0.1], offset=1.2)
    metric = eq.InvariantMetric(base=half_sphere, ell=ell, F=eq.RadialField.const(2.0))
    s = np.linspace(0.05, half_sphere.length - 0.05, 23)
    a = eq.scalar_curvature_total(metric, s)
    b = _scalar_curvature_log_form(metric, s)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_laplacian_term_integrates_to_zero(half_sphere):
    # divergence theorem: int 2 (Delta ell / ell) ell dv = 0 on a closed base
    ell = fourier_field(half_sphere.length, [0.4, 0.15, -0.2], offset=1.5)
    metric = eq.InvariantMetric(base=half_sphere, ell=ell, F=eq.RadialField.const(2.0))

    def integrand(s):
        total = eq.scalar_curvature_total(metric, s)
        base_part = 2.0 * 4.0 - 0.5 * ell.value(s) ** 2 * 4.0  # K = 4, F = 2
        return (total - base_part) * ell.value(s)

    res = integrate_over_base(half_sphere, integrand)
    assert abs(res.value) <= 1e-8


def test_a_field_from_a_series_sums_it_bit_for_bit():
    from eqyamabe.numerics import TrigSeries

    series = TrigSeries.from_real([1.2, 0.4, -0.2], [0.0, 0.3, 0.1], 2.0)
    field = eq.RadialField.from_series(series)
    s = np.linspace(0.0, math.pi, 37)
    for got, want in ((field.value, series.value), (field.d1, series.d1), (field.d2, series.d2)):
        assert np.array_equal(got(s), want(s))
    assert field.constant is None


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_hopf_norms(hopf):
    norms = eq.omega_norms(hopf)
    assert norms.omega_L2_sq == pytest.approx(8.0 * math.pi, rel=1e-12)
    assert norms.omega_L1 == pytest.approx(2.0 * math.sqrt(2.0) * math.pi, rel=1e-12)
    assert norms.chern_number == pytest.approx(1.0, rel=1e-12)


def test_torus_norms(torus_metric):
    norms = eq.omega_norms(torus_metric)
    assert norms.chern_number == pytest.approx(1.0, rel=1e-13)
    assert norms.omega_L2_sq == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_a_nan_density_keeps_the_quadratures_own_error(half_sphere):
    # the norms name the largest |F| only for values out of scale; a NaN is
    # the quadrature's to report
    nan = eq.RadialField(
        value=lambda s: np.full_like(np.asarray(s, dtype=float), math.nan),
        d1=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    metric = eq.InvariantMetric(base=half_sphere, ell=eq.RadialField.const(1.0), F=nan)
    with pytest.raises(NonFinite, match="^integrand returned non-finite values near"):
        eq.omega_norms(metric)


def test_a_string_is_not_a_radial_field(half_sphere):
    with pytest.raises(TypeError, match="cannot interpret str as a radial field"):
        bundle.as_radial_field("x", half_sphere)


def test_zero_density_norms(half_sphere):
    metric = eq.InvariantMetric(
        base=half_sphere, ell=eq.RadialField.const(1.0), F=eq.RadialField.const(0.0)
    )
    norms = eq.omega_norms(metric)
    assert norms.omega_L1 == 0.0
    assert norms.omega_L2_sq == 0.0
    assert norms.omega_L3_sq == 0.0
    assert norms.chern_number == 0.0


def test_l1_dominates_chern(half_sphere):
    # |Omega|_1 >= 2 sqrt(2) pi |c1| for arbitrary radial densities
    rng = np.random.default_rng(20240611)
    for _ in range(25):
        coeffs = rng.normal(scale=0.5, size=4)
        offset = rng.uniform(-1.5, 1.5)
        F = fourier_field(half_sphere.length, coeffs, offset)
        metric = eq.InvariantMetric(
            base=half_sphere, ell=eq.RadialField.const(1.0), F=F
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fractional Chern data is expected here
            norms = eq.omega_norms(metric)
        assert norms.omega_L1 >= 2.0 * math.sqrt(2.0) * math.pi * abs(norms.chern_number) - 1e-9


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def test_hopf_volume_is_round_sphere_volume(hopf):
    assert eq.volume_total(hopf) == pytest.approx(2.0 * math.pi**2, rel=1e-12)


def test_torus_volume(torus_metric):
    assert eq.volume_total(torus_metric) == pytest.approx(4.0 * math.pi**2, rel=1e-13)


def test_volume_linear_in_ell(hopf):
    scaled = eq.InvariantMetric(base=hopf.base, ell=eq.RadialField.const(3.0), F=hopf.F)
    assert eq.volume_total(scaled) == pytest.approx(3.0 * eq.volume_total(hopf), rel=1e-12)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_scaling_multiplies_curvature_by_inverse_square(hopf, c):
    scaled = eq.scale_metric(hopf, c)
    for s in (0.3, 0.8, 1.2):
        assert float(eq.scalar_curvature_total(scaled, c * s)) == pytest.approx(
            float(eq.scalar_curvature_total(hopf, s)) / c**2, rel=1e-12
        )


# scale_metric's (ell, ell', ell'') and (F, F', F'') at s = 0.9 c, by
# float.hex, for ell = 1 + 0.2 cos 4s and the weighted density on wps(2, 3):
# the chain rule multiplies by c^p for p > 0 and divides by c^(-p) for p < 0
SCALED_FIELDS_HEX = {
    0.37: {"ell": ("0x1.36ed5f3931203p-2", "0x1.6a834365a418ep-2", "0x1.f05e2ecfee3d6p+2"),
           "F": ("0x1.844a567e08b77p+2", "0x1.43085c73bc9d6p+4", "0x1.5a0f56287c4e1p+6")},
    7.0: {"ell": ("0x1.6fa6839f4d1d7p+2", "0x1.6a834365a418ep-2", "0x1.a3c911a59c226p-2"),
          "F": ("0x1.15b7cc3e7dd22p-6", "0x1.86cb28a429351p-9", "0x1.620f2b537050dp-11")},
}


@pytest.mark.parametrize("c", sorted(SCALED_FIELDS_HEX))
def test_scaled_fields_keep_their_bits(c):
    ell = eq.RadialField(lambda s: 1.0 + 0.2 * np.cos(4.0 * np.asarray(s)),
                         lambda s: -0.8 * np.sin(4.0 * np.asarray(s)),
                         lambda s: -3.2 * np.cos(4.0 * np.asarray(s)))
    metric = eq.InvariantMetric(base=eq.wps_profile(2, 3), ell=ell, F=eq.wps_density_field(2, 3))
    scaled = eq.scale_metric(metric, c)
    for name, field in (("ell", scaled.ell), ("F", scaled.F)):
        got = tuple(float(f(0.9 * c)).hex() for f in (field.value, field.d1, field.d2))
        assert got == SCALED_FIELDS_HEX[c][name], name


def test_scaling_preserves_chern(hopf):
    norms0 = eq.omega_norms(hopf)
    norms1 = eq.omega_norms(eq.scale_metric(hopf, 2.0))
    assert norms1.chern_number == pytest.approx(norms0.chern_number, rel=1e-12)


def test_scaling_volume(hopf):
    assert eq.volume_total(eq.scale_metric(hopf, 2.0)) == pytest.approx(
        8.0 * eq.volume_total(hopf), rel=1e-12
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_metric_requires_positive_ell(half_sphere):
    with pytest.raises(ValueError):
        eq.InvariantMetric(
            base=half_sphere, ell=eq.RadialField.const(-1.0), F=eq.RadialField.const(0.0)
        )


def counted_const(c, calls):
    """`RadialField.const(c)` whose callables log every call."""
    field = eq.RadialField.const(c)

    def counted(fn):
        def wrapped(s):
            calls.append(fn)
            return fn(s)

        return wrapped

    return eq.RadialField(
        counted(field.value), counted(field.d1), counted(field.d2), constant=field.constant
    )


@pytest.mark.parametrize(
    "ell, F, outcome",
    [
        (0.0, 1.0, "nonpositive"),
        (-1.0, 1.0, "nonpositive"),
        (math.nan, 1.0, "accepted"),  # NaN <= 0 is false, for a constant as at a probe point
        (0.7, 2.0, "accepted"),
        ("dip", 1.0, "nonpositive"),
        (0.7, "ramp", "warns"),
    ],
)
def test_constant_fields_are_checked_without_evaluation(half_sphere, ell, F, outcome):
    # `InvariantMetric` reads a constant field's `constant` and never calls it;
    # a field that varies is still probed for its sign and its pole slopes
    calls = []
    fields = {
        "dip": fourier_field(half_sphere.length, [1.5], 0.5),  # 0.5 + 1.5 cos: below 0 near L
        "ramp": eq.RadialField(
            value=lambda s: 1.0 + np.asarray(s),
            d1=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        ),
    }
    ell, F = (fields[x] if isinstance(x, str) else counted_const(x, calls) for x in (ell, F))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if outcome == "nonpositive":
            with pytest.raises(ValueError, match="fiber length must be strictly positive"):
                eq.InvariantMetric(base=half_sphere, ell=ell, F=F)
        elif outcome == "warns":
            with pytest.warns(UserWarning, match="F' does not vanish at a cone pole"):
                eq.InvariantMetric(base=half_sphere, ell=ell, F=F)
        else:
            metric = eq.InvariantMetric(base=half_sphere, ell=ell, F=F)
            assert (metric.ell, metric.F) == (ell, F)
    assert calls == []


def test_nonsmooth_pole_data_warns(half_sphere):
    ramp = eq.RadialField(
        value=lambda s: 1.0 + np.asarray(s),
        d1=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    with pytest.warns(UserWarning, match="cone pole"):
        eq.InvariantMetric(base=half_sphere, ell=ramp, F=eq.RadialField.const(2.0))


def test_plain_callable_ramp_warns_and_keeps_its_norm(half_sphere):
    # the even extension of a ramp has a kink at the pole, so its series never
    # chops; the area element vanishes there, and the norm still comes out
    # right: sqrt2 * 2pi int (1 + s) sin(2s) / 2 ds over [0, pi/2]
    with pytest.warns(UserWarning, match="smooth on the orbifold"):
        metric = eq.InvariantMetric(base=half_sphere, ell=1.0, F=lambda s: 1.0 + np.asarray(s))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ramp's Chern number is fractional
        norms = eq.omega_norms(metric)
    assert norms.omega_L1 == pytest.approx(math.sqrt(2.0) * math.pi * (1.0 + math.pi / 4.0), rel=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_plain_callable_not_finite_at_a_pole_is_rejected(half_sphere):
    # sin(2s)/sin(s) tends to 2 at s = 0, but a plain callable is sampled at
    # the poles themselves
    with pytest.raises(ValueError, match="not finite at s = 0;.*the poles"):
        eq.InvariantMetric(base=half_sphere, ell=1.0, F=lambda s: np.sin(2.0 * s) / np.sin(s))


def test_plain_callable_that_raises_at_a_pole_is_rejected():
    # the Gauss curvature is defined on the open interval only, and a plain
    # callable is sampled at the poles themselves
    base = eq.wps_profile(1, 2)
    with pytest.raises(ValueError, match="raised DomainError; .*the poles included") as info:
        eq.laplace_solve_radial(base, lambda s: orbifold.gauss_curvature(base, s))
    assert isinstance(info.value.__cause__, DomainError)


def test_plain_callable_off_the_seam_is_rejected_at_once():
    # the seam is checked on the first sampling, before any warning about chopping
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="seam"):
            eq.InvariantMetric(base=base, ell=lambda s: 1.0 + 0.1 * np.asarray(s), F=1.0)


def test_plain_callable_on_the_torus_is_a_fourier_series():
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    k = 2.0 * math.pi
    f = lambda s: 1.0 + 0.1 * np.sin(k * np.asarray(s)) + 0.05 * np.cos(2.0 * k * np.asarray(s))  # noqa: E731
    d2 = lambda s: -0.1 * k**2 * np.sin(k * np.asarray(s)) - 0.2 * k**2 * np.cos(2.0 * k * np.asarray(s))  # noqa: E731
    metric = eq.InvariantMetric(base=base, ell=f, F=1.0)
    s = np.linspace(0.0, 1.0, 33)
    assert metric.ell.d2(s) == pytest.approx(d2(s), abs=1e-12)


@pytest.mark.parametrize("weights", [(1, 97), (1, 200), (97, 1)])
def test_steep_smooth_pole_data_does_not_warn(weights):
    # near an order-m pole the wps density varies on the scale 1/m, but its
    # slope vanishes at the pole itself, where the check reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq.wps_metric(*weights)


def _counted_slopes(field, points):
    """field with its d1 appending the number of points it is handed."""
    def d1(s):
        points.append(np.size(s))
        return field.d1(s)

    return eq.RadialField(field.value, d1, field.d2)


def _pole_check_field(kind, length):
    k = math.pi / length
    if kind == "series":  # a cosine series through 33 samples
        return eq.RadialField.from_samples(1.0 + 0.3 * np.cos(k * np.linspace(0.0, length, 33)), length)
    if kind == "big_cosine":  # rounding leaves |F'| ~ 1e-11 at the poles
        return eq.RadialField(
            value=lambda s: 1e6 * (1.0 + 0.3 * np.cos(k * np.asarray(s))),
            d1=lambda s: -3e5 * k * np.sin(k * np.asarray(s)),
            d2=lambda s: -3e5 * k * k * np.cos(k * np.asarray(s)),
        )
    if kind == "flat":  # constant, but not marked so: it is evaluated
        return eq.RadialField(
            value=lambda s: np.full_like(np.asarray(s, dtype=float), 2.0),
            d1=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )
    if kind == "tiny_slope":  # F' = 1e-13: past 5e-14 at the poles, under the interior's 1e-12
        return eq.RadialField(
            value=lambda s: 1.0 + 1e-13 * np.asarray(s),
            d1=lambda s: np.full_like(np.asarray(s, dtype=float), 1e-13),
            d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )
    scale = {"ramp": 1.0, "big_ramp": 1e6}[kind]  # 1 + 0.3 s / L, times the scale
    return eq.RadialField(
        value=lambda s: scale * (1.0 + 0.3 * np.asarray(s) / length),
        d1=lambda s: np.full_like(np.asarray(s, dtype=float), scale * 0.3 / length),
        d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )


@pytest.mark.parametrize("role", ["ell", "F"])
@pytest.mark.parametrize("base", ["wps23", "sphere"])
@pytest.mark.parametrize(
    "kind, points, warns",
    [
        ("series", [2], False),  # its pole slopes are rounding: the interior is not read
        ("flat", [2], False),
        ("big_cosine", [2, 511], False),  # pole slopes past 5e-14, but small against the interior's
        ("tiny_slope", [2, 511], False),  # the interior is read, but its slopes are under 1e-12
        ("ramp", [2, 511], True),
        ("big_ramp", [2, 511], True),
    ],
    ids=["series", "flat", "big_cosine", "tiny_slope", "ramp", "big_ramp"],
)
def test_pole_check_reads_the_poles_before_the_interior(role, base, kind, points, warns):
    # the pole slopes are read first; the slopes at the 511 nodes of the
    # Galerkin grid, where every check on a base reads its field, only when a
    # pole slope exceeds 0.05 * 1e-12, below which the check cannot fire
    base = {"wps23": eq.wps_profile(2, 3), "sphere": eq.make_round_sphere(1.0)}[base]
    handed = []
    fields = {"ell": eq.RadialField.const(1.0), "F": eq.RadialField.const(1.0)}
    fields[role] = _counted_slopes(_pole_check_field(kind, base.length), handed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eq.InvariantMetric(base=base, **fields)
    assert handed == points
    expected = [f"{role}' does not vanish at a cone pole"] if warns else []
    assert [str(w.message).split(" (")[0] for w in caught] == expected


@pytest.mark.parametrize(
    "profile, start, end",
    [(lambda t: 1.0 + 0.3 * t, 0.3, 0.3), (lambda t: 1.0 + 0.3 * t * t, 0.0, 0.6)],
    ids=["ramp", "half_parabola"],
)
def test_a_sampled_field_reads_its_pole_slopes_off_its_tail(profile, start, end):
    # the even extension of samples with a slope at a pole has a kink there,
    # flattened by the cosine series: its tail follows the discrete kink
    # law, exactly for these, whose even extensions have no other kinks
    base = eq.wps_profile(2, 3)
    L = base.length
    field = eq.RadialField.from_samples(profile(np.linspace(0.0, 1.0, 33)), L)
    assert field.d1(np.array([0.0, L])) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert field.series.pole_slopes() == pytest.approx((start / L, end / L), rel=1e-12, abs=1e-13)
    with pytest.warns(UserWarning, match="ell' does not vanish at a cone pole") as seen:
        eq.InvariantMetric(base, field, eq.wps_density_field(2, 3))
    assert len(seen) == 1


def test_the_pole_warning_names_the_callers_line():
    # a metric and a bound that reads F's norms run one pole check, whose
    # warning names the line that built the metric or asked for the bound
    base = eq.wps_profile(2, 3)
    ramp = 1.0 + 0.3 * np.linspace(0.0, 1.0, 33)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eq.InvariantMetric(base, eq.RadialField.from_samples(ramp, base.length), 1.0)
        eq.optimal_ell(base, eq.RadialField.from_samples(ramp, base.length))
    poles = [w for w in caught if "cone pole" in str(w.message)]
    assert [str(w.message).split("'")[0] for w in poles] == ["ell", "F"]
    assert [w.filename for w in poles] == [__file__, __file__]
    assert poles[0].lineno + 1 == poles[1].lineno


@pytest.mark.parametrize("n", [33, 65, 129])
def test_a_sampled_field_flat_at_the_poles_does_not_warn(n):
    # 1 + 0.1 sin^3(pi s / L) is flat at both poles, but its third derivative
    # is not, so its series does not chop: its tail decays as k^-4, which
    # reads as pole slopes below 1% of its interior slope; a resolved series
    # (here 1 + 0.1 sin^4, whose cosine modes 2 and 4 chop) reads none
    base = eq.wps_profile(2, 3)
    t = np.linspace(0.0, 1.0, n)
    cubed = eq.RadialField.from_samples(1.0 + 0.1 * np.sin(math.pi * t) ** 3, base.length)
    fourth = eq.RadialField.from_samples(1.0 + 0.1 * np.sin(math.pi * t) ** 4, base.length)
    assert cubed.series.samples == 2 * (n - 1) and fourth.series.samples == 0
    assert fourth.series.pole_slopes() == (0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ell in (cubed, fourth):
            eq.InvariantMetric(base, ell, eq.wps_density_field(2, 3))


def test_a_sampled_model_flat_at_the_poles_does_not_warn():
    # the sampled model of the scipy-free CI step: a bump-sphere profile,
    # ell = 1 + 0.1 cos 2s and F = (1 + 0.2 cos 2s) / chern in 201 samples
    s = np.linspace(0.0, math.pi, 201)
    phi = np.sin(s) * (1.0 + 0.15 * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    base = eq.profile_from_samples(s, phi, 1, 1)
    chern = 2.2 + 0.2 * (2.0 - 1.85 * 4.0 / 3.0 - 0.3 * 16.0 / 15.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq.InvariantMetric(base, eq.RadialField.from_samples(1.0 + 0.1 * np.cos(2.0 * s), math.pi),
                           eq.RadialField.from_samples((1.0 + 0.2 * np.cos(2.0 * s)) / chern, math.pi))


def test_torus_slope_at_the_seam_does_not_warn():
    # a torus has no cone poles, so a periodic field whose slope is largest at
    # s = 0 is smooth data there
    two_pi = 2.0 * math.pi
    wave = eq.RadialField(
        value=lambda s: 1.0 + 0.1 * np.sin(two_pi * np.asarray(s)),
        d1=lambda s: 0.1 * two_pi * np.cos(two_pi * np.asarray(s)),
        d2=lambda s: -0.1 * two_pi**2 * np.sin(two_pi * np.asarray(s)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq.InvariantMetric(base=eq.FlatTorusBase(length=1.0, radius=1.0), ell=wave, F=wave)


def test_fractional_chern_warns(half_sphere):
    metric = eq.InvariantMetric(
        base=half_sphere, ell=eq.RadialField.const(1.0), F=eq.RadialField.const(1.37)
    )
    with pytest.warns(UserWarning, match="Chern"):
        eq.omega_norms(metric)
    with pytest.warns(UserWarning, match="Chern"):  # a repeat reads the plan and warns again
        eq.omega_norms(metric)


def test_chern_lattice_is_one_over_the_lcm_of_the_cone_orders():
    # every circle orbibundle over S^2(2, 2) has c1 in (1/2)Z: a constant F
    # on this spindle of area 2 pi has c1 = F, so 1/4 is fractional and 1/2
    # is not.  On wps(2, 3) the orders are coprime and lcm = m1 m2 = 6; the
    # torus has no cone point and lcm 1
    spindle = eq.profile_from_callables(math.pi, lambda s: 0.5 * np.sin(s), 2, 2)
    with pytest.warns(UserWarning, match=r"Chern data: 2 \* 0\.250000 is not"):
        eq.omega_norms(eq.InvariantMetric(spindle, 1.0, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq.omega_norms(eq.InvariantMetric(spindle, 1.0, 0.5))
    with pytest.warns(UserWarning, match=r"Chern data: 6 \* 0\.200000 is not"):
        eq.omega_norms(eq.InvariantMetric(eq.wps_profile(2, 3), 1.0, 1.0))
    with pytest.warns(UserWarning, match=r"Chern data: 1 \* 0\.300000 is not"):
        eq.omega_norms(eq.InvariantMetric(eq.FlatTorusBase(1.0, 1.0), 1.0, 0.3))


def test_radial_field_from_samples_matches_function(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 201)
    values = 1.0 + 0.2 * np.cos(2.0 * grid)
    field = eq.RadialField.from_samples(values, half_sphere.length)
    s = np.linspace(0.1, half_sphere.length - 0.1, 17)
    assert np.max(np.abs(field.value(s) - (1.0 + 0.2 * np.cos(2.0 * s)))) <= 1e-6
    assert np.max(np.abs(field.d1(s) + 0.4 * np.sin(2.0 * s))) <= 1e-4


@pytest.mark.parametrize("periodic", [False, True])
def test_radial_field_from_samples_is_spectral(periodic):
    # cos 4s is smooth data on [0, pi/2] with poles (even about both ends),
    # and sin 4s joins it on the torus of length pi/2
    L, n = 0.5 * math.pi, 40
    grid = np.linspace(0.0, L, n + 1)
    odd = 0.1 if periodic else 0.0
    f = lambda s: 1.0 + 0.2 * np.cos(4.0 * s) + odd * np.sin(4.0 * s)  # noqa: E731
    df = lambda s: -0.8 * np.sin(4.0 * s) + 4.0 * odd * np.cos(4.0 * s)  # noqa: E731
    field = eq.RadialField.from_samples(f(grid), L, periodic=periodic)
    s = np.linspace(0.0, L, 33)
    assert field.value(s) == pytest.approx(f(s), abs=1e-14)
    assert field.d1(s) == pytest.approx(df(s), abs=1e-13)


def test_radial_field_from_samples_needs_two_samples_over_a_positive_length():
    # a series needs two samples in a 1-d array, a period of positive length
    # and, on the torus, samples that match at the seam
    for n in (0, 1):
        for periodic in (False, True):
            with pytest.raises(ValueError, match=rf"at least 2 samples.*got shape \({n},\)"):
                eq.RadialField.from_samples(np.ones(n), 1.0, periodic=periodic)
        with pytest.raises(ValueError, match=rf"at least 2 samples.*got shape \({n},\)"):
            eq.minimize_conformal(eq.hopf_metric(), u0=np.ones(n))
    with pytest.raises(ValueError, match=r"1-d array.*got shape \(3, 3\)"):
        eq.RadialField.from_samples(np.ones((3, 3)), 1.0)
    for end in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive, finite length"):
            eq.RadialField.from_samples(np.ones(5), end)
    with pytest.raises(ValueError, match="seam"):
        eq.RadialField.from_samples(np.array([1.0, 2.0, 1.5]), 1.0, periodic=True)
    field = eq.RadialField.from_samples(np.array([1.0, 3.0]), 2.0)
    assert field.value(np.array([0.0, 1.0, 2.0])) == pytest.approx([1.0, 2.0, 3.0], abs=1e-15)


def test_sign_changing_norms_import_no_scipy():
    # root finding and piecewise quadrature are numpy only
    script = """
import sys, warnings
import numpy as np
import eqyamabe as eq
base = eq.make_round_sphere(0.5)
F = lambda s: 0.2 + np.cos(np.pi * np.asarray(s) / base.length)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    eq.omega_norms(eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _marked_and_plain(field, reads):
    """A constant field, its slopes counted into `reads`, and the same
    callables without `constant`."""
    def counted(fn, name):
        def wrapped(s):
            reads.append(name)
            return fn(s)
        return wrapped

    marked = eq.RadialField(field.value, counted(field.d1, "d1"), counted(field.d2, "d2"),
                            constant=field.constant)
    return marked, eq.RadialField(field.value, field.d1, field.d2)


@pytest.mark.parametrize("base_name, F", [("hopf", 2.0), ("hopf", 0.0), ("hopf", -4.0),
                                          ("torus", 1.0), ("torus", 0.0), ("torus", -2.0),
                                          ("wps23", None)])
@pytest.mark.parametrize("ell", [0.3, 1.0, 2.5])
def test_constant_marked_fields_give_the_numbers_of_their_callables(base_name, F, ell):
    # a constant ell drops its Laplacian term and a constant F its root
    # search, and neither slope is read; every number is bit for bit that of
    # the same callables unmarked, signed zeros included (F = 0 on the torus
    # makes the scalar curvature +0.0)
    base = {"hopf": lambda: eq.make_round_sphere(0.5), "wps23": lambda: eq.wps_profile(2, 3),
            "torus": lambda: eq.FlatTorusBase(length=1.0, radius=1.0)}[base_name]()
    reads = []
    ell_marked, ell_plain = _marked_and_plain(eq.RadialField.const(ell), reads)
    if F is None:
        F_marked = F_plain = eq.wps_density_field(2, 3)
    else:
        F_marked, F_plain = _marked_and_plain(eq.RadialField.const(F), reads)

    def numbers(ell_field, F_field):
        metric = eq.InvariantMetric(base, ell_field, F_field)
        s = orbifold._rule(base, 128)[0]
        norms = eq.omega_norms(metric)
        result = eq.minimize_conformal(metric)
        return [
            np.asarray(eq.scalar_curvature_total(metric, s)).tobytes(),
            np.asarray(eq.scalar_curvature_total(metric, s[::7].copy())).tobytes(),
            [getattr(norms, k).hex() for k in vars(norms)],
            repr(eq.functional_J(metric)),
            result.mu_upper.hex(), result.error_estimate.hex(), result.trace.tobytes(),
        ]

    marked = numbers(ell_marked, F_marked)
    assert reads == []
    assert marked == numbers(ell_plain, F_plain)
    if F == 0.0 and base_name == "torus":
        scal = eq.scalar_curvature_total(eq.InvariantMetric(base, ell_marked, F_marked), 0.5)
        assert math.copysign(1.0, scal) == 1.0


# ---------------------------------------------------------------------------
# the tracer's contract: fields are built through __init__ and evaluated
# through their attributes
# ---------------------------------------------------------------------------

def test_every_field_is_built_through_init_and_evaluated_through_its_attributes(monkeypatch):
    # perfbench/tracing.py counts field evaluations by replacing value, d1
    # and d2 on each instance after RadialField.__init__: every field the
    # library builds must pass through __init__, and every evaluation must
    # read those attributes, for a series as for closed-form callables
    from eqyamabe import conformal
    from eqyamabe.numerics import TrigSeries

    base = eq.wps_profile(2, 3)
    L = base.length
    cosine = np.cos(np.linspace(0.0, math.pi, 33))
    closed = fourier_field(L, [0.1, 0.02], 0.8)
    built, outer, inner = [], [], []

    def counted(fn, log):
        def wrapped(*args):
            log.append(int(np.size(args[-1])))
            return fn(*args)

        return wrapped

    init = eq.RadialField.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
        for name in ("value", "d1", "d2"):
            object.__setattr__(self, name, counted(getattr(self, name), outer))

    monkeypatch.setattr(eq.RadialField, "__init__", traced_init)
    for name in ("value", "d1", "d2"):  # what a series field sums, counted inside
        monkeypatch.setattr(TrigSeries, name, counted(getattr(TrigSeries, name), inner))

    def metric():
        """A new metric of a sampled ell and a closed-form F, which keeps
        no values yet."""
        F = eq.RadialField(*(counted(fn, inner) for fn in (closed.value, closed.d1, closed.d2)))
        return eq.InvariantMetric(base, eq.RadialField.from_samples(1.0 + 0.1 * cosine, L), F)

    scaled = eq.scale_metric(metric(), 2.0)
    fields = {
        "const": eq.RadialField.const(1.0),
        "from_series": eq.RadialField.from_series(TrigSeries([1.0, 0.1], math.pi / L)),
        "from_samples": eq.RadialField.from_samples(cosine, L),
        "as_radial_field": bundle.as_radial_field(lambda s: 1.0 + 0.1 * np.cos(4.0 * s), base),
        "_Basis.series": conformal._basis(L, False, 16).series(np.eye(16)[1]),
        "scale_metric ell": scaled.ell,
        "scale_metric F": scaled.F,
    }
    for name, field in fields.items():
        assert any(field is b for b in built), name

    u = eq.RadialField.from_samples(1.0 + 0.05 * cosine, L)
    runs = {
        "omega_norms": eq.omega_norms,
        "functional_J": eq.functional_J,
        "conformal_functional": lambda m: eq.conformal_functional(m, u),
        "minimize_conformal": eq.minimize_conformal,
    }
    for name, run in runs.items():
        m = metric()
        outer.clear()
        inner.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fractional Chern data
            run(m)
        assert inner and inner == outer, name
