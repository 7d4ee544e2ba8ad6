"""Quadrature, trigonometric series, the tests' derivative checker, scalar minimizer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqyamabe.errors import (
    DomainError,
    InvalidBracket,
    LimitNotConverged,
    NoConvergence,
    NonFinite,
)
from eqyamabe.numerics import (
    IntegralResult,
    QuadratureConfig,
    _fejer_weights,
    _interpolant_coefficients,
    _modes_past,
    _with_dips,
    chopped_interpolant,
    integrate,
    limit_at_zero,
    minimize_scalar,
    sign_change_roots,
    trig_interpolant,
    trig_series,
)

from conftest import check_derivative

PLAIN = QuadratureConfig()


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_cubic_single_level_exact():
    res = integrate(lambda x: x**3, 0.0, 1.0, QuadratureConfig(max_refinements=0))
    assert res.value == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_fejer_weights_match_the_direct_formula(n):
    # w_k = (4 sin t_k / n) sum_{j <= n/2} sin((2j - 1) t_k) / (2j - 1), t_k = k pi / n
    t = np.arange(1, n) * math.pi / n
    odd = np.arange(1, n, 2)
    direct = 4.0 * np.sin(t) / n * (np.sin(np.outer(t, odd)) / odd).sum(axis=1)
    assert np.max(np.abs(_fejer_weights(n) - direct)) <= 1e-15
    assert not _fejer_weights(n).flags.writeable


def test_smooth_integrand_is_one_call_of_127_points():
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(np.sin(3.0 * x))

    res = integrate(f, 0.0, 2.0)
    assert [x.size for x in calls] == [127]
    assert res.refinements_used == 0
    assert np.all(np.diff(calls[0]) > 0.0) and 0.0 < calls[0][0] and calls[0][-1] < 2.0
    assert integrate(f, 0.0, 2.0) == res
    assert calls[1] is calls[0]  # one shared first-level array per interval


def test_refinement_evaluates_only_the_new_nodes():
    # a narrow peak needs doublings: each call covers the n new nodes of
    # level 2n, and all calls together are the nodes of the last level
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    res = integrate(f, 0.0, 1.0)
    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    assert res.value == pytest.approx(exact, rel=1e-10)
    assert [x.size for x in calls] == [127] + [128 * 2**r for r in range(len(calls) - 1)]
    assert res.refinements_used == len(calls) - 1 >= 1
    nodes = np.sort(np.concatenate(calls))
    assert nodes.size == 128 * 2**res.refinements_used - 1
    assert np.unique(nodes).size == nodes.size


def level_sums_reference(f, edges, cfg=PLAIN):
    """(value, error estimate, refinements) per row of f, written out level by
    level: f at every node of level n on each piece between the edges, and
    the level sum np.sum((vals @ w_n) * half, axis=1); the first estimate
    compares level 128 with level 64 at its every second node."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)

    def level(n):
        t = np.sin(np.arange(1, n) * (0.5 * math.pi / n)) ** 2
        vals = np.atleast_2d(f((lo[:, None] + (hi - lo)[:, None] * t).ravel()))
        return vals.reshape(len(vals), lo.size, n - 1)

    n, vals = 128, level(128)
    coarse = np.sum((vals[:, :, 1::2] @ _fejer_weights(64)) * half, axis=1)
    results = {}
    for r in range(cfg.max_refinements + 1):
        fine = np.sum((vals @ _fejer_weights(n)) * half, axis=1)
        err = np.abs(fine - coarse)
        for i in range(len(fine)):
            if i not in results and err[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(fine[i])):
                results[i] = (float(fine[i]), float(err[i]), r)
        if len(results) == len(fine):
            return [results[i] for i in range(len(fine))]
        n, coarse = 2 * n, fine
        vals = level(n)
    raise AssertionError("the reference did not converge")


def peak(x):
    return 1.0 / (1e-3 + (x - 0.3) ** 2)  # two doublings on [0, 1]


@pytest.mark.parametrize(
    "f, breaks, refinements",
    [
        (lambda x: np.exp(np.sin(3.0 * x)), (), [0]),
        (lambda x: np.abs(x - 0.2) * np.abs(x - 0.45) / (1e-3 + (x - 0.8) ** 2), (0.2, 0.45), [2]),
        (lambda x: np.stack([np.exp(np.sin(3.0 * x)), peak(x), np.cos(x), x * x]), (), [0, 2, 0, 0]),
        (peak, (), [2]),
    ],
    ids=["one_piece", "three_pieces", "four_rows", "refines_twice"],
)
def test_integrate_equals_the_level_sums_bit_for_bit(f, breaks, refinements):
    results = integrate(f, 0.0, 1.0, PLAIN, breaks=breaks)
    results = results if isinstance(results, list) else [results]
    reference = level_sums_reference(f, [0.0, *breaks, 1.0])
    assert [r.refinements_used for r in results] == refinements
    assert [(r.value, r.error_estimate, r.refinements_used) for r in results] == reference


def test_a_stopped_row_may_go_non_finite_and_a_wanted_row_may_not():
    # row 0 stops at the first level; from the first refinement on, the row
    # named by `bad` is NaN
    def rows(bad):
        def f(x):
            out = np.stack([np.cos(x), peak(x)])
            if x.size != 127:
                out[bad] = np.nan
            return out

        return f

    smooth, wanted = integrate(rows(0), 0.0, 1.0, PLAIN)
    assert (smooth.refinements_used, wanted.refinements_used) == (0, 2)
    assert smooth == integrate(np.cos, 0.0, 1.0, PLAIN)
    assert wanted == integrate(peak, 0.0, 1.0, PLAIN)
    with pytest.raises(NonFinite):
        integrate(rows(1), 0.0, 1.0, PLAIN)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([4, 8, 16, 32]),
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=32),
)
def test_fejer_rule_polynomial_exactness(n, coeffs):
    # Fejer's second rule with n intervals integrates degree <= n - 1 exactly
    poly = np.polynomial.Polynomial(coeffs[:n])
    exact = poly.integ()(1.0) - poly.integ()(-1.0)
    x = -np.cos(np.arange(1, n) * math.pi / n)
    scale = max(1.0, abs(exact))
    assert np.dot(_fejer_weights(n), poly(x)) == pytest.approx(exact, abs=1e-13 * scale)
    # and so does integrate, whose first level has 128 intervals, on [-0.5, 1.5]
    poly = np.polynomial.Polynomial(coeffs[:12])
    res = integrate(poly, -0.5, 1.5, QuadratureConfig(max_refinements=0))
    exact = poly.integ()(1.5) - poly.integ()(-0.5)
    assert res.value == pytest.approx(exact, abs=1e-11 * max(1.0, abs(exact)))


def test_chern_integrand_pair_two_three():
    # integrand 6/(4+5r)^2 has antiderivative -6/(5(4+5r)): integral is 1/6
    res = integrate(lambda r: 6.0 / (4.0 + 5.0 * r) ** 2, 0.0, 1.0, PLAIN)
    assert res.value == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_nonfinite_integrand_raises():
    def f(x):
        return np.where(np.abs(x - 0.5) < 0.1, np.nan, x)

    with pytest.raises(NonFinite):
        integrate(f, 0.0, 1.0, PLAIN)


def test_refinement_budget_exhaustion_raises():
    # 1200 oscillations are not resolved by 255 nodes
    cfg = QuadratureConfig(max_refinements=1, abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(NoConvergence):
        integrate(lambda x: np.sin(2500.0 * x) * np.exp(x), 0.0, 3.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(TypeError):  # the panel knobs are gone
        QuadratureConfig(panels=32)


@pytest.mark.parametrize(
    "f, exact",
    [(lambda x: 1.0 / (0.01 + (x - 0.5) ** 2), 20.0 * math.atan(5.0)),
     (lambda x: np.abs(x - 0.3 - 1e-3 / 7), 0.5 * ((0.3 + 1e-3 / 7) ** 2 + (0.7 - 1e-3 / 7) ** 2))],
    ids=["smooth", "kinked"],
)
def test_single_level_reports_a_real_estimate(f, exact):
    # max_refinements = 0: the first level's value, from one call, with the
    # difference to the level below it as the estimate, which bounds the error
    calls = []
    one_level = QuadratureConfig(max_refinements=0)
    res = integrate(lambda x: calls.append(x.size) or f(x), 0.0, 1.0, one_level)
    assert calls == [127]
    assert res.refinements_used == 0
    assert res.error_estimate > 0.0
    assert abs(res.value - exact) <= res.error_estimate


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-5.0, 5.0), beta=st.floats(-5.0, 5.0))
def test_integrate_is_linear(alpha, beta):
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    g = lambda x: x**2
    combined = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0, PLAIN)
    separate = alpha * integrate(f, 0.0, 2.0, PLAIN).value + beta * integrate(g, 0.0, 2.0, PLAIN).value
    tol = 1e-10 * max(1.0, abs(separate)) + 2.0 * combined.error_estimate + 1e-12
    assert abs(combined.value - separate) <= tol


def test_breaks_make_a_kink_converge_at_level_one():
    # |x - c| on [0, 1]: split there, each piece is linear and the first
    # level converges
    c = 0.3 + 1e-3 / 7
    exact = 0.5 * (c * c + (1.0 - c) ** 2)
    res = integrate(lambda x: np.abs(x - c), 0.0, 1.0, PLAIN, breaks=[c])
    assert res.refinements_used == 0
    assert res.value == pytest.approx(exact, rel=1e-15)
    with pytest.raises(NoConvergence):  # doubling stalls at the kink
        integrate(lambda x: np.abs(x - c), 0.0, 1.0, PLAIN)


def test_breaks_several_per_panel_on_edges_and_outside():
    # breaks close together, a repeat, and breaks on or outside the ends
    cuts = [0.1, 0.13, 0.6, 0.6]
    f = lambda x: np.abs((x - 0.1) * (x - 0.13) * (x - 0.6))  # noqa: E731
    res = integrate(f, 0.0, 1.0, PLAIN, breaks=cuts + [-1.0, 0.0, 1.0, 2.0, float("nan")])
    pieces = [0.0, 0.1, 0.13, 0.6, 1.0]
    # |f| is a cubic on each piece: one level integrates it exactly
    one_level = QuadratureConfig(max_refinements=0)
    exact = sum(integrate(f, lo, hi, one_level).value for lo, hi in zip(pieces, pieces[1:]))
    assert res.refinements_used == 0
    assert res.value == pytest.approx(exact, rel=1e-14)


def test_breaks_give_one_call_per_level_covering_every_piece():
    calls = []
    cuts = [0.2, 0.45]

    def f(x):
        calls.append(x)
        return np.abs(x - 0.2) * np.abs(x - 0.45) / (1e-3 + (x - 0.8) ** 2)

    res = integrate(f, 0.0, 1.0, PLAIN, breaks=cuts)
    assert res.refinements_used >= 1
    assert len(calls) == res.refinements_used + 1
    assert calls[0].size == 3 * 127
    assert [x.size for x in calls[1:]] == [3 * 128 * 2**r for r in range(res.refinements_used)]
    for x in calls:
        assert np.all(np.diff(x) > 0.0) and not x.flags.writeable
        for lo, hi in zip([0.0, *cuts], [*cuts, 1.0]):
            assert np.count_nonzero((lo < x) & (x < hi)) == x.size // 3


def test_breaks_keep_rows_and_read_only_nodes():
    seen = []

    def rows(x):
        seen.append(x.flags.writeable)
        return np.stack([np.abs(x - 0.37), np.ones_like(x)])

    a, b = integrate(rows, 0.0, 1.0, PLAIN, breaks=np.array([0.37]))
    assert a.value == pytest.approx(0.5 * (0.37**2 + 0.63**2), rel=1e-15)
    assert b.value == pytest.approx(1.0, rel=1e-15)
    assert seen and not any(seen)


def test_no_breaks_is_the_plain_rule():
    f = lambda x: np.exp(np.sin(3.0 * x))  # noqa: E731
    assert integrate(f, 0.0, 2.0, PLAIN, breaks=()) == integrate(f, 0.0, 2.0, PLAIN)
    assert integrate(f, 0.0, 2.0, PLAIN, breaks=[2.0, 5.0]) == integrate(f, 0.0, 2.0, PLAIN)


def test_sign_change_roots_simple_multiple_and_finite_difference():
    x = np.linspace(0.0, 3.0, 31)
    roots = sign_change_roots(np.cos, lambda t: -np.sin(t), x, np.cos(x))
    assert roots == pytest.approx([math.pi / 2], abs=1e-15)

    # a finite-difference slope still polishes to rounding level
    fd = lambda t: (np.cos(t + 1e-6) - np.cos(t - 1e-6)) / 2e-6  # noqa: E731
    assert sign_change_roots(np.cos, fd, x, np.cos(x)) == pytest.approx([math.pi / 2], abs=1e-15)

    # a triple root (zero slope) and a node exactly on a root
    cube = lambda t: (t - 1.234) ** 3  # noqa: E731
    assert sign_change_roots(cube, lambda t: 3 * (t - 1.234) ** 2, x, cube(x)) == pytest.approx(
        [1.234], abs=1e-5
    )
    line = lambda t: t - 1.5  # noqa: E731
    assert sign_change_roots(line, np.ones_like, x, line(x)).tolist() == [1.5]

    # no sign change, and two roots between the same pair of points
    assert sign_change_roots(np.cos, np.sin, x, np.cos(x) + 2.0).size == 0
    pair = lambda t: (t - 1.52) * (t - 1.58)  # noqa: E731
    assert sign_change_roots(pair, lambda t: 2 * t - 3.1, x, pair(x)).size == 0


def test_dips_between_points_of_one_sign_are_bracketed():
    x = np.linspace(0.0, 3.0, 31)
    pair = lambda t: (t - 1.52) * (t - 1.58)  # noqa: E731
    xs, fs = _with_dips(pair, x, pair(x))
    assert xs.size == x.size + 1 and np.all(np.diff(xs) > 0.0)
    assert fs.tolist() == pair(xs).tolist()
    roots = sign_change_roots(pair, lambda t: 2 * t - 3.1, xs, fs)
    assert roots == pytest.approx([1.52, 1.58], abs=1e-15)

    # a tangential zero and a minimum that stays positive add nothing, and
    # f is not called where the parabola does not cross zero
    calls = []
    square = lambda t: calls.append(np.size(t)) or (t - 1.55) ** 2  # noqa: E731
    assert _with_dips(square, x, square(x))[0].tolist() == x.tolist()
    positive = lambda t: calls.append(np.size(t)) or 1.0 + np.cos(t)  # noqa: E731
    assert _with_dips(positive, x, positive(x))[0].tolist() == x.tolist()
    assert calls == [31, 1, 31]


# ---------------------------------------------------------------------------
# trig_interpolant
# ---------------------------------------------------------------------------

def test_trig_interpolant_reproduces_a_trigonometric_polynomial():
    start, period = 0.25, 2.0
    w = 2.0 * math.pi / period
    x = lambda s: w * (s - start)  # noqa: E731
    f = lambda s: 0.3 + np.cos(x(s)) - 0.5 * np.sin(3.0 * x(s))  # noqa: E731
    value, d1, d2 = trig_interpolant(f(start + period * np.arange(16) / 16), start, period)
    s = np.linspace(-1.0, 3.0, 41)  # beyond one period too
    assert value(s) == pytest.approx(f(s), abs=1e-14)
    assert d1(s) == pytest.approx(-w * np.sin(x(s)) - 1.5 * w * np.cos(3.0 * x(s)), abs=1e-13)
    assert d2(s) == pytest.approx(-w * w * np.cos(x(s)) + 4.5 * w * w * np.sin(3.0 * x(s)),
                                  abs=1e-12)
    assert np.shape(value(0.7)) == ()


@pytest.mark.parametrize("n", [15, 16])
def test_trig_interpolant_passes_through_its_samples(n):
    # random data keeps every mode, the Nyquist mode of an even count too
    samples = np.random.default_rng(n).normal(size=n)
    value, d1, _ = trig_interpolant(samples, -1.0, 3.0)
    nodes = -1.0 + 3.0 * np.arange(n) / n
    assert value(nodes) == pytest.approx(samples, abs=1e-13)
    assert value(nodes + 3.0) == pytest.approx(samples, abs=1e-13)
    assert np.all(np.isfinite(d1(nodes)))


def test_trig_interpolant_of_zeros_is_zero():
    value, d1, d2 = trig_interpolant(np.zeros(8), 0.0, 1.0)
    s = np.linspace(0.0, 1.0, 5)
    assert value(s).tolist() == d1(s).tolist() == d2(s).tolist() == [0.0] * 5


def test_chopped_interpolant_waits_for_the_tail_to_reach_rounding():
    # exp(cos) has coefficients 2 I_k(1), below eps from k = 15 on: 16 samples
    # leave its trailing quarter above rounding, 64 do not
    f = lambda s: np.exp(np.cos(2.0 * math.pi * s))  # noqa: E731
    assert chopped_interpolant(f(np.arange(16) / 16), 0.0, 1.0) is None
    samples = f(np.arange(64) / 64)
    s = np.linspace(0.0, 1.0, 33)
    chopped = chopped_interpolant(samples, 0.0, 1.0)
    for got, want in zip(chopped, trig_interpolant(samples, 0.0, 1.0)):
        assert got(s).tolist() == want(s).tolist()
    assert chopped_interpolant(np.zeros(8), 0.0, 1.0) is not None


def test_trim_keeps_only_the_mean_mode_of_zeros():
    # 0 is not above the data scale eps * max|samples| = 0, so no trailing
    # mode of zero data stays
    assert _modes_past(np.zeros(2001, dtype=complex), 0.0) == 1
    c = np.array([0.0, 1.0, 1e-17, 0.0], dtype=complex)
    assert _modes_past(c, np.finfo(float).eps) == 2
    # a tolerance per mode: the second mode is below its own
    assert _modes_past(c, np.array([0.0, 2.0, 0.0, 0.0])) == 3


@pytest.mark.parametrize(
    "f, n, kept",
    [(lambda x: np.sin(x) ** 2, 32, 3), (lambda x: np.cos(x) + 0.5 * np.cos(3.0 * x), 16, 4)],
    ids=["sin2", "cos_cos3"],
)
def test_trim_keeps_the_modes_past_the_data_scale(f, n, kept):
    # the rounding noise of these series is near eps * max|samples|, not near
    # eps * max|c|: trimmed against the largest coefficient they keep 11 and 7
    # modes, and their sums differ in the last bits
    samples = f(2.0 * math.pi * np.arange(n) / n)
    c, _ = _interpolant_coefficients(samples)
    assert c.size == _modes_past(c, np.finfo(float).eps * np.max(np.abs(samples))) == kept
    s = np.linspace(-1.0, 2.0 * math.pi + 1.0, 41)
    for interpolant in (trig_interpolant, chopped_interpolant):
        for got, want in zip(interpolant(samples, 0.0, 2.0 * math.pi), trig_series(c[:kept], 0.0, 1.0)):
            assert got(s).tolist() == want(s).tolist()


# ---------------------------------------------------------------------------
# check_derivative (the test helper in conftest)
# ---------------------------------------------------------------------------

def test_check_derivative_sin_cos():
    assert check_derivative(math.sin, math.cos, 0.3, [1e-3, 1e-4]) <= 1e-6


def test_check_derivative_rational_pair():
    # gamma for unit weights: (1-r)/r with derivative -1/r^2;
    # |f'''| ~ 1.5e3 at r = 0.25, so h <= 1e-5 puts truncation below 1e-8
    f = lambda r: (1.0 - r) / r
    df = lambda r: -1.0 / r**2
    assert check_derivative(f, df, 0.25, [1e-5, 1e-6]) <= 1e-8


def test_check_derivative_decreases_quadratically():
    worst_coarse = check_derivative(math.sin, math.cos, 0.7, [1e-2])
    worst_fine = check_derivative(math.sin, math.cos, 0.7, [1e-3])
    assert worst_fine <= worst_coarse / 50.0  # O(h^2) drop, allowing slack


def test_check_derivative_domain_error():
    with pytest.raises(DomainError):
        check_derivative(math.sqrt, lambda t: 0.5 / math.sqrt(t), 5e-5, [1e-3])


# ---------------------------------------------------------------------------
# minimize_scalar
# ---------------------------------------------------------------------------

def test_minimize_quadratic():
    x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, [0.0, 5.0], tol=1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_minimize_boundary_minimizer():
    x, fx = minimize_scalar(lambda x: x, [0.0, 1.0], tol=1e-8)
    assert x == 0.0
    assert fx == 0.0


def test_minimize_invalid_bracket():
    with pytest.raises(InvalidBracket):
        minimize_scalar(lambda x: x * x, [1.0, 1.0], tol=1e-8)


def test_minimize_fiber_length_functional():
    # closed-form J(ell) on the half-radius round base: optimum at ell = 1
    coef = (math.pi / 16.0) ** (1.0 / 3.0)

    def neg_j(ell):
        return -coef * (32.0 * math.pi * ell ** (2.0 / 3.0) - 8.0 * math.pi * ell ** (8.0 / 3.0))

    x, _ = minimize_scalar(neg_j, [0.1, 3.0], tol=1e-10)
    assert x == pytest.approx(1.0, abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(center=st.floats(0.2, 4.8), scale=st.floats(0.1, 10.0))
def test_minimize_shifted_quadratics(center, scale):
    x, _ = minimize_scalar(lambda t: scale * (t - center) ** 2, [0.0, 5.0], tol=1e-10)
    assert abs(x - center) <= 1e-6


# ---------------------------------------------------------------------------
# limit extrapolation
# ---------------------------------------------------------------------------

def test_limit_at_zero_smooth():
    value, err = limit_at_zero(lambda h: math.sin(h) / h)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert err >= 0.0


def test_limit_at_zero_rejects_oscillation():
    with pytest.raises(LimitNotConverged):
        limit_at_zero(lambda h: math.sin(1.0 / h))


def test_integral_result_fields():
    res = integrate(lambda x: np.ones_like(x), 0.0, 1.0, PLAIN)
    assert isinstance(res, IntegralResult)
    assert res.error_estimate >= 0.0
    assert res.value == pytest.approx(1.0, abs=1e-14)
