"""Quadrature, trigonometric series, the tests' derivative checker, scalar minimizer."""

from __future__ import annotations

import math
import warnings

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
    _fejer_rule,
    _fejer_weights,
    _chop,
    TrigSeries,
    _interpolant,
    _with_dips,
    integrate,
    limit_at_zero,
    minimize_scalar,
    sign_change_roots,
)
from eqyamabe.orbifold import integrate_over_base, quadrature_nodes, wps_profile

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
    # each call builds its own first-level array, equal bit for bit to
    # level 128 of the rule
    assert calls[1] is not calls[0]
    assert np.array_equal(calls[1], calls[0])
    assert np.array_equal(calls[0], _fejer_rule(0.0, 2.0, 128)[0])
    # a base's integrals hand f the plan's own array, also after integrals on
    # 200 new intervals
    base = wps_profile(2, 3)
    calls.clear()
    integrate_over_base(base, f)
    for k in range(200):
        integrate(np.sin, 0.0, 1.0 + k * 1e-3)
    integrate_over_base(base, f)
    assert calls[0] is calls[1] is quadrature_nodes(base)


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


@pytest.mark.parametrize(
    "f, message",
    [(lambda x: np.exp(800.0 * x), "integrand returned non-finite values near x="),
     (lambda x: np.full_like(x, 1e308), "a level sum of the integral is not finite")],
    ids=["value_overflows", "sum_overflows"],
)
def test_an_integral_out_of_scale_raises_without_a_warning(f, message):
    # exp(800 x) overflows past x = 0.887, and 1e308 is finite at every node
    # but its level sums, 2e308 times the half length, are not: one quiet
    # rule decides both
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=message):
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


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)])
def test_integrate_needs_an_increasing_interval(a, b):
    with pytest.raises(ValueError, match="need a < b"):
        integrate(np.ones_like, a, b)


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


def test_a_vertex_whose_curvature_underflows_is_no_candidate():
    # the parabola through these three values has a curvature below the
    # least subnormal: its vertex is no candidate, and nothing warns (a
    # RuntimeWarning is an error here) or calls f
    x = np.array([0.0, 1e80, 2e80])
    fx = 1e-160 * np.array([1.0 + 2.0**-50, 1.0, 1.0 + 2.0**-50])
    calls = []
    xs, fs = _with_dips(lambda t: calls.append(t) or -t, x, fx)
    assert xs.tolist() == x.tolist() and fs.tolist() == fx.tolist() and calls == []


def _with_dips_vectorized(f, x, fx):
    """`_with_dips` with each candidate's parabola in numpy arrays, the form
    the scalar loop replaced: the reference it must match bit for bit."""
    s, mag = np.sign(fx), np.abs(fx)
    same, mid = s[:-1] == s[1:], mag[1:-1]
    j = 1 + ((mid <= mag[:-2]) & (mid < mag[2:]) & same[:-1] & same[1:]).nonzero()[0]
    if not j.size:
        return x, fx
    x0, x1, x2, f0, f1, f2 = x[j - 1], x[j], x[j + 1], fx[j - 1], fx[j], fx[j + 1]
    d01 = (f1 - f0) / (x1 - x0)
    curv = ((f2 - f1) / (x2 - x1) - d01) / (x2 - x0)
    v = 0.5 * (x0 + x1) - np.divide(d01, 2.0 * curv, out=np.full(j.size, np.nan), where=curv != 0)
    sign = s[j]
    crosses = sign * (f0 + (v - x0) * (d01 + curv * (v - x1))) <= 0.0
    v, sign = v[crosses], sign[crosses]
    if not v.size:
        return x, fx
    fv = np.zeros(v.size) + f(v)
    dip = sign * fv < 0.0
    xs, fs = np.concatenate([x, v[dip]]), np.concatenate([fx, fv[dip]])
    order = np.argsort(xs, kind="stable")
    return xs[order], fs[order]


_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-160, 1.0, 2.0, 1e160, 1e300]),  # zeros and ties
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    steps=st.lists(st.integers(1, 4), min_size=3, max_size=24),
    x_scale=st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]),
    data=st.data(),
    f_scale=st.sampled_from([1e-300, 1.0, 1e300]),
)
def test_with_dips_matches_the_vectorized_parabolas(steps, x_scale, data, f_scale):
    # x increases; fx runs in stretches of one sign, so that interior minima
    # of |fx| are candidates, with exact zeros, ties and magnitudes from
    # 1e-300 to 1e300.  Overflow in a parabola gives inf or NaN and, unlike
    # the reference, no RuntimeWarning (an error here)
    n = len(steps)
    x = x_scale * np.cumsum(np.asarray(steps, dtype=float))
    flips = data.draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, -1.0]), min_size=n, max_size=n))
    mags = data.draw(st.lists(_MAGNITUDES, min_size=n, max_size=n))
    fx = np.cumprod(flips) * np.asarray(mags)
    cut = x[n // 2]
    handed = {"scalar": [], "vectorized": []}

    def f(key):
        # either sign, by where the candidate lies; NaN and inf make no warning
        return lambda t: handed[key].append(np.array(t)) or f_scale * np.where(t < cut, -1.0, 1.0)

    xs, fs = _with_dips(f("scalar"), x, fx)
    with np.errstate(all="ignore"):
        want_x, want_f = _with_dips_vectorized(f("vectorized"), x, fx)
    assert xs.tobytes() == want_x.tobytes() and fs.tobytes() == want_f.tobytes()
    assert [a.tobytes() for a in handed["scalar"]] == [a.tobytes() for a in handed["vectorized"]]


def test_with_dips_overflows_to_inf_without_a_warning():
    # a dip of depth 1e300 between points 1e-10 apart: every slope of the
    # parabola overflows, which is no candidate and no RuntimeWarning
    x = np.array([0.0, 1e-10, 2e-10])
    fx = np.array([1e300, 1e299, 1e300])
    calls = []
    xs, fs = _with_dips(lambda t: calls.append(t) or -t, x, fx)
    assert xs.tolist() == x.tolist() and fs.tolist() == fx.tolist() and calls == []


# ---------------------------------------------------------------------------
# _interpolant: uniform endpoint samples to one period, then a series
# ---------------------------------------------------------------------------

def _interpolated(values, length, parity):
    series = _interpolant(np.asarray(values, dtype=float), length, parity)[0]
    return series.value, series.d1, series.d2


def test_trig_interpolant_reproduces_a_trigonometric_polynomial():
    period = 2.0
    w = 2.0 * math.pi / period
    f = lambda s: 0.3 + np.cos(w * s) - 0.5 * np.sin(3.0 * w * s)  # noqa: E731
    value, d1, d2 = _interpolated(f(np.linspace(0.0, period, 17)), period, "periodic")
    s = np.linspace(-1.0, 3.0, 41)  # beyond one period too
    assert value(s) == pytest.approx(f(s), abs=1e-14)
    assert d1(s) == pytest.approx(-w * np.sin(w * s) - 1.5 * w * np.cos(3.0 * w * s), abs=1e-13)
    assert d2(s) == pytest.approx(-w * w * np.cos(w * s) + 4.5 * w * w * np.sin(3.0 * w * s),
                                  abs=1e-12)
    assert np.shape(value(0.7)) == ()
    # the even and odd reflections about the far end give the cosine and the
    # sine polynomials of period 2L
    L = 1.5
    k = math.pi / L
    for parity, g in (("even", lambda s: 0.3 + np.cos(k * s) - 0.5 * np.cos(3.0 * k * s)),
                      ("odd", lambda s: np.sin(k * s) - 0.5 * np.sin(3.0 * k * s))):
        value, _, _ = _interpolated(g(np.linspace(0.0, L, 9)), L, parity)
        assert value(s) == pytest.approx(g(s), abs=1e-14), parity


@pytest.mark.parametrize("n", [15, 16])
def test_trig_interpolant_passes_through_its_samples(n):
    # random data keeps every mode, the Nyquist mode of an even count too
    samples = np.random.default_rng(n).normal(size=n)
    value, d1, _ = _interpolated(np.append(samples, samples[0]), 3.0, "periodic")
    nodes = 3.0 * np.arange(n) / n
    assert value(nodes) == pytest.approx(samples, abs=1e-13)
    assert value(nodes + 3.0) == pytest.approx(samples, abs=1e-13)
    assert np.all(np.isfinite(d1(nodes)))


def test_trig_interpolant_of_zeros_is_zero():
    s = np.linspace(0.0, 1.0, 5)
    for parity in ("even", "odd", "periodic"):
        value, d1, d2 = _interpolated(np.zeros(9), 1.0, parity)
        assert value(s).tolist() == d1(s).tolist() == d2(s).tolist() == [0.0] * 5


def test_periodic_samples_must_match_at_the_seam():
    with pytest.raises(ValueError, match="seam"):
        _interpolant(np.array([1.0, 2.0, 1.0 + 1e-9]), 1.0, "periodic")
    # the even and odd reflections have no seam
    for parity in ("even", "odd"):
        assert _interpolant(np.array([1.0, 2.0, 3.0]), 1.0, parity)[0].omega == math.pi


def test_chopped_interpolant_waits_for_the_tail_to_reach_rounding():
    # exp(cos) has coefficients 2 I_k(1), below eps from k = 15 on: 16 samples
    # leave its trailing quarter above rounding, 64 do not.  The verdict is
    # the flag `_sampled_series` reads; the coefficients pass through the samples
    f = lambda s: np.exp(np.cos(2.0 * math.pi * s))  # noqa: E731
    assert _interpolant(f(np.linspace(0.0, 1.0, 17)), 1.0, "periodic")[1] is False
    grid = np.linspace(0.0, 1.0, 65)
    series, chopped = _interpolant(f(grid), 1.0, "periodic")
    assert chopped is True and series.omega == 2.0 * math.pi
    assert series.value(grid) == pytest.approx(f(grid), abs=1e-15)
    assert _interpolant(np.zeros(9), 1.0, "periodic")[1] is True


def test_trim_keeps_only_the_mean_mode_of_zeros():
    # 0 is not above the data scale eps * max|samples| = 0, so no trailing
    # mode of zero data stays
    assert _chop(np.zeros(2001, dtype=complex), 0.0) == (1, True)
    c = np.array([0.0, 1.0, 1e-17, 0.0], dtype=complex)
    assert _chop(c, np.finfo(float).eps) == (2, True)
    # a tolerance per mode: the second mode is below its own; 3 of 4 modes
    # kept is still a negligible tail, 4 of 4 is not
    assert _chop(c, np.array([0.0, 2.0, 0.0, 0.0])) == (3, True)
    assert _chop(np.ones(4), 0.0) == (4, False)


@pytest.mark.parametrize(
    "f, n, kept",
    [(lambda x: np.sin(x) ** 2, 32, 3), (lambda x: np.cos(x) + 0.5 * np.cos(3.0 * x), 16, 4)],
    ids=["sin2", "cos_cos3"],
)
def test_trim_keeps_the_modes_past_the_data_scale(f, n, kept):
    # the rounding noise of these series is near eps * max|samples|, not near
    # eps * max|c|: trimmed against the largest coefficient they keep 11 and 7
    # modes, and their sums differ in the last bits
    samples = f(np.linspace(0.0, 2.0 * math.pi, n + 1))
    series, _ = _interpolant(samples, 2.0 * math.pi, "periodic")
    c = series.coeffs
    assert c.size == _chop(c, np.finfo(float).eps * np.max(np.abs(samples)))[0] == kept
    assert series.omega == 1.0


# ---------------------------------------------------------------------------
# TrigSeries: the one series type
# ---------------------------------------------------------------------------

def test_trig_series_from_real_sums_cosines_and_sines():
    w = 1.5
    series = TrigSeries.from_real([0.3, 1.0, 0.0], [0.0, -0.5, 2.0], w)
    assert series.coeffs.tolist() == [0.3, 1.0 + 0.5j, -2.0j]
    s = np.linspace(-1.0, 3.0, 41)
    value = 0.3 + np.cos(w * s) - 0.5 * np.sin(w * s) + 2.0 * np.sin(2.0 * w * s)
    d1 = -w * np.sin(w * s) - 0.5 * w * np.cos(w * s) + 4.0 * w * np.cos(2.0 * w * s)
    d2 = -w * w * np.cos(w * s) + 0.5 * w * w * np.sin(w * s) - 8.0 * w * w * np.sin(2.0 * w * s)
    assert series.value(s) == pytest.approx(value, abs=1e-14)
    assert series.d1(s) == pytest.approx(d1, abs=1e-13)
    assert series.d2(s) == pytest.approx(d2, abs=1e-12)
    assert np.shape(series.value(0.7)) == ()
    # the coefficients are read-only
    with pytest.raises(ValueError):
        series.coeffs[0] = 1.0


def test_trig_series_end_slopes_are_the_slopes_at_zero_and_the_half_period():
    series = TrigSeries.from_real([0.3, 0.7, -0.2, 0.1], [0.0, 1.0, 0.25, -0.5], 2.0)
    start, end = series.end_slopes()
    assert start == pytest.approx(float(series.d1(0.0)), abs=1e-14)
    assert end == pytest.approx(float(series.d1(0.5 * math.pi)), abs=1e-14)


def test_trig_series_out_of_scale_raises_without_a_warning():
    # a derivative's coefficients, the sum of the moduli that bounds the
    # values, and the FFT of samples near DBL_MAX each leave the doubles
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs, omega in (([1e300, 1e300], 1e6), ([1.7e308, 1.7e308], 1.0)):
            with pytest.raises(NonFinite, match="leaves the doubles: out of scale"):
                TrigSeries(coeffs, omega)
        with pytest.raises(NonFinite, match="leaves the doubles: out of scale"):
            _interpolant(np.full(9, 1.7e308), 1.0, "even")
        with pytest.raises(ValueError, match="seam"):  # the seam's difference overflows quietly
            _interpolant(np.array([1.7e308, 0.0, -1.7e308]), 1.0, "periodic")
        assert TrigSeries([1e300, 1e300], 1e3).d2(0.0) == -1e306


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
