"""Poisson solves, uniformization, and the conformal minimizer."""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

import eqyamabe as eq
import eqyamabe.conformal as conformal
from eqyamabe.conformal import laplace_residual
from eqyamabe import bundle, numerics, orbifold
from eqyamabe.errors import (
    NoConvergence,
    NonPositiveFactor,
    NonpositiveChi,
    NotMeanZero,
    NumericalError,
)

from conftest import BERGER_HALF_J, SIGMA_S3, bump_sphere, check_derivative


def _eigenvalue_oracle(base, n=2000):
    """Smallest nonzero eigenvalue of the radial Laplacian on a tridiagonal
    finite-volume discretization.

    Independent of the Galerkin solver: the operator -(phi u')'/phi is
    assembled from fluxes at cell edges, zero-flux at the poles.  It is
    self-adjoint in the area-weighted inner product, so its symmetrized form
    goes to scipy's `eigh_tridiagonal`; the constant kernel is eigenvalue 0.
    """
    from scipy.linalg import eigh_tridiagonal

    h = base.length / n
    phi_c = np.asarray(base.phi((np.arange(n) + 0.5) * h), dtype=float)
    flux = np.asarray(base.phi(np.arange(1, n) * h), dtype=float) / (h * h)
    diag = np.zeros(n)
    diag[:-1] += flux / phi_c[:-1]
    diag[1:] += flux / phi_c[1:]
    off = -flux / np.sqrt(phi_c[:-1] * phi_c[1:])
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(1, 1))[0])


# ---------------------------------------------------------------------------
# laplace_solve_radial
# ---------------------------------------------------------------------------

def test_zero_data_gives_zero_solution(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 2001)
    f = eq.RadialField.from_samples(np.zeros_like(grid), half_sphere.length)
    u = eq.laplace_solve_radial(half_sphere, f)
    assert np.max(np.abs(u.value(grid))) <= 1e-14


def test_axial_harmonic_eigenfunction(half_sphere):
    # first axial harmonic on the half-radius sphere: eigenvalue 2/R^2 = 8
    lam = _eigenvalue_oracle(half_sphere)
    assert lam == pytest.approx(8.0, rel=1e-3)
    grid = np.linspace(0.0, half_sphere.length, 4001)
    f = eq.RadialField.from_samples(np.cos(2.0 * grid), half_sphere.length)
    u = eq.laplace_solve_radial(half_sphere, f)
    assert np.max(np.abs(u.value(grid) - f.value(grid) / 8.0)) <= 1e-6


def test_nonzero_mean_rejected(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 2001)
    f = eq.RadialField.from_samples(np.ones_like(grid), half_sphere.length)
    with pytest.raises(NotMeanZero):
        eq.laplace_solve_radial(half_sphere, f)


def _centered(base, vals):
    # subtract the area-weighted mean, by the library quadrature, so the data
    # is admissible: a trapezoid mean leaves about 9e-8 of int |f| dv, above
    # the solvability tolerance 1e-8
    field = eq.RadialField.from_samples(vals, base.length)
    mean = orbifold.integrate_over_base(base, field.value).value
    return eq.RadialField.from_samples(vals - mean / eq.area(base), base.length)


def test_residual_bound_random_data(half_sphere):
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, half_sphere.length, 4001)
    for _ in range(5):
        coeffs = rng.normal(scale=1.0, size=3)
        vals = sum(
            c * np.cos(2.0 * (k + 1) * grid) for k, c in enumerate(coeffs)
        )
        f = _centered(half_sphere, np.asarray(vals))
        u = eq.laplace_solve_radial(half_sphere, f)
        resid = laplace_residual(half_sphere, u, f)
        assert resid <= 1e-6 * max(1.0, float(np.max(np.abs(f.value(grid)))))


def test_solution_mean_is_zero(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 4001)
    f = eq.RadialField.from_samples(np.cos(2.0 * grid), half_sphere.length)
    u = eq.laplace_solve_radial(half_sphere, f)
    w = np.asarray(half_sphere.phi(grid))
    mean = np.trapezoid(u.value(grid) * w, grid) / np.trapezoid(w, grid)
    assert abs(mean) <= 1e-10


def test_solver_linearity(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 2001)
    f1 = eq.RadialField.from_samples(np.cos(2.0 * grid), half_sphere.length)
    f2 = _centered(half_sphere, np.cos(4.0 * grid))
    combo = eq.RadialField.from_samples(
        2.5 * f1.value(grid) - 1.25 * f2.value(grid), half_sphere.length
    )
    u1 = eq.laplace_solve_radial(half_sphere, f1)
    u2 = eq.laplace_solve_radial(half_sphere, f2)
    uc = eq.laplace_solve_radial(half_sphere, combo)
    assert np.max(np.abs(uc.value(grid) - (2.5 * u1.value(grid) - 1.25 * u2.value(grid)))) <= 1e-9


def test_torus_solver():
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    grid = np.linspace(0.0, 1.0, 2001)
    f = eq.RadialField.from_samples(np.cos(2.0 * np.pi * grid), 1.0, periodic=True)
    u = eq.laplace_solve_radial(base, f)
    # Delta u = -u'' = f has solution f / (2 pi)^2
    assert np.max(np.abs(u.value(grid) - f.value(grid) / (2.0 * np.pi) ** 2)) <= 1e-8
    # the sine columns of the Fourier basis
    sine, cosine = np.sin(2.0 * np.pi * grid), np.cos(4.0 * np.pi * grid)
    f = eq.RadialField.from_samples(sine + cosine, 1.0, periodic=True)
    u = eq.laplace_solve_radial(base, f)
    exact = sine / (2.0 * np.pi) ** 2 + cosine / (4.0 * np.pi) ** 2
    assert np.max(np.abs(u.value(grid) - exact)) <= 1e-10


_MEAN_ZERO_BASES = {
    "wps12": lambda: eq.wps_profile(1, 2),
    "wps19": lambda: eq.wps_profile(1, 9),
    "wps1_20": lambda: eq.wps_profile(1, 20),
    "bump": lambda: bump_sphere(0.2),
    "torus": lambda: eq.FlatTorusBase(length=1.0, radius=1.0),
}


@pytest.mark.parametrize("kind", sorted(_MEAN_ZERO_BASES))
def test_solutions_have_mean_zero_by_the_library_quadrature(kind):
    # the constant coefficient cancels the mean of the series at the
    # Galerkin nodes, and the library quadrature agrees; a trapezoid mean of
    # 4001 samples was 2.1e-6 off on wps(1,20)
    base = _MEAN_ZERO_BASES[kind]()
    L, vol = base.length, eq.area(base)
    k = (2.0 if base.periodic else 1.0) * np.pi / L
    mean = orbifold.integrate_over_base(base, lambda s: np.cos(k * s)).value / vol
    solutions = [eq.laplace_solve_radial(base, lambda s: np.cos(k * s) - mean)]
    if not base.periodic:
        solutions.append(eq.uniformize_positive(base)[0])
    for u in solutions:
        assert abs(orbifold.integrate_over_base(base, u.value).value) / vol <= 1e-14


def test_poisson_data_may_be_a_number_a_callable_or_a_field(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 201)
    cosine = [
        eq.RadialField(
            lambda s: np.cos(2.0 * s), lambda s: -2.0 * np.sin(2.0 * s), lambda s: -4.0 * np.cos(2.0 * s)
        ),
        lambda s: np.cos(2.0 * s),
        eq.RadialField.from_samples(np.cos(2.0 * grid), half_sphere.length),
    ]
    solutions = [eq.laplace_solve_radial(half_sphere, f).value(grid) for f in cosine]
    for u in solutions[1:]:
        assert np.max(np.abs(u - solutions[0])) <= 1e-15
    for f in (0, 0.0, lambda s: np.zeros_like(s), eq.RadialField.const(0.0)):
        u = eq.laplace_solve_radial(half_sphere, f)
        assert np.array_equal(u.value(grid), np.zeros_like(grid))
    for f in (1, 1.0, lambda s: np.ones_like(s), eq.RadialField.const(1.0)):
        with pytest.raises(NotMeanZero):
            eq.laplace_solve_radial(half_sphere, f)


def _basis_sizes(monkeypatch):
    sizes = []
    basis = conformal._basis

    def counting(length, periodic, m, level=conformal._GRID_LEVEL):
        sizes.append(m)
        return basis(length, periodic, m, level)

    monkeypatch.setattr(conformal, "_basis", counting)
    return sizes


@pytest.mark.parametrize(
    "pair, expected",
    [((2, 3), [16]), ((1, 9), [16, 32, 64, 128]), ((1, 20), [16, 32, 64, 128, 256]),
     ((1, 1), [16]), (0.7, [16])],
    ids=["wps23", "wps19", "wps120", "wps11", "sphere07"],
)
def test_poisson_basis_doubles_while_its_tail_is_not_negligible(monkeypatch, pair, expected):
    sizes = _basis_sizes(monkeypatch)
    base = eq.make_round_sphere(pair) if pair == 0.7 else eq.wps_profile(*pair)
    u, min_scal = eq.uniformize_positive(base)
    assert sizes == expected
    if pair == (1, 1):  # K = 4 exactly at every node: the data vanishes
        assert min_scal == pytest.approx(8.0, abs=1e-13)
    if pair == 0.7:
        # K = 1/R^2 only to rounding: a tail at the data's rounding level
        # asks for no doubling
        closed = 4.0 * math.pi * eq.chi_orb(base) / eq.area(base)
        u_max = np.max(u.value(np.linspace(0.0, base.length, 4001)))
        assert min_scal == pytest.approx(closed * math.exp(-2.0 * u_max), rel=1e-12)


def test_poisson_basis_stops_at_half_the_node_count(monkeypatch):
    # past 256 modes, half the Galerkin grid's level 512 (its 511 interior
    # nodes), the stiffness products alias
    sizes = _basis_sizes(monkeypatch)
    monkeypatch.setattr(conformal, "_TAIL_TOL", 0.0)
    u, min_scal = eq.uniformize_positive(eq.wps_profile(2, 3))
    assert sizes == [16, 32, 64, 128, 256]
    assert 2 * sizes[-1] == orbifold._rule(eq.wps_profile(2, 3), 512)[0].size + 1 == 512
    assert min_scal > 0.0


def test_galerkin_grid_is_a_level_of_the_quadrature_rule():
    # level 512 of the nested Fejér rule: the first-level nodes of
    # `integrate` are every fourth node, bit for bit, and every node of each
    # level a minimizer stage runs on
    base = eq.wps_profile(2, 3)
    nodes, weights = orbifold._rule(base, 512)
    first = orbifold.quadrature_nodes(base)
    assert nodes.size == weights.size == 511
    assert np.array_equal(nodes[3::4], first)
    levels = {conformal._level(m) for m in (8, 16, 32, 64, 128, 256)}
    assert levels == {128, 256, 512}
    for level in levels:
        stage = orbifold._rule(base, level)[0]
        stride = level // 128
        assert stage.size == level - 1
        assert np.array_equal(stage[stride - 1 :: stride], first)
    assert orbifold._rule(base, 128)[0] is first
    assert not (nodes.flags.writeable or weights.flags.writeable)
    # one array per base, kept by its plan; a base of the same length has its
    # own, equal one
    assert orbifold._rule(base, 512)[0] is nodes and orbifold._rule(base, 512)[1] is weights
    other = orbifold._rule(eq.wps_profile(1, 9), 512)
    assert np.array_equal(other[0], nodes) and np.array_equal(other[1], weights)
    assert math.fsum(weights) == pytest.approx(base.length, rel=1e-14)
    assert np.dot(weights, np.cos(nodes)) == pytest.approx(math.sin(base.length), rel=1e-14)


def test_minimizer_basis_stops_at_half_the_grid_level():
    # past 256 modes the Galerkin matrices alias on the 511 nodes; a larger
    # max_modes caps nothing more.  The tail of wps(1,60) is still not
    # negligible at 256 modes, so the run says that the cap stopped it
    metric = eq.wps_metric(1, 60)
    default = eq.minimize_conformal(metric)
    assert default.modes == eq.MinimizerConfig().max_modes == 128
    for max_modes in (512, 2048):
        result = eq.minimize_conformal(metric, eq.MinimizerConfig(max_modes=max_modes))
        assert (result.modes, result.stop_reason) == (256, "basis_cap")
        assert result.mu_upper <= default.mu_upper


def test_one_rule_doubles_both_bases(monkeypatch):
    # the minimizer, the Poisson solve and the chopping of a radial callable
    # ask the one chop helper whether a tail is negligible; it is bound in
    # `numerics` and imported into `conformal`.  The minimizer's second basis
    # is its positivity probe between the nodes
    metric, base = eq.wps_metric(1, 9), eq.wps_profile(1, 9)
    samples = []

    def f(s):
        samples.append(s.size)
        return np.exp(np.cos(np.pi * s / base.length))

    bundle.as_radial_field(f, base)
    assert samples == [17, 33]  # unpatched, f chops at 33 samples
    samples.clear()
    sizes = _basis_sizes(monkeypatch)
    for module in (numerics, conformal):
        monkeypatch.setattr(module, "_chop", lambda c, tol: (1, True))  # always negligible
    assert eq.minimize_conformal(metric).modes == 16
    eq.uniformize_positive(base)
    assert sizes == [16, 16, 16]
    bundle.as_radial_field(f, base)
    assert samples == [17]


# ---------------------------------------------------------------------------
# uniformize_positive
# ---------------------------------------------------------------------------

def test_uniformize_round_sphere_is_identity(half_sphere):
    u, min_scal = eq.uniformize_positive(half_sphere)
    assert np.max(np.abs(u.value(np.linspace(0.0, half_sphere.length, 4001)))) <= 1e-8
    assert min_scal == pytest.approx(8.0, rel=1e-6)


def _uniformize_identity_error(base):
    u, min_scal = eq.uniformize_positive(base)
    assert min_scal > 0.0
    chi = eq.chi_orb(base)
    vol = eq.area(base)
    target = 4.0 * math.pi * chi / vol
    grid = np.linspace(0.0, base.length, 4001)
    mask = (grid > 0.05 * base.length) & (grid < 0.95 * base.length)
    phi = np.asarray(base.phi(grid[mask]))
    from scipy.interpolate import CubicSpline

    sp = CubicSpline(grid, u.value(grid))
    flux = CubicSpline(grid, np.asarray(base.phi(grid)) * sp(grid, 1))
    lap = -flux(grid[mask], 1) / phi
    K = np.asarray(-base.phi_d2(grid[mask]) / base.phi(grid[mask]))
    lhs = 2.0 * (lap + K)  # equals Scal_new e^{2u}, which must be constant
    return float(np.max(np.abs(lhs - target))) / target


def test_uniformize_bump_sphere_identity():
    base = bump_sphere(0.2)
    rel_err = _uniformize_identity_error(base)
    assert rel_err <= 1e-6


def test_uniformize_wps_identity():
    # lopsided weights put nearly all of the curvature next to one pole
    for m1, m2 in ((2, 3), (1, 10), (1, 20)):
        rel_err = _uniformize_identity_error(eq.wps_profile(m1, m2))
        assert rel_err <= 1e-6, (m1, m2)


def test_uniformized_solution_has_a_decaying_cosine_spectrum():
    # u is smooth and even about both poles, so the cosine series of its
    # samples decays to rounding after a few dozen modes
    base = bump_sphere(0.2)
    u, _ = eq.uniformize_positive(base)
    values = u.value(np.linspace(0.0, base.length, 4001))
    c = np.abs(np.fft.rfft(np.concatenate([values, values[-2:0:-1]])))
    assert np.count_nonzero(c >= np.finfo(float).eps * c.max()) <= 64


def _sampled_bump_profile():
    s = np.linspace(0.0, math.pi, 201)
    phi = np.sin(s) * (1.0 + 0.15 * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    return eq.profile_from_samples(s, phi, 1, 1)


_UNIFORMIZED_BASES = {
    "wps23": lambda: eq.wps_profile(2, 3),
    "wps12": lambda: eq.wps_profile(1, 2),
    "wps19": lambda: eq.wps_profile(1, 9),
    "wps1_20": lambda: eq.wps_profile(1, 20),  # the Poisson basis reaches 256 modes
    "bump": lambda: bump_sphere(0.2),
    "sampled": _sampled_bump_profile,
}


@pytest.mark.parametrize("kind", sorted(_UNIFORMIZED_BASES))
def test_uniformized_min_scal_is_the_closed_form(kind):
    # the new curvature is (4 pi chi / vol) e^{-2u}, least where u peaks
    base = _UNIFORMIZED_BASES[kind]()
    u, min_scal = eq.uniformize_positive(base)
    u_max = np.max(u.value(np.linspace(0.0, base.length, 4001)))
    closed = 4.0 * math.pi * eq.chi_orb(base) / eq.area(base) * math.exp(-2.0 * u_max)
    assert min_scal == pytest.approx(closed, rel=2e-8)


def test_uniformize_rejects_torus():
    with pytest.raises(NonpositiveChi):
        eq.uniformize_positive(eq.FlatTorusBase(length=1.0, radius=1.0))


# ---------------------------------------------------------------------------
# minimize_conformal
# ---------------------------------------------------------------------------

def test_minimize_hopf(hopf):
    result = eq.minimize_conformal(
        hopf, u0=lambda s: 1.0 + 0.3 * np.cos(2.0 * np.pi * s / hopf.base.length)
    )
    assert result.converged
    assert result.mu_upper == pytest.approx(SIGMA_S3, rel=1e-3)
    u = result.u_star.value(np.linspace(0.0, hopf.base.length, 201))
    osc = (np.max(u) - np.min(u)) / np.mean(u)
    assert osc <= 1e-3
    assert np.all(np.diff(result.trace) <= 1e-12)


def test_minimize_berger_stays_below_start():
    metric = eq.InvariantMetric(
        base=eq.make_round_sphere(0.5),
        ell=eq.RadialField.const(0.5),
        F=eq.RadialField.const(2.0),
    )
    result = eq.minimize_conformal(metric)
    # constant-curvature start is the critical point: value equals the
    # closed form up to the quadrature of the final iterate
    assert result.mu_upper <= BERGER_HALF_J + 1e-6
    assert np.all(np.diff(result.trace) <= 1e-12)


def test_minimize_torus_sandwich(torus_metric):
    upper, lower = eq.collapse_bounds(torus_metric.base, torus_metric.F, 0.1)
    metric = eq.InvariantMetric(
        base=torus_metric.base, ell=eq.RadialField.const(0.1), F=torus_metric.F
    )
    result = eq.minimize_conformal(metric, eq.MinimizerConfig(max_modes=128))
    assert lower - 1e-9 <= result.mu_upper <= upper + 1e-9


def test_minimize_trace_starts_at_constant_value(hopf):
    result = eq.minimize_conformal(hopf)
    # started at u = 1: discrete trace never rises above its first entry
    assert result.trace[-1] <= result.trace[0] + 1e-12
    assert result.mu_upper <= eq.conformal_functional(hopf, 1.0) + 1e-6


def test_minimize_invariant_under_initial_scaling(hopf):
    cfg = eq.MinimizerConfig(max_modes=128)
    r1 = eq.minimize_conformal(hopf, cfg, u0=lambda s: 1.0 + 0.2 * np.cos(4.0 * s))
    r2 = eq.minimize_conformal(hopf, cfg, u0=lambda s: 5.0 * (1.0 + 0.2 * np.cos(4.0 * s)))
    assert r1.mu_upper == pytest.approx(r2.mu_upper, abs=1e-6 * abs(r1.mu_upper))


def _perturbed_start(metric):
    L = metric.base.length
    if metric.base.periodic:
        return lambda s: 1.0 + 0.1 * np.cos(2.0 * np.pi * s / L) + 0.05 * np.sin(4.0 * np.pi * s / L)
    return lambda s: 1.0 + 0.2 * np.cos(np.pi * s / L) - 0.1 * np.cos(2.0 * np.pi * s / L)


_DESCENT_METRICS = {
    "hopf": lambda: eq.hopf_metric(),
    "wps23": lambda: eq.wps_metric(2, 3),
    "torus": lambda: eq.InvariantMetric(
        base=eq.FlatTorusBase(length=1.0, radius=1.0),
        ell=eq.RadialField.const(0.3),
        F=eq.RadialField.const(1.0),
    ),
}


@pytest.mark.parametrize("kind", sorted(_DESCENT_METRICS))
def test_minimize_iterations_do_not_grow_with_grid(kind):
    # Newton steps, shifted or not, are mesh independent;
    # plain L2-gradient descent needs more iterations on every refinement
    # (hopf from this start: 666 at n = 100, 10378 at n = 800)
    metric = _DESCENT_METRICS[kind]()
    counts = []
    for n in (100, 200, 400, 800):
        result = eq.minimize_conformal(
            metric, eq.MinimizerConfig(max_modes=n), u0=_perturbed_start(metric)
        )
        assert result.converged
        assert np.all(np.diff(result.trace) <= 1e-12)
        counts.append(len(result.trace) - 1)
    assert len(set(counts)) == 1, counts
    assert counts[0] <= 20


def test_minimizer_config_names_its_bounds():
    with pytest.raises(ValueError, match="max_modes must be >= 8"):
        eq.MinimizerConfig(max_modes=5)
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        eq.MinimizerConfig(max_iterations=0)
    eq.MinimizerConfig(max_modes=8, max_iterations=1)


def _galerkin(metric):
    """The last stage the minimizer descended on: its basis, node data and
    matrices."""
    return eq.minimize_conformal(metric)._stage


@pytest.mark.parametrize("kind", sorted(_DESCENT_METRICS))
def test_h1_gram_matrix_is_symmetric_positive_definite(kind):
    # H is the Gram matrix of the basis in the H^1 inner product, the shift
    # of the descent's Newton matrix
    _, H = _galerkin(_DESCENT_METRICS[kind]()).forms
    assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
    assert np.min(np.linalg.eigvalsh(H)) > 0.0


@pytest.mark.parametrize("kind", ["wps23", "torus"])
def test_coefficient_gradient_matches_the_discrete_functional(kind):
    stage = _galerkin(_DESCENT_METRICS[kind]())
    B, W, (A, _) = stage.basis.values, stage.W, stage.forms
    assert B.shape[1] == 16
    rng = np.random.default_rng(11)
    c = np.zeros(16)
    c[0] = 1.0
    c[1:] = 0.02 * rng.normal(size=15)
    for d in rng.normal(size=(3, 16)):
        def J(t):
            return conformal._energy(B, A, W, c + t * d)[0]

        def dJ(t):
            _, num, den, _, wu5 = conformal._energy(B, A, W, c + t * d)
            return float(conformal._gradient(B, A, c + t * d, num, den, wu5) @ d)

        assert check_derivative(J, dJ, 0.0, [1e-4, 1e-5]) <= 1e-6


def test_basis_is_read_only_and_shared_per_length():
    # hopf and wps(2,3) have length pi/2: one basis serves both
    hopf, wps = eq.hopf_metric(), eq.wps_metric(2, 3)
    assert hopf.base.length == wps.base.length
    basis = conformal._basis(hopf.base.length, False, 16)
    assert conformal._basis(wps.base.length, False, 16) is basis
    assert conformal._basis(hopf.base.length, False, 32) is not basis
    for array in (basis.values, basis.slopes):
        assert array.shape == (orbifold._rule(hopf.base, 512)[0].size, 16)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def test_minimize_trace_is_monotone_across_basis_doublings():
    result = eq.minimize_conformal(eq.wps_metric(1, 9))
    assert result.modes == 64  # from 16
    assert result.converged and result.stop_reason == "tolerance"
    assert np.all(np.diff(result.trace) <= 1e-12)
    assert result.mu_upper <= result.trace[0]


def test_minimize_budget_exhausted(hopf):
    result = eq.minimize_conformal(
        hopf, eq.MinimizerConfig(max_iterations=1), u0=_perturbed_start(hopf)
    )
    assert not result.converged
    assert result.stop_reason == "budget"
    assert result.trace.size == 2
    assert result.trace[1] < result.trace[0]


def test_minimize_reports_why_it_stopped(hopf):
    # the constant factor is the critical point on the round sphere
    result = eq.minimize_conformal(hopf)
    assert (result.stop_reason, result.modes, result.trace.size) == ("tolerance", 16, 1)
    assert eq.minimize_conformal(hopf, eq.MinimizerConfig(max_modes=8)).modes == 8


def test_minimize_reads_array_u0_as_endpoint_samples(hopf):
    # an array start is the callable start sampled on linspace(0, L, n)
    start = _perturbed_start(hopf)
    grid = np.linspace(0.0, hopf.base.length, 65)
    from_array = eq.minimize_conformal(hopf, u0=start(grid))
    from_callable = eq.minimize_conformal(hopf, u0=start)
    assert from_array.trace[0] == pytest.approx(from_callable.trace[0], rel=1e-13)
    assert from_array.mu_upper == pytest.approx(from_callable.mu_upper, rel=1e-12)


def test_minimize_rejects_a_nonpositive_start(hopf):
    with pytest.raises(NonPositiveFactor):
        eq.minimize_conformal(hopf, u0=lambda s: np.cos(4.0 * s))


def test_torus_minimizer_series_is_periodic():
    # mu_upper evaluates a Fourier series, whose samples on the endpoint grid
    # close up at the seam and read back as the same field
    metric = _DESCENT_METRICS["torus"]()
    u0 = lambda s: 1.0 + 0.2 * np.sin(2.0 * np.pi * s)  # noqa: E731
    result = eq.minimize_conformal(metric, eq.MinimizerConfig(max_iterations=1), u0=u0)
    grid = np.linspace(0.0, metric.base.length, 201)
    u = result.u_star.value(grid)
    assert np.ptp(u) > 1e-3
    assert abs(u[0] - u[-1]) <= 1e-12
    field = eq.RadialField.from_samples(u, metric.base.length, periodic=True)
    assert eq.conformal_functional(metric, field) == pytest.approx(result.mu_upper, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(_DESCENT_METRICS))
def test_u_star_is_the_series_mu_upper_evaluates(kind):
    metric = _DESCENT_METRICS[kind]()
    result = eq.minimize_conformal(metric, u0=_perturbed_start(metric))
    assert isinstance(result.u_star, eq.RadialField)
    # the library quadrature of the same series agrees to rounding
    assert eq.conformal_functional(metric, result.u_star) == pytest.approx(result.mu_upper, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(_DESCENT_METRICS))
def test_u_star_is_built_once_from_the_kept_coefficients(kind):
    # u_star is built on first read, is the same object on every read, and is
    # bit for bit the series of the last stage's basis and coefficients
    metric = _DESCENT_METRICS[kind]()
    result = eq.minimize_conformal(metric, u0=_perturbed_start(metric))
    assert "u_star" not in vars(result)
    u_star = result.u_star
    assert result.u_star is u_star and isinstance(u_star, eq.RadialField)
    stage = result._stage
    reference = stage.basis.series(result._coeffs)
    grid = np.linspace(0.0, metric.base.length, 257)
    for got, want in zip((u_star.value, u_star.d1, u_star.d2),
                         (reference.value, reference.d1, reference.d2)):
        for s in (stage.nodes, grid):
            assert got(s).tobytes() == want(s).tobytes()
    # a result equals only itself, and comparing two never reaches the trace array
    again = eq.minimize_conformal(metric, u0=_perturbed_start(metric))
    assert result == result and (result == again) is False
    assert again.trace.tobytes() == result.trace.tobytes()


def test_minimize_rejects_data_out_of_scale():
    # ell^2 overflows in the scalar curvature: an error before the first
    # step, with no numpy warning (pytest turns RuntimeWarning into errors)
    metric = eq.InvariantMetric(eq.FlatTorusBase(length=1.0, radius=1.0), 1e300, 1.0)
    with pytest.raises(NumericalError, match="scalar curvature at the Galerkin nodes"):
        eq.minimize_conformal(metric)


def test_a_stage_whose_start_j_is_not_finite_is_refused():
    # ell = 1e100 and F = 1e5 on the unit sphere: the node weights and the
    # scalar curvature are finite, but the stage's matrices overflow, so J
    # at the start is not a number, on which no stop test could pass
    metric = eq.InvariantMetric(eq.make_round_sphere(1.0), 1e100, 1e5)
    with pytest.raises(NumericalError, match="discrete functional J is not finite"):
        eq.minimize_conformal(metric)


def test_a_singular_newton_matrix_falls_back_to_the_first_shift(monkeypatch):
    # a solve that fails for the unshifted Newton matrix N of the first
    # step: the descent tries N + H (lam = 1) and still meets its stop test
    metric = eq.wps_metric(2, 3)
    expected = eq.minimize_conformal(metric)
    real_solve, matrices = np.linalg.solve, []

    def solve(a, b):
        matrices.append(a)
        if len(matrices) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    result = eq.minimize_conformal(metric)
    first = conformal._stage(metric, 16, 128)
    assert np.array_equal(matrices[1], matrices[0] + first.forms[1])
    assert (result.stop_reason, result.converged) == ("tolerance", True)
    assert np.all(np.diff(result.trace) <= 0.0)
    assert result.mu_upper == pytest.approx(expected.mu_upper, rel=1e-12)


def test_a_factor_negative_between_the_stage_nodes_is_refused():
    # 256 modes on the 127 nodes of level 128: a combination v whose values
    # and slopes vanish at every node leaves J and its estimate as they are
    # for u = 1, but is read between the nodes, at level 512
    metric = eq.hopf_metric()
    base = metric.base
    stage = conformal._stage(metric, 256, 128)
    v = np.linalg.svd(np.vstack([stage.basis.values, stage.basis.slopes]))[2][-1]
    between = conformal._basis(base.length, base.periodic, 256, 512).values @ v
    c = -2.0 * v / between.min()  # -1 at the deepest point between the nodes
    c[0] += 1.0
    assert (stage.basis.values @ c > 0.0).all()
    with pytest.raises(NonPositiveFactor, match="strictly positive"):
        conformal._read_off(metric, stage, c)


# mu_upper against the cell-centred finite-difference minimizer at n cells
# (its value converges as n^-2), measured with decrease_tol = 1e-14
_CELL_VALUES = {
    "wps23": 30.68751608156943,  # n = 3200
    "hopf_ell": 39.09679741435538,  # n = 3200, ell = 1 + 0.3 cos 4s
}


def _hopf_with_varying_ell():
    hopf = eq.hopf_metric()
    ell = eq.RadialField(
        lambda s: 1.0 + 0.3 * np.cos(4.0 * s),
        lambda s: -1.2 * np.sin(4.0 * s),
        lambda s: -4.8 * np.cos(4.0 * s),
    )
    return eq.InvariantMetric(hopf.base, ell, hopf.F)


_GATE_METRICS = {"wps23": lambda: eq.wps_metric(2, 3), "hopf_ell": _hopf_with_varying_ell}


@pytest.mark.parametrize("kind", sorted(_GATE_METRICS))
def test_minimize_beats_the_finest_cell_grid(kind, monkeypatch):
    metric = _GATE_METRICS[kind]()
    cfg = eq.MinimizerConfig(decrease_tol=1e-14)
    result = eq.minimize_conformal(metric, cfg)
    assert result.mu_upper <= _CELL_VALUES[kind] * (1.0 + 1e-13)
    # a basis of twice the size changes nothing at this tolerance
    monkeypatch.setattr(conformal, "_TAIL_TOL", 0.0)  # double up to the cap
    doubled = eq.minimize_conformal(metric, dataclasses.replace(cfg, max_modes=2 * result.modes))
    assert doubled.modes == 2 * result.modes
    assert abs(doubled.mu_upper - result.mu_upper) <= 1e-13 * result.mu_upper


def test_minimize_wps_1_9_beats_the_cell_grid_at_the_defaults():
    # the n = 800 cell value; the basis grows from 16 to 64 modes
    assert eq.minimize_conformal(eq.wps_metric(1, 9)).mu_upper <= 22.188576563317


# mu_upper of the Sobolev descent that preceded the Newton steps, at the
# defaults from the constant start; Newton converges past where it stopped
_DESCENT_MU_UPPER = {
    "hopf": (lambda: eq.hopf_metric(), 43.82323271625066),
    "wps23": (lambda: eq.wps_metric(2, 3), 30.687516081905418),
    "wps12": (lambda: eq.wps_metric(1, 2), 39.54694379490317),
    "wps13": (lambda: eq.wps_metric(1, 3), 35.23174256891452),
    "wps15": (lambda: eq.wps_metric(1, 5), 29.135582494010865),
    "wps19": (lambda: eq.wps_metric(1, 9), 22.188576558106874),
    "wps120": (lambda: eq.wps_metric(1, 20), 14.313760363420169),
    "wps160": (lambda: eq.wps_metric(1, 60), 7.278545787766445),
    "torus": (_DESCENT_METRICS["torus"], -0.2338118445443127),
}


@pytest.mark.parametrize("kind", sorted(_DESCENT_MU_UPPER))
def test_mu_upper_is_read_off_the_galerkin_grid(kind):
    # no higher than the descent's value; the library quadrature of the same
    # series agrees, and the nested estimate meets the default tolerance
    make, descent = _DESCENT_MU_UPPER[kind]
    metric = make()
    result = eq.minimize_conformal(metric)
    assert result.converged
    assert result.mu_upper <= descent + 1e-12 * abs(descent)
    cfg = numerics.QuadratureConfig()
    assert result.error_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(result.mu_upper))
    value = eq.conformal_functional(metric, result.u_star)
    assert value == pytest.approx(result.mu_upper, rel=1e-12)


@pytest.mark.parametrize("kind", ["hopf", "wps23", "wps19"])
def test_newton_matrix_has_one_negative_eigenvalue_at_the_solution(kind):
    # N = A - 5 mu B^T diag(W u^4) B, mu the multiplier of u at the nodes:
    # its one negative direction is the scaling of u, so each solution is a
    # local minimum of J among radial factors
    result = eq.minimize_conformal(_DESCENT_MU_UPPER[kind][0]())
    stage = result._stage
    (A, _), B, W = stage.forms, stage.basis.values, stage.W
    u, du = result.u_star.value(stage.nodes), result.u_star.d1(stage.nodes)
    mu = np.dot(W, 8.0 * du**2 + stage.scal * u**2) / np.dot(W, u**6)
    N = A - 5.0 * mu * (B.T * (W * u**4)) @ B
    assert np.count_nonzero(np.linalg.eigvalsh(N) < 0.0) == 1


@pytest.mark.parametrize("kind, steps", [("wps19", 10), ("wps160", 15)])
def test_newton_steps_do_not_grow_with_lopsided_weights(kind, steps):
    # the Sobolev descent alone took 124 steps on wps(1,9) and 1910 on
    # wps(1,60); the count is deterministic
    metric = _DESCENT_MU_UPPER[kind][0]()
    first, again = eq.minimize_conformal(metric), eq.minimize_conformal(metric)
    # wps(1,60) stops at the default cap of 128 modes, its tail not negligible
    assert first.stop_reason == ("basis_cap" if kind == "wps160" else "tolerance")
    assert len(first.trace) - 1 <= steps
    assert first.trace.tolist() == again.trace.tolist()
    assert np.all(np.diff(first.trace) <= 0.0)


def _cosine_start(s):
    return 1.0 + 0.2 * np.cos(2.0 * s)


@pytest.mark.parametrize(
    "make", [lambda: eq.wps_metric(2, 3), lambda: eq.hopf_metric(2.5)], ids=["wps23", "hopf25"]
)
def test_minimize_stops_when_no_step_lowers_j(make):
    # a tolerance below any reachable predicted decrease: the ladder of
    # shifts runs out at the rounding of J, at the default tolerance's value
    metric = make()
    cfg = eq.MinimizerConfig(decrease_tol=1e-300)
    result = eq.minimize_conformal(metric, cfg, u0=_cosine_start)
    default = eq.minimize_conformal(metric, u0=_cosine_start)
    assert result.stop_reason == "no_decrease" and result.converged
    assert np.all(np.diff(result.trace) <= 0.0)
    assert result.mu_upper == pytest.approx(default.mu_upper, rel=1e-12)


def test_minimize_reaches_a_zero_yamabe_value():
    # the Berger sphere of ell = 2 has scal = 8 - 2 ell^2 = 0: the constant
    # factor gives J = 0, and the multiplier mu = J goes to zero on the way
    metric = eq.hopf_metric(2.0)
    result = eq.minimize_conformal(metric, u0=_cosine_start)
    assert result.stop_reason == "tolerance"
    assert abs(result.mu_upper) <= 1e-12 * result.trace[0]


# Five perturbed starts u0 = 1 + 0.5 sum_j a_j cos(j pi s / L), j = 1..4, a_j
# uniform in [-0.5, 0.5] (numpy default_rng(0), drawn in this order), on each
# metric, with the mu_upper that Newton steps with an Armijo/Sobolev fallback
# reached from each start, in 251 steps in all; shifted Newton steps take 238
_PERTURBED_FAMILY = {
    "hopf(2.5)": (lambda: eq.hopf_metric(2.5), [
        -60.54231363709324, -60.54231363709325, -60.54231363709323, -60.54231363709322,
        -60.5423136370771]),
    "wps(2,3)": (lambda: eq.wps_metric(2, 3), [
        30.687516082041775, 30.687516081569374, 30.687516081571644, 30.68751608159952,
        30.68751608156971]),
    "wps(2,3) ell 4": (lambda: eq.wps_metric(2, 3, 4.0), [
        20.512514405940294, 20.512514405856862, 20.512514405856866, 20.51251440603961,
        20.51251440585687]),
    "wps(1,2)": (lambda: eq.wps_metric(1, 2), [
        39.54694379434451, 39.546943795259246, 39.54694379434394, 39.546943794344024,
        39.54694379434393]),
    "wps(1,9)": (lambda: eq.wps_metric(1, 9), [
        22.188576557929068, 22.188576557929068, 22.188576557929064, 22.188576557929068,
        22.188576557929068]),
    "wps(1,9) ell 0.2": (lambda: eq.wps_metric(1, 9, 0.2), [
        7.894361808123185, 7.894361808123185, 7.894361808123185, 7.894361808123184,
        7.894361808123185]),
    "wps(1,20)": (lambda: eq.wps_metric(1, 20), [
        14.313760363381812, 14.313760363381812, 14.313760363381814, 14.313760363381814,
        14.313760363381814]),
    "wps(1,60)": (lambda: eq.wps_metric(1, 60), [
        7.278545787657318, 7.278545787657318, 7.278545787657318, 7.278545787657318,
        7.278545787657318]),
}


def test_perturbed_starts_converge_in_no_more_steps():
    rng = np.random.default_rng(0)
    steps = 0
    for name, (make, pinned) in _PERTURBED_FAMILY.items():
        metric = make()
        L = metric.base.length
        for i, previous in enumerate(pinned):
            a = rng.uniform(-0.5, 0.5, 4)
            u0 = lambda s, a=a: 1.0 + 0.5 * sum(  # noqa: E731
                a[j] * np.cos((j + 1) * np.pi * s / L) for j in range(4)
            )
            result = eq.minimize_conformal(metric, u0=u0)
            # wps(1,60) stops at the default cap of 128 modes
            capped = "basis_cap" if name == "wps(1,60)" else "tolerance"
            assert result.stop_reason == capped, (name, i)
            assert np.all(np.diff(result.trace) <= 0.0), (name, i)
            assert result.mu_upper <= previous + 1e-12 * abs(previous), (name, i)
            steps += len(result.trace) - 1
    assert steps <= 238


def _stage_counts(monkeypatch):
    """The levels at which a run evaluates its node data, and the (level,
    modes) of each stage whose matrices it forms."""
    levels, formed = [], []
    scalar_curvature, forms = bundle._scalar_curvature, conformal._Stage.forms.func

    def counting(metric, s, *values):
        levels.append(s.size + 1)
        return scalar_curvature(metric, s, *values)

    def counting_forms(stage):
        formed.append((stage.level, stage.basis.values.shape[1]))
        return forms(stage)

    counted = functools.cached_property(counting_forms)
    counted.__set_name__(conformal._Stage, "forms")
    monkeypatch.setattr(bundle, "_scalar_curvature", counting)
    monkeypatch.setattr(conformal._Stage, "forms", counted)
    return levels, formed


def test_mu_upper_level_doubles_until_its_estimate_meets_the_tolerance(monkeypatch):
    # wps(1,2) runs on level 128, where |J_128 - J_64| = 1.4e-14; a tolerance
    # below that reads J off levels 256 and 512; on wps(1,9), from level 256,
    # no level up to 1024 meets a tolerance of 1e-300.  Each level's node
    # data is evaluated once per metric, which keeps it, and the matrices
    # once per stage descended on, never on a level read off alone
    levels, formed = _stage_counts(monkeypatch)
    metric = eq.wps_metric(1, 2)
    default = eq.minimize_conformal(metric)
    assert levels == [128]
    assert formed == [(128, 16)]
    tight = numerics.QuadratureConfig(abs_tol=1e-300, rel_tol=1e-16)
    monkeypatch.setattr(conformal, "_DEFAULT_CONFIG", tight)
    levels.clear()
    formed.clear()
    result = eq.minimize_conformal(metric)
    assert levels == [256, 512]  # level 128's data is the metric's since the first run
    assert formed == [(128, 16)]
    assert result.error_estimate <= 1e-16 * result.mu_upper
    assert result.mu_upper == pytest.approx(default.mu_upper, rel=1e-15)
    never = numerics.QuadratureConfig(max_refinements=2, abs_tol=1e-300, rel_tol=1e-300)
    monkeypatch.setattr(conformal, "_DEFAULT_CONFIG", never)
    levels.clear()
    formed.clear()
    with pytest.raises(NoConvergence, match="after 2 refinements"):
        eq.minimize_conformal(eq.wps_metric(1, 9))
    assert levels == [128, 256, 512, 1024]
    assert formed == [(128, 16), (128, 32), (256, 64)]


def test_result_keeps_the_stage_it_descended_on():
    # the stage's basis is the shared one of its level, on the plan's node
    # array, with its matrices formed; the stage stays out of the repr and
    # of comparisons
    metric = eq.wps_metric(1, 9)
    result = eq.minimize_conformal(metric)
    stage, base = result._stage, metric.base
    assert (result.modes, stage.level) == (64, 256)
    assert stage.basis is conformal._basis(base.length, base.periodic, 64, 256)
    assert stage.nodes is orbifold._rule(base, 256)[0]
    assert "forms" in vars(stage)
    spec = {f.name: f for f in dataclasses.fields(result)}["_stage"]
    assert not (spec.repr or spec.compare)
    assert "_stage" not in repr(result)


def test_results_repeat_bit_for_bit_across_cache_eviction():
    # integrals on 200 new intervals leave the base's plan as it was, so
    # every result on the base repeats bit for bit after them; each run
    # builds a new metric, whose fields' norms are computed afresh
    base = eq.wps_profile(2, 3)

    def run():
        metric = eq.wps_metric(2, 3)
        norms = eq.omega_norms(metric)
        result = eq.minimize_conformal(metric)
        _, min_scal = eq.uniformize_positive(base)
        value = eq.conformal_functional(metric, result.u_star)
        numbers = [getattr(norms, f.name) for f in dataclasses.fields(norms)]
        numbers += [result.mu_upper, result.error_estimate, min_scal, value]
        return [x.hex() for x in numbers], repr(eq.functional_J(metric))

    first = run()
    for k in range(200):
        numerics.integrate(np.sin, 0.0, 1.0 + k * 1e-3)
    assert run() == first


@pytest.mark.parametrize(
    "metric, max_modes, reason, mu",
    [((1, 60), 128, "basis_cap", 7.278545787657317), ((1, 200), 128, "basis_cap", 3.329711644912476),
     ("hopf", 128, "tolerance", None), ((2, 3), 128, "tolerance", None), ("hopf", 8, "tolerance", None)],
    ids=["wps160", "wps1200", "hopf", "wps23", "hopf8"],
)
def test_a_run_stopped_by_the_basis_cap_says_so(metric, max_modes, reason, mu):
    # the tail of wps(1,60) and wps(1,200) is not negligible at 128 modes, the
    # default cap: the run still converges, with the same mu_upper, but says
    # the basis did not resolve u*
    metric = eq.hopf_metric() if metric == "hopf" else eq.wps_metric(*metric)
    result = eq.minimize_conformal(metric, conformal.MinimizerConfig(max_modes=max_modes))
    assert result.stop_reason == reason and result.converged
    if mu is not None:
        assert result.modes == 128 and result.mu_upper == pytest.approx(mu, rel=1e-12)
