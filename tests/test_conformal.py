"""Poisson solves, uniformization, and the conformal minimizer."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import eqyamabe as eq
import eqyamabe.conformal as conformal
from eqyamabe.conformal import RadialFunction, laplace_residual
from eqyamabe import numerics, orbifold
from eqyamabe.errors import NonPositiveFactor, NonpositiveChi, NotMeanZero

from conftest import BERGER_HALF_J, SIGMA_S3, bump_sphere


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
    f = RadialFunction(grid=grid, values=np.zeros_like(grid))
    u = eq.laplace_solve_radial(half_sphere, f)
    assert np.max(np.abs(u.values)) <= 1e-14


def test_axial_harmonic_eigenfunction(half_sphere):
    # first axial harmonic on the half-radius sphere: eigenvalue 2/R^2 = 8
    lam = _eigenvalue_oracle(half_sphere)
    assert lam == pytest.approx(8.0, rel=1e-3)
    grid = np.linspace(0.0, half_sphere.length, 4001)
    f = RadialFunction(grid=grid, values=np.cos(2.0 * grid))
    u = eq.laplace_solve_radial(half_sphere, f)
    assert np.max(np.abs(u.values - f.values / 8.0)) <= 1e-6


def test_nonzero_mean_rejected(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 2001)
    f = RadialFunction(grid=grid, values=np.ones_like(grid))
    with pytest.raises(NotMeanZero):
        eq.laplace_solve_radial(half_sphere, f)


def _centered(base, grid, vals):
    # subtract the area-weighted mean so the data is admissible
    w = np.asarray(base.phi(grid))
    return RadialFunction(
        grid=grid, values=vals - np.trapezoid(vals * w, grid) / np.trapezoid(w, grid)
    )


def test_residual_bound_random_data(half_sphere):
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, half_sphere.length, 4001)
    for _ in range(5):
        coeffs = rng.normal(scale=1.0, size=3)
        vals = sum(
            c * np.cos(2.0 * (k + 1) * grid) for k, c in enumerate(coeffs)
        )
        f = _centered(half_sphere, grid, np.asarray(vals))
        u = eq.laplace_solve_radial(half_sphere, f)
        resid = laplace_residual(half_sphere, u, f)
        assert resid <= 1e-6 * max(1.0, float(np.max(np.abs(f.values))))


def test_solution_mean_is_zero(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 4001)
    f = RadialFunction(grid=grid, values=np.cos(2.0 * grid))
    u = eq.laplace_solve_radial(half_sphere, f)
    w = np.asarray(half_sphere.phi(u.grid))
    mean = np.trapezoid(u.values * w, u.grid) / np.trapezoid(w, u.grid)
    assert abs(mean) <= 1e-10


def test_solver_linearity(half_sphere):
    grid = np.linspace(0.0, half_sphere.length, 2001)
    f1 = RadialFunction(grid=grid, values=np.cos(2.0 * grid))
    f2 = _centered(half_sphere, grid, np.cos(4.0 * grid))
    combo = RadialFunction(
        grid=f1.grid, values=2.5 * f1.values - 1.25 * f2.values
    )
    u1 = eq.laplace_solve_radial(half_sphere, f1)
    u2 = eq.laplace_solve_radial(half_sphere, f2)
    uc = eq.laplace_solve_radial(half_sphere, combo)
    assert np.max(np.abs(uc.values - (2.5 * u1.values - 1.25 * u2.values))) <= 1e-9


def test_solver_rejects_a_non_uniform_grid(half_sphere):
    grid = half_sphere.length * np.linspace(0.0, 1.0, 2001) ** 2
    with pytest.raises(ValueError):
        eq.laplace_solve_radial(half_sphere, RadialFunction(grid=grid, values=np.cos(2.0 * grid)))


def test_torus_solver():
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    grid = np.linspace(0.0, 1.0, 2001)
    f = RadialFunction(grid=grid, values=np.cos(2.0 * np.pi * grid))
    u = eq.laplace_solve_radial(base, f)
    # Delta u = -u'' = f has solution f / (2 pi)^2
    assert np.max(np.abs(u.values - f.values / (2.0 * np.pi) ** 2)) <= 1e-8
    # the sine columns of the Fourier basis
    sine, cosine = np.sin(2.0 * np.pi * grid), np.cos(4.0 * np.pi * grid)
    u = eq.laplace_solve_radial(base, RadialFunction(grid=grid, values=sine + cosine))
    exact = sine / (2.0 * np.pi) ** 2 + cosine / (4.0 * np.pi) ** 2
    assert np.max(np.abs(u.values - exact)) <= 1e-10


def _basis_sizes(monkeypatch):
    sizes = []
    basis = conformal._basis

    def counting(length, periodic, m):
        sizes.append(m)
        return basis(length, periodic, m)

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
        assert min_scal == pytest.approx(closed * math.exp(-2.0 * np.max(u.values)), rel=1e-12)


def test_poisson_basis_stops_at_half_the_node_count(monkeypatch):
    # past 256 modes, half the Galerkin grid's level 512 (its 511 interior
    # nodes), the stiffness products alias
    sizes = _basis_sizes(monkeypatch)
    monkeypatch.setattr(conformal, "_TAIL_TOL", 0.0)
    u, min_scal = eq.uniformize_positive(eq.wps_profile(2, 3))
    assert sizes == [16, 32, 64, 128, 256]
    assert 2 * sizes[-1] == conformal._grid(eq.wps_profile(2, 3))[0].size + 1 == 512
    assert min_scal > 0.0


def test_galerkin_grid_is_a_level_of_the_quadrature_rule():
    # level 512 of the nested Fejér rule: the first-level nodes of
    # `integrate` are every fourth node, bit for bit
    base = eq.wps_profile(2, 3)
    nodes, weights = conformal._grid(base)
    first = orbifold.quadrature_nodes(base)
    assert nodes.size == weights.size == 511
    assert np.array_equal(nodes[3::4], first)
    assert not (nodes.flags.writeable or weights.flags.writeable)
    assert conformal._grid(eq.wps_profile(1, 9))[0] is nodes  # one array per length
    assert math.fsum(weights) == pytest.approx(base.length, rel=1e-14)
    assert np.dot(weights, np.cos(nodes)) == pytest.approx(math.sin(base.length), rel=1e-14)


def test_minimizer_basis_stops_at_half_the_grid_level():
    # past 256 modes the Galerkin matrices alias on the 511 nodes; a larger
    # grid_size caps nothing more
    metric = eq.wps_metric(1, 60)
    default = eq.minimize_conformal(metric, eq.MinimizerConfig(grid_size=200))
    assert default.modes == 128
    for grid_size in (512, 2048):
        result = eq.minimize_conformal(metric, eq.MinimizerConfig(grid_size=grid_size))
        assert (result.modes, result.stop_reason) == (256, "tolerance")
        assert result.mu_upper <= default.mu_upper


def test_one_rule_doubles_both_bases(monkeypatch):
    # the minimizer and the Poisson solve ask the same helper whether to double
    sizes = _basis_sizes(monkeypatch)
    monkeypatch.setattr(conformal, "_refinable", lambda c, cap, floor=0.0: False)
    assert eq.minimize_conformal(eq.wps_metric(1, 9)).modes == 16
    eq.uniformize_positive(eq.wps_profile(1, 9))
    assert sizes == [16, 16]


# ---------------------------------------------------------------------------
# uniformize_positive
# ---------------------------------------------------------------------------

def test_uniformize_round_sphere_is_identity(half_sphere):
    u, min_scal = eq.uniformize_positive(half_sphere)
    assert np.max(np.abs(u.values)) <= 1e-8
    assert min_scal == pytest.approx(8.0, rel=1e-6)


def _uniformize_identity_error(base):
    u, min_scal = eq.uniformize_positive(base)
    assert min_scal > 0.0
    chi = eq.chi_orb(base)
    vol = eq.area(base)
    target = 4.0 * math.pi * chi / vol
    grid = u.grid
    mask = (grid > 0.05 * base.length) & (grid < 0.95 * base.length)
    phi = np.asarray(base.phi(grid[mask]))
    from scipy.interpolate import CubicSpline

    sp = CubicSpline(grid, u.values)
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
    u, _ = eq.uniformize_positive(bump_sphere(0.2))
    c = np.abs(np.fft.rfft(np.concatenate([u.values, u.values[-2:0:-1]])))
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
    closed = 4.0 * math.pi * eq.chi_orb(base) / eq.area(base) * math.exp(-2.0 * np.max(u.values))
    assert min_scal == pytest.approx(closed, rel=2e-8)


def test_uniformize_rejects_torus():
    with pytest.raises(NonpositiveChi):
        eq.uniformize_positive(eq.FlatTorusBase(length=1.0, radius=1.0))


# ---------------------------------------------------------------------------
# minimize_conformal
# ---------------------------------------------------------------------------

def test_minimize_hopf(hopf):
    cfg = eq.MinimizerConfig(grid_size=200)
    result = eq.minimize_conformal(
        hopf, cfg, u0=lambda s: 1.0 + 0.3 * np.cos(2.0 * np.pi * s / hopf.base.length)
    )
    assert result.converged
    assert result.mu_upper == pytest.approx(SIGMA_S3, rel=1e-3)
    osc = (np.max(result.u_star.values) - np.min(result.u_star.values)) / np.mean(
        result.u_star.values
    )
    assert osc <= 1e-3
    assert np.all(np.diff(result.trace) <= 1e-12)


def test_minimize_berger_stays_below_start():
    metric = eq.InvariantMetric(
        base=eq.make_round_sphere(0.5),
        ell=eq.RadialField.const(0.5),
        F=eq.RadialField.const(2.0),
    )
    result = eq.minimize_conformal(metric, eq.MinimizerConfig(grid_size=200))
    # constant-curvature start is the critical point: value equals the
    # closed form up to the continuum re-evaluation of the final iterate
    assert result.mu_upper <= BERGER_HALF_J + 1e-6
    assert np.all(np.diff(result.trace) <= 1e-12)


def test_minimize_torus_sandwich(torus_metric):
    upper, lower = eq.collapse_bounds(torus_metric.base, torus_metric.F, 0.1)
    metric = eq.InvariantMetric(
        base=torus_metric.base, ell=eq.RadialField.const(0.1), F=torus_metric.F
    )
    result = eq.minimize_conformal(metric, eq.MinimizerConfig(grid_size=128))
    assert lower - 1e-9 <= result.mu_upper <= upper + 1e-9


def test_minimize_trace_starts_at_constant_value(hopf):
    result = eq.minimize_conformal(hopf, eq.MinimizerConfig(grid_size=200))
    # started at u = 1: discrete trace never rises above its first entry
    assert result.trace[-1] <= result.trace[0] + 1e-12
    assert result.mu_upper <= eq.conformal_functional(hopf, 1.0) + 1e-6


def test_minimize_invariant_under_initial_scaling(hopf):
    cfg = eq.MinimizerConfig(grid_size=128)
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
    # the H^1-preconditioned step is mesh independent; plain L2-gradient
    # descent needs more iterations on every refinement (hopf from this
    # start: 666 at n = 100, 10378 at n = 800)
    metric = _DESCENT_METRICS[kind]()
    counts = []
    for n in (100, 200, 400, 800):
        result = eq.minimize_conformal(
            metric, eq.MinimizerConfig(grid_size=n), u0=_perturbed_start(metric)
        )
        assert result.converged
        assert np.all(np.diff(result.trace) <= 1e-12)
        counts.append(len(result.trace) - 1)
    assert len(set(counts)) == 1, counts
    assert counts[0] <= 20


def test_minimizer_config_names_its_bounds():
    with pytest.raises(ValueError, match="grid_size must be >= 8"):
        eq.MinimizerConfig(grid_size=5)
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        eq.MinimizerConfig(max_iterations=0)
    eq.MinimizerConfig(grid_size=8, max_iterations=1)


def _galerkin(metric, m):
    """The descent's basis, node weights W and matrices A and H at m modes."""
    basis = conformal._basis(metric.base.length, metric.base.periodic, m)
    W, scal, _ = conformal._node_data(metric)
    return (basis, W) + conformal._forms(basis, W, scal)


@pytest.mark.parametrize("kind", sorted(_DESCENT_METRICS))
def test_h1_preconditioner_matches_a_dense_solve(kind):
    # H is the Gram matrix of the basis in the H^1 inner product: symmetric
    # positive definite, and factored once into the preconditioner
    _, _, _, H = _galerkin(_DESCENT_METRICS[kind](), 32)
    assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
    assert np.min(np.linalg.eigvalsh(H)) > 0.0
    Hinv = conformal._h1_preconditioner(H)
    for g in np.random.default_rng(3).normal(size=(3, H.shape[0])):
        exact = np.linalg.solve(H, g)
        assert np.max(np.abs(Hinv @ g - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("kind", ["wps23", "torus"])
def test_coefficient_gradient_matches_the_discrete_functional(kind):
    basis, W, A, _ = _galerkin(_DESCENT_METRICS[kind](), 16)
    B = basis.values
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

        assert numerics.check_derivative(J, dJ, 0.0, [1e-4, 1e-5]) <= 1e-6


def test_basis_is_read_only_and_shared_per_length():
    # hopf and wps(2,3) have length pi/2: one basis serves both
    hopf, wps = eq.hopf_metric(), eq.wps_metric(2, 3)
    assert hopf.base.length == wps.base.length
    basis = conformal._basis(hopf.base.length, False, 16)
    assert conformal._basis(wps.base.length, False, 16) is basis
    assert conformal._basis(hopf.base.length, False, 32) is not basis
    for array in (basis.values, basis.slopes):
        assert array.shape == (conformal._grid(hopf.base)[0].size, 16)
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def test_minimize_factors_the_gram_matrix_once(monkeypatch):
    # once per basis size: wps(1,9) doubles its basis twice
    sizes = []
    factor = conformal._h1_preconditioner

    def counting(H):
        sizes.append(H.shape[0])
        return factor(H)

    monkeypatch.setattr(conformal, "_h1_preconditioner", counting)
    result = eq.minimize_conformal(eq.wps_metric(1, 9))
    assert len(result.trace) > 3
    assert sizes == [16, 32, 64]
    assert result.modes == 64


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
    assert eq.minimize_conformal(hopf, eq.MinimizerConfig(grid_size=8)).modes == 8


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
    u = result.u_star
    assert np.ptp(u.values) > 1e-3
    assert abs(u.values[0] - u.values[-1]) <= 1e-12
    field = eq.RadialField.from_samples(u.grid, u.values, periodic=True)
    assert eq.conformal_functional(metric, field) == pytest.approx(result.mu_upper, rel=1e-12)


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
    doubled = eq.minimize_conformal(metric, dataclasses.replace(cfg, grid_size=2 * result.modes))
    assert doubled.modes == 2 * result.modes
    assert abs(doubled.mu_upper - result.mu_upper) <= 1e-13 * result.mu_upper


def test_minimize_wps_1_9_beats_the_cell_grid_at_the_defaults():
    # the n = 800 cell value; the basis grows from 16 to 64 modes
    assert eq.minimize_conformal(eq.wps_metric(1, 9)).mu_upper <= 22.188576563317
