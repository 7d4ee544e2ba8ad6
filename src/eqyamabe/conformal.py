"""Radial Poisson solves, uniformization to positive curvature, and numerical
minimization of the conformal functional.

Both the Poisson solve and the minimizer are Rayleigh-Ritz (Galerkin)
discretizations on one basis: a cosine series cos(j pi s / L) on a profile,
whose terms are the smooth radial fields, and a Fourier series on the torus,
held with its slopes at the nodes of a fixed grid, level 512 of the
library's nested Fejér rule (`numerics._fejer_rule`), which the base's
quadrature plan keeps; the first-level nodes of `integrate` are every fourth
of them.  The basis doubles from 16 modes while its trailing coefficients
are not negligible (`_refinable`), up to 256 modes, half the level.

Radial data comes in as anything `bundle.as_radial_field` reads and every
solution goes out as its series, a `RadialField`; means are taken with the
node weights of the Galerkin grid.  The Poisson problem Delta u = f
(nonnegative Laplacian, mean-zero f) is one linear solve with the stiffness
matrix int u' v' dA over the non-constant basis functions, and its constant
coefficient gives u mean zero.  `laplace_residual` reads Delta u - f at the
nodes from the series' own derivatives; the test suite's eigenvalue oracle
cross-checks the solve against a tridiagonal finite-volume discretization,
and its spline checks differentiate samples of the series.

In the conformal minimizer the functional's quadratic forms become small
dense matrices, and an H^1-preconditioned (Sobolev) gradient descent runs on
the coefficients: the Gram matrix is factored once per basis size and each
step backtracks under Armijo.  The final series is evaluated with the library
quadrature, so the result is an UPPER bound on the invariant conformal
infimum, never the infimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .bundle import (
    FieldLike,
    InvariantMetric,
    RadialField,
    _laplacian_of,
    _scalar_curvature,
    as_radial_field,
)
from .errors import NonPositiveFactor, NonpositiveChi, NotMeanZero, NumericalError
from .numerics import _fejer_rule, trig_series
from .orbifold import Base, _plan_nodes, area, chi_orb, gauss_curvature
from .yamabe import conformal_functional

__all__ = [
    "MinimizerConfig",
    "MinimizeResult",
    "laplace_solve_radial",
    "laplace_residual",
    "uniformize_positive",
    "minimize_conformal",
]


def laplace_solve_radial(base: Base, f: FieldLike) -> RadialField:
    """Solve Delta u = f with the nonnegative Laplacian; u has mean zero.

    f is anything `bundle.as_radial_field` reads (samples on linspace(0, L, n)
    come in through `RadialField.from_samples`) and is read at the Galerkin
    grid's nodes.  Requires int f dv = 0 within 1e-8 of int |f| dv, both by
    the nodes' quadrature of the area measure (the solvability condition);
    raises NotMeanZero otherwise.  Returns the Galerkin series
    (`_poisson_series`), whose mean by the same quadrature is zero.
    """
    f_nodes = np.asarray(as_radial_field(f, base).value(_grid(base)[0]), dtype=float)
    wA = _area_weights(base)
    mean, scale = float(np.dot(wA, f_nodes)), float(np.dot(wA, np.abs(f_nodes)))
    if abs(mean) > 1e-8 * max(scale, 1e-30):
        raise NotMeanZero(f"int f dv = {mean:.3e} exceeds 1e-8 * ||f||_1 = {1e-8 * scale:.3e}")
    return _poisson_series(base, f_nodes, _EPS * np.max(np.abs(f_nodes)))


def laplace_residual(base: Base, u: RadialField, f: FieldLike) -> float:
    """Max-norm of Delta u - f at the Galerkin grid's nodes, with Delta u from
    the series' own derivatives.  On a profile only the nodes more than 2
    percent of L from either pole count: nearer a pole the quotient phi'/phi
    amplifies rounding without geometric meaning."""
    nodes, L = _grid(base)[0], base.length
    s = nodes[(nodes > 0.02 * L) & (nodes < 0.98 * L)] if base.cone_orders else nodes
    return float(np.max(np.abs(_laplacian_of(u, base, s) - as_radial_field(f, base).value(s))))


def uniformize_positive(base: Base) -> tuple[RadialField, float]:
    """Conformal change to positive curvature on a chi > 0 base.

    Solves Delta u = 2 pi chi / vol - K (the right side has zero mean by the
    curvature integral) at the Galerkin grid's nodes (`_poisson_series`) and
    returns the series u, of mean zero by the nodes' quadrature, together
    with the minimum over the nodes of the resulting scalar curvature
    2 e^{-2u} (Delta u + K), with Delta u taken from the series' own
    derivatives.  That curvature is (4 pi chi / vol) e^{-2u}, so its minimum
    is (4 pi chi / vol) e^{-2 max u}; the contract min > 0 is checked by the
    caller and the test suite.  The minimum is taken in log form, since
    e^{-2u} may overflow where the product does not; a minimum that is not
    finite raises NumericalError.
    """
    chi = chi_orb(base)
    if chi <= 0:
        raise NonpositiveChi("uniformization to positive curvature needs chi > 0")
    nodes = _grid(base)[0]
    K = np.asarray(gauss_curvature(base, nodes), dtype=float)
    series = _poisson_series(base, 2.0 * math.pi * chi / area(base) - K, _EPS * np.max(np.abs(K)))
    g = 2.0 * (_laplacian_of(series, base, nodes) + K)
    log_g = np.log(np.abs(g), out=np.full(g.shape, -np.inf), where=g != 0.0)
    log_scal = log_g - 2.0 * series.value(nodes)  # log |g e^{-2u}|
    negative = g < 0.0
    i = np.argmax(np.where(negative, log_scal, -np.inf)) if negative.any() else np.argmin(log_scal)
    if not log_scal[i] < _LOG_MAX:
        raise NumericalError(
            f"min_scal is not finite: its log magnitude {log_scal[i]:.6g} at s = {nodes[i]:.6g} "
            f"exceeds log(DBL_MAX) = {_LOG_MAX:.6g}"
        )
    return series, math.copysign(math.exp(log_scal[i]), g[i])


@dataclass(frozen=True)
class MinimizerConfig:
    grid_size: int = 200  # only caps the basis size: the cap is min(grid_size, 256)
    max_iterations: int = 20000
    decrease_tol: float = 1e-10  # predicted decrease g.H^{-1}g, relative to max(1, |J|)

    def __post_init__(self) -> None:
        if self.grid_size < 8:
            raise ValueError(f"grid_size must be >= 8, got {self.grid_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.decrease_tol < 1.0):
            raise ValueError("decrease_tol must lie in (0, 1)")


@dataclass
class MinimizeResult:
    """Descent output.

    mu_upper evaluates the final series `u_star` with the library quadrature,
    so it is the functional value of an actual invariant metric and therefore
    a true upper bound on the conformal infimum; `trace` holds the discrete
    objective values of the descent itself (non-increasing by construction).
    `stop_reason` is "tolerance" (the predicted decrease fell below
    decrease_tol), "no_decrease" (no step decreased J at rounding level) or
    "budget" (max_iterations ran out), and `modes` is the final basis size.
    """

    mu_upper: float
    u_star: RadialField
    trace: np.ndarray
    converged: bool
    stop_reason: str
    modes: int


# The Galerkin grid: the minimizer and the Poisson solve integrate with level
# 512 of the library's Fejér rule; the base's plan keeps its 511 nodes and the
# base's values there.  Both solves double their basis up to half the level,
# past which the products in their matrices alias on the nodes.
_GRID_LEVEL = 512
_MAX_MODES = _GRID_LEVEL // 2

# Basis size of a first stage; a descent's grid_size caps it and every doubling.
_START_MODES = 16

_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)  # the largest finite exp(x) has x below this

# A coefficient below sqrt(eps) of the largest changes a Rayleigh quotient by
# about eps, since the error of the quotient is quadratic in the truncation.
# The Poisson solve doubles by the same rule (`_refinable`).
_TAIL_TOL = math.sqrt(_EPS)


@dataclass(frozen=True)
class _Basis:
    """Values and slopes (read-only, nodes by columns) of the first m basis
    functions at the read-only nodes of the Galerkin grid: cos(j pi s / L)
    on a profile; 1, cos(2 pi j s / L), sin(2 pi j s / L) by increasing j on
    the torus.  Column j is Re(z^power[j]), or Re(-i z^power[j]) where
    `sine`, with z = exp(i omega s)."""

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    omega: float
    power: np.ndarray
    sine: np.ndarray

    def series(self, c: np.ndarray) -> RadialField:
        """The field sum_j c[j] (column j): at the nodes, the products of the
        basis arrays with c; elsewhere summed by `numerics.trig_series`."""
        coeffs = np.zeros(self.power[-1] + 1, dtype=complex)
        coeffs[self.power[~self.sine]] = c[~self.sine]
        coeffs[self.power[self.sine]] -= 1j * c[self.sine]
        value, d1, d2 = trig_series(coeffs, 0.0, self.omega)

        def planned(horner: Callable, columns: np.ndarray) -> Callable:
            return lambda s: columns @ c if s is self.nodes else horner(s)

        return RadialField(planned(value, self.values), planned(d1, self.slopes), d2)


def _grid(base: Base) -> tuple[np.ndarray, np.ndarray]:
    """The read-only nodes and weights of the Galerkin grid on [0, L], shared
    by every base of that length, its nodes entered in the base's plan."""
    nodes, weights = _fejer_rule(0.0, base.length, _GRID_LEVEL)
    return _plan_nodes(base, nodes), weights


@lru_cache(maxsize=64)
def _basis(length: float, periodic: bool, m: int) -> _Basis:
    """The first m basis functions at the Galerkin grid's nodes on
    [0, length], shared by every base of that length."""
    nodes = _fejer_rule(0.0, length, _GRID_LEVEL)[0]
    j = np.arange(m)
    power = (j + 1) // 2 if periodic else j
    sine = (j % 2 == 0) & (j > 0) & periodic
    omega = (2.0 if periodic else 1.0) * math.pi / length
    k = omega * power
    x = np.outer(nodes, k)
    values = np.where(sine, np.sin(x), np.cos(x))
    slopes = np.where(sine, np.cos(x), -np.sin(x)) * k
    for a in (values, slopes, power, sine):
        a.flags.writeable = False
    return _Basis(nodes, values, slopes, omega, power, sine)


def _refinable(c: np.ndarray, cap: int, floor: np.ndarray | float = 0.0) -> bool:
    """Whether a basis of c.size modes should double: 2 c.size <= cap and a
    coefficient of the trailing quarter of c exceeds both _TAIL_TOL times the
    largest and its floor (one number, or one per coefficient)."""
    m = c.size
    tail = slice(3 * m // 4, m)
    bound = np.maximum(_TAIL_TOL * np.max(np.abs(c)), np.broadcast_to(floor, c.shape)[tail])
    return 2 * m <= cap and bool(np.any(np.abs(c[tail]) > bound))


def _area_weights(base: Base) -> np.ndarray:
    """The Galerkin grid's weights of the area measure dA."""
    nodes, weights = _grid(base)
    return base.area_scale * np.asarray(base.density(nodes), dtype=float) * weights


def _poisson_series(base: Base, f_nodes: np.ndarray, rounding: float) -> RadialField:
    """Galerkin solution of Delta u = f, f given at the Galerkin grid's
    nodes, as a series in the basis functions (`_Basis`) whose mean against
    the weights wA of dA at the nodes is zero.

    f is recentred by its mean against wA; then S c = B^T (wA f) with
    stiffness S = D^T wA D, values B and slopes D of the non-constant
    columns.  m starts at _START_MODES and doubles while the tail is not
    negligible (`_refinable`), up to _MAX_MODES; then the constant
    coefficient cancels the mean of the rest.  A mode of wavenumber k adds
    k^2 c to Delta u, so a tail coefficient with k^2 |c| below the rounding
    level of the data f is noise and asks for no doubling."""
    wA = _area_weights(base)
    wf = wA * (f_nodes - np.dot(wA, f_nodes) / np.sum(wA))
    m = _START_MODES
    while True:
        basis = _basis(base.length, base.periodic, m)
        B, D = basis.values[:, 1:], basis.slopes[:, 1:]
        c = np.concatenate([[0.0], np.linalg.solve((D.T * wA) @ D, B.T @ wf)])
        k = basis.omega * np.maximum(basis.power, 1)  # the constant mode is never in the tail
        if not _refinable(c, _MAX_MODES, rounding / k**2):
            c[0] = -np.dot(wA, basis.values @ c) / np.sum(wA)
            return basis.series(c)
        m *= 2


def _node_data(metric: InvariantMetric) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Galerkin grid's weights of 2 pi ell dA, the total scalar
    curvature at its nodes, and the plain weights of ds."""
    base = metric.base
    nodes, weights = _grid(base)
    ell = np.asarray(metric.ell.value(nodes), dtype=float)
    dens = base.area_scale * np.asarray(base.density(nodes), dtype=float)
    K, F = gauss_curvature(base, nodes), metric.F.value(nodes)
    scal = np.asarray(_scalar_curvature(metric, nodes, ell, K, F), dtype=float)
    return 2.0 * math.pi * ell * dens * weights, scal, weights


def _forms(basis: _Basis, W: np.ndarray, scal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The functional's numerator matrix A = stiffness + int scal u^2 and the
    H^1 Gram matrix H = stiffness + int u^2, stiffness = int 8 |u'|^2, each
    against the node weights W of 2 pi ell dA."""
    B, D = basis.values, basis.slopes
    stiffness = 8.0 * (D.T * W) @ D
    BW = B.T * W
    return stiffness + (BW * scal) @ B, stiffness + BW @ B


def _h1_preconditioner(H: np.ndarray) -> np.ndarray:
    """H^{-1}, from one LU factorization of H; a step then costs one product."""
    return np.linalg.inv(H)


def _energy(B: np.ndarray, A: np.ndarray, W: np.ndarray, c: np.ndarray):
    """The discrete J(c) = c.A c / (sum W u^6)^{1/3}, its numerator and
    denominator, u = B c at the nodes, and W u^5."""
    u = B @ c
    wu5 = W * u**5
    num = float(c @ A @ c)
    den = float(np.dot(wu5, u))
    return num / den ** (1.0 / 3.0), num, den, u, wu5


def _gradient(B, A, c, num: float, den: float, wu5: np.ndarray) -> np.ndarray:
    """dJ/dc at c, given the rest of `_energy(B, A, W, c)`."""
    return (2.0 * (A @ c) - (2.0 * num / den) * (B.T @ wu5)) / den ** (1.0 / 3.0)


def _descend(
    basis: _Basis, W: np.ndarray, scal: np.ndarray, c: np.ndarray, trace: list, cfg: MinimizerConfig
) -> tuple[np.ndarray, str]:
    """Sobolev-gradient descent on J(c) = c.A c / (sum W (B c)^6)^{1/3} over
    coefficients with B c > 0 at every node, from c normalized to
    sum W (B c)^6 = 1.  Appends each accepted J to `trace` (and the start's J
    to an empty one); returns the last iterate and why the descent stopped."""
    B = basis.values
    A, H = _forms(basis, W, scal)
    Hinv = _h1_preconditioner(H)
    J, num, den, _, wu5 = _energy(B, A, W, c)
    if not trace:
        trace.append(J)
    while True:
        g = _gradient(B, A, c, num, den, wu5)
        p = Hinv @ g
        gp = float(np.dot(g, p))
        if gp <= cfg.decrease_tol * max(1.0, abs(J)):
            return c, "tolerance"
        if len(trace) > cfg.max_iterations:
            return c, "budget"
        t = 0.5
        # halve t until Armijo holds at a positive iterate or the predicted
        # decrease t g.p is below the rounding of J
        while t * gp > np.spacing(max(1.0, abs(J))):
            c_new = c - t * p
            J_new, num_new, den_new, u_new, wu5_new = _energy(B, A, W, c_new)
            if J_new <= J - 1e-4 * t * gp and u_new.min() > 0.0:
                break
            t *= 0.5
        else:
            return c, "no_decrease"
        scale = den_new ** (-1.0 / 6.0)  # renormalize: sum W u^6 = 1
        c, wu5, J = c_new * scale, wu5_new * scale**5, J_new
        num, den = num_new * scale**2, den_new * scale**6
        trace.append(J)


def minimize_conformal(
    metric: InvariantMetric,
    cfg: MinimizerConfig | None = None,
    u0: Callable | np.ndarray | None = None,
) -> MinimizeResult:
    """Galerkin Sobolev-gradient descent on the conformal functional over
    radial u > 0.

    u is a series in the first m basis functions (see `_Basis`), m starting
    at min(16, grid_size).  Each step moves the coefficients along
    p = H^{-1} g, with g the gradient of the discrete functional and H the H^1
    Gram matrix (stiffness plus mass), so the iteration count does not grow
    with m.  Armijo backtracking halves the step from t = 1/2 and rejects
    steps that leave u nonpositive at a node; the iterate is renormalized to
    int 2 pi ell u^6 dv = 1, so the trace is non-increasing.  A stage stops
    when g.p <= decrease_tol * max(1, |J|) or no step decreases J; then, while
    the trailing quarter of the coefficients exceeds sqrt(eps) times the
    largest and 2m <= min(grid_size, 256), m doubles and the same trace
    continues.  If the iteration budget runs out first, the last iterate is
    returned with converged=False.  Before the first step the node weights
    and the scalar curvature at the nodes must be finite (NumericalError
    otherwise, as when the data's scale overflows).  A callable u0 receives
    the read-only nodes of the Galerkin grid, an array u0 holds samples on
    linspace(0, L, n) (read through `RadialField.from_samples`), and either
    is projected onto the basis in L^2(ds); the projection must be positive
    at every node (NonPositiveFactor otherwise).
    """
    if cfg is None:
        cfg = MinimizerConfig()
    base = metric.base
    with np.errstate(all="ignore"):  # data out of scale is an error below, not a warning
        W, scal, weights = _node_data(metric)
    for name, values in (("node weights W of 2 pi ell dA", W), ("scalar curvature", scal)):
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"the {name} at the Galerkin nodes is not finite: out of scale")
    m = min(_START_MODES, cfg.grid_size)
    basis = _basis(base.length, base.periodic, m)
    if u0 is None:
        c = np.zeros(m)
        c[0] = 1.0
    else:
        if not callable(u0):
            samples = np.asarray(u0, dtype=float)
            grid = np.linspace(0.0, base.length, samples.size)
            u0 = RadialField.from_samples(grid, samples, periodic=base.periodic).value
        # the basis is orthogonal in L^2(ds): |1|^2 = L, every other |b_j|^2 = L/2
        u = np.asarray(u0(basis.nodes), dtype=float)
        c = (basis.values.T @ (weights * u)) / np.where(basis.power == 0, 1.0, 0.5) / base.length
    u = basis.values @ c
    if not np.all(u > 0.0):
        raise NonPositiveFactor("the projection of u0 must be positive at every quadrature node")
    c = c / float(np.dot(W, u**6)) ** (1.0 / 6.0)

    trace: list[float] = []
    while True:
        c, stop = _descend(basis, W, scal, c, trace, cfg)
        if stop == "budget" or not _refinable(c, min(cfg.grid_size, _MAX_MODES)):
            break
        m *= 2
        c = np.concatenate([c, np.zeros(m - c.size)])
        basis = _basis(base.length, base.periodic, m)

    series = basis.series(c)
    return MinimizeResult(
        mu_upper=conformal_functional(metric, series),
        u_star=series,
        trace=np.asarray(trace),
        converged=stop != "budget",
        stop_reason=stop,
        modes=m,
    )
