"""Radial Poisson solves, uniformization to positive curvature, and numerical
minimization of the conformal functional.

Both the Poisson solve and the minimizer are Rayleigh-Ritz (Galerkin)
discretizations on one basis: a cosine series cos(j pi s / L) on a profile,
whose terms are the smooth radial fields, and a Fourier series on the torus,
held with its slopes at the nodes of a level of the library's nested Fejér
rule, which the base's quadrature plan owns (`orbifold._rule`).  The
Poisson solve runs on level 512, whose every fourth node is a first-level
node of `integrate`; a minimizer stage of m modes runs on level
clamp(4m, 128, 512), so 16 and 32 modes use the first level itself, and
reads ell and the total scalar curvature at its nodes from the metric, which
keeps them per level (`bundle._node_values`): stages on one level, and a
`functional_J` of the metric after the run, share them.  The basis doubles
from 16 modes, up to 256 modes, half of level 512, while its tail is not
negligible by the library's one tail rule (`_refinable`).

Radial data comes in as anything `bundle.as_radial_field` reads and every
solution goes out as its series, a `RadialField` summing the
`numerics.TrigSeries` of its coefficients (`_Basis.series`); means are taken
with the node weights of the Galerkin grid.  The Poisson problem Delta u = f
(nonnegative Laplacian, mean-zero f) is one linear solve with the stiffness
matrix int u' v' dA over the non-constant basis functions, and its constant
coefficient gives u mean zero.  `laplace_residual` reads Delta u - f at the
nodes from the series' own derivatives; the test suite's eigenvalue oracle
cross-checks the solve against a tridiagonal finite-volume discretization,
and its spline checks differentiate samples of the series.

In the conformal minimizer the functional's quadratic forms become small
dense matrices, and each step on the coefficients is a Newton step on the
discrete Euler-Lagrange (Yamabe) equation 8 Delta u + scal u = mu u^5,
shifted by the first multiple 0, 1, 2, 4, ... of the H^1 Gram matrix whose
step keeps u positive and does not raise J (Levenberg-Marquardt; a large
shift gives an H^1-preconditioned, Sobolev, gradient step).  mu_upper is
the discrete functional of the final series on the stage's grid, with the
nested estimate of `integrate`; it is the functional of an actual invariant
metric, so an UPPER bound on the invariant conformal infimum, never the
infimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .bundle import (
    FieldLike,
    InvariantMetric,
    RadialField,
    _laplacian,
    _node_values,
    as_radial_field,
)
from .errors import NoConvergence, NonPositiveFactor, NonpositiveChi, NotMeanZero, NumericalError
from .numerics import _DEFAULT_CONFIG, _EPS, _FIRST_LEVEL, TrigSeries, _chop, _fejer_rule
from .orbifold import _GRID_LEVEL, Base, _rule, area, chi_orb, gauss_curvature
from .yamabe import _closed_form

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
    f_nodes = np.asarray(as_radial_field(f, base).value(_rule(base, _GRID_LEVEL)[0]), dtype=float)
    wA = _area_weights(base)
    mean, scale = float(np.dot(wA, f_nodes)), float(np.dot(wA, np.abs(f_nodes)))
    if abs(mean) > 1e-8 * max(scale, 1e-30):
        raise NotMeanZero(f"int f dv = {mean:.3e} exceeds 1e-8 * ||f||_1 = {1e-8 * scale:.3e}")
    basis, c = _poisson_series(base, f_nodes, _EPS * np.max(np.abs(f_nodes)))
    return basis.series(c)


def laplace_residual(base: Base, u: RadialField, f: FieldLike) -> float:
    """Max-norm of Delta u - f at the Galerkin grid's nodes, with Delta u from
    the series' own derivatives.  On a profile only the nodes more than 2
    percent of L from either pole count: nearer a pole the quotient phi'/phi
    amplifies rounding without geometric meaning."""
    nodes, L = _rule(base, _GRID_LEVEL)[0], base.length
    s = nodes[(nodes > 0.02 * L) & (nodes < 0.98 * L)] if base.cone_orders else nodes
    lap = _laplacian(base, s, u.d1(s), u.d2(s))
    return float(np.max(np.abs(lap - as_radial_field(f, base).value(s))))


def uniformize_positive(base: Base) -> tuple[RadialField, float]:
    """Conformal change to positive curvature on a chi > 0 base.

    Solves Delta u = 2 pi chi / vol - K (the right side has zero mean by the
    curvature integral) at the Galerkin grid's nodes (`_poisson_series`) and
    returns the series u, of mean zero by the nodes' quadrature, together
    with the minimum over the nodes of the resulting scalar curvature
    2 e^{-2u} (Delta u + K): u and u' at the nodes are the products of the
    basis arrays with the solve's coefficients, and u'' is the series' own
    second derivative.  That curvature is (4 pi chi / vol) e^{-2u}, so its minimum
    is (4 pi chi / vol) e^{-2 max u}; the contract min > 0 is checked by the
    caller and the test suite.  The minimum is taken in log form, since
    e^{-2u} may overflow where the product does not; a minimum that is not
    finite raises NumericalError.
    """
    chi = chi_orb(base)
    if chi <= 0:
        raise NonpositiveChi("uniformization to positive curvature needs chi > 0")
    mean = _closed_form("2 pi chi / vol at vol = {1!r}", lambda c, v: 2.0 * math.pi * c / v,
                        chi, area(base))
    nodes = _rule(base, _GRID_LEVEL)[0]
    K = np.asarray(gauss_curvature(base, nodes), dtype=float)
    basis, c = _poisson_series(base, mean - K, _EPS * np.max(np.abs(K)))
    series = basis.series(c)
    g = 2.0 * (_laplacian(base, nodes, basis.slopes @ c, series.d2(nodes)) + K)
    log_g = np.log(np.abs(g), out=np.full(g.shape, -np.inf), where=g != 0.0)
    log_scal = log_g - 2.0 * (basis.values @ c)  # log |g e^{-2u}|
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
    max_modes: int = 128  # caps the basis size, at most at 256
    max_iterations: int = 20000
    decrease_tol: float = 1e-10  # predicted decrease g.H^{-1}g, relative to max(1, |J|)

    def __post_init__(self) -> None:
        if self.max_modes < 8:
            raise ValueError(f"max_modes must be >= 8, got {self.max_modes}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.decrease_tol < 1.0):
            raise ValueError("decrease_tol must lie in (0, 1)")


@dataclass(eq=False)
class MinimizeResult:
    """Minimizer output.

    mu_upper is the functional of the final series `u_star` on the last
    stage's Galerkin grid, a level n of the library's Fejér rule (or a finer
    one, see below), and `error_estimate` its difference from the functional
    on every second node with the weights of level n / 2, the nested test of
    `integrate`; it meets the default `QuadratureConfig` tolerance.  So
    mu_upper is the functional value of an actual invariant metric and
    therefore a true upper bound on the conformal infimum.  `trace` holds the
    discrete objective values of the iteration itself (non-increasing by
    construction).  `stop_reason` is "tolerance" (the predicted decrease fell
    below decrease_tol), "no_decrease" (no step decreased J at rounding
    level), "basis_cap" (the last stage ended by either of those, but its
    tail was not negligible and the next doubling would pass
    min(max_modes, 256): u* is not resolved by the basis, although mu_upper
    is still an upper bound) or "budget" (max_iterations ran out), and
    `modes` is the final basis size.  Every stage of the run comes from one
    builder (`_stage`), and the result keeps the last stage the descent ran
    on, its basis, node data and matrices, as the private `_stage`, and the
    final coefficients on its basis as `_coeffs`, both out of the repr.  `u_star`, a
    `RadialField`, is the series of those coefficients (`_Basis.series`),
    built on first read and the same object on every later read.  A result
    equals only itself: `trace` is an array, and no two runs are compared
    through it.
    """

    mu_upper: float
    error_estimate: float
    trace: np.ndarray
    converged: bool
    stop_reason: str
    modes: int
    _stage: _Stage | None = field(default=None, repr=False, compare=False)
    _coeffs: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def u_star(self) -> RadialField:
        return self._stage.basis.series(self._coeffs)


# The Galerkin grids are levels of the library's Fejér rule, and the base's
# plan keeps their nodes and the base's values there.  The Poisson solve runs
# on level 512 (`orbifold._GRID_LEVEL`, 511 nodes); a minimizer stage of m
# modes on level clamp(4m, 128, 512) (`_level`), so the first level of
# `integrate` serves up to 32 modes.  Both solves double their basis up to
# half of level 512, past which the products in their matrices alias on the
# nodes.
_MAX_MODES = _GRID_LEVEL // 2

# Basis size of a first stage; a descent's max_modes caps it and every doubling.
_START_MODES = 16

_LOG_MAX = math.log(np.finfo(float).max)  # the largest finite exp(x) has x below this

# A coefficient below sqrt(eps) of the largest changes a Rayleigh quotient by
# about eps, since the error of the quotient is quadratic in the truncation.
# Both solves double by it; the Poisson solve adds its floor (`_refinable`).
_TAIL_TOL = math.sqrt(_EPS)


@dataclass(frozen=True)
class _Basis:
    """Values and slopes (read-only, nodes by columns) of the first m basis
    functions at the nodes of a level of the Fejér rule: cos(j pi s / L)
    on a profile; 1, cos(2 pi j s / L), sin(2 pi j s / L) by increasing j on
    the torus.  Column j is cos(power[j] omega s), or sin(power[j] omega s)
    where `sine`.  The basis is orthogonal in L^2(ds), and `norms_sq` holds
    its squared norms: L for the constant, L/2 for every other function."""

    values: np.ndarray
    slopes: np.ndarray
    omega: float
    power: np.ndarray
    sine: np.ndarray
    norms_sq: np.ndarray

    def series(self, c: np.ndarray) -> RadialField:
        """The field sum_j c[j] (column j) as a `numerics.TrigSeries`, its
        cosine and sine coefficients gathered from c by wavenumber."""
        cos, sin = np.zeros((2, self.power[-1] + 1))
        cos[self.power[~self.sine]] = c[~self.sine]
        sin[self.power[self.sine]] = c[self.sine]
        return RadialField.from_series(TrigSeries.from_real(cos, sin, self.omega))


def _level(m: int) -> int:
    """The Fejér level of a minimizer stage of m modes: four nodes a mode,
    from the first level of `integrate` up to the Poisson solve's level."""
    return min(max(4 * m, _FIRST_LEVEL), _GRID_LEVEL)


@lru_cache(maxsize=64)
def _basis(length: float, periodic: bool, m: int, level: int = _GRID_LEVEL) -> _Basis:
    """The first m basis functions at the nodes of a level of the Fejér rule
    on [0, length], shared by every base of that length."""
    nodes = _fejer_rule(0.0, length, level)[0]
    j = np.arange(m)
    power = (j + 1) // 2 if periodic else j
    sine = (j % 2 == 0) & (j > 0) & periodic
    omega = (2.0 if periodic else 1.0) * math.pi / length
    k = omega * power
    x = np.outer(nodes, k)
    sin, cos = np.sin(x), np.cos(x)
    values = np.where(sine, sin, cos)
    slopes = np.where(sine, cos, -sin) * k
    norms_sq = np.where(power == 0, 1.0, 0.5) * length
    for a in (values, slopes, power, sine, norms_sq):
        a.flags.writeable = False
    return _Basis(values, slopes, omega, power, sine, norms_sq)


def _refinable(c: np.ndarray, cap: int, floor: np.ndarray | float = 0.0) -> bool:
    """Whether a basis of c.size modes should double: 2 c.size <= cap and,
    by the library's one tail rule (`numerics._chop`), its tail past
    both _TAIL_TOL times the largest coefficient and its floor (one number,
    or one per mode) is not negligible."""
    tol = np.maximum(_TAIL_TOL * np.abs(c).max(), floor)
    return 2 * c.size <= cap and not _chop(c, tol)[1]


def _area_weights(base: Base) -> np.ndarray:
    """The Galerkin grid's weights of the area measure dA."""
    nodes, weights = _rule(base, _GRID_LEVEL)
    return base.area_scale * np.asarray(base.density(nodes), dtype=float) * weights


def _poisson_series(base: Base, f_nodes: np.ndarray, rounding: float) -> tuple[_Basis, np.ndarray]:
    """Galerkin solution of Delta u = f, f given at the Galerkin grid's
    nodes, as the basis (`_Basis`, on the grid's level) and the coefficients
    of the series whose mean against the weights wA of dA at the nodes is
    zero: u and u' at the nodes are the products of the basis arrays with
    them, and the series itself is `_Basis.series`.

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
        # the constant mode is never in the tail; formed quietly, as every
        # value out of scale is: where k^2 overflows, the floor is 0
        with np.errstate(all="ignore"):
            floor = rounding / (basis.omega * np.maximum(basis.power, 1)) ** 2
        if not _refinable(c, _MAX_MODES, floor):
            c[0] = -np.dot(wA, basis.values @ c) / np.sum(wA)
            return basis, c
        m *= 2


@dataclass(frozen=True, eq=False)
class _Stage:
    """One Galerkin stage of the minimizer (`_stage`): the basis of m modes
    on a level of the Fejér rule, the base plan's own node array of that
    level, and there the weights W of 2 pi ell dA, the total scalar
    curvature and the plain weights of ds; its matrices (`forms`) are formed
    on first use."""

    basis: _Basis
    level: int
    nodes: np.ndarray
    W: np.ndarray
    scal: np.ndarray
    weights: np.ndarray

    @cached_property
    def forms(self) -> tuple[np.ndarray, np.ndarray]:
        """The functional's numerator matrix A = stiffness + int scal u^2 and
        the H^1 Gram matrix H = stiffness + int u^2, stiffness = int 8 |u'|^2,
        each against the node weights W."""
        B, D = self.basis.values, self.basis.slopes
        stiffness = 8.0 * (D.T * self.W) @ D
        BW = B.T * self.W
        return stiffness + (BW * self.scal) @ B, stiffness + BW @ B


def _stage(metric: InvariantMetric, m: int, level: int) -> _Stage:
    """The stage of m modes on a level of the Fejér rule, at the values of
    ell and the total scalar curvature the metric keeps for that level
    (`bundle._node_values`), so stages on one level share them: W and the
    curvature must be finite, and W not 0 at every node (NumericalError
    otherwise, as when the data's scale overflows or underflows)."""
    base = metric.base
    nodes, weights = _rule(base, level)
    with np.errstate(all="ignore"):  # data out of scale is an error below, not a warning
        ell, _, _, scal = _node_values(metric, nodes)
        dens = base.area_scale * np.asarray(base.density(nodes), dtype=float)
        W = 2.0 * math.pi * ell * dens * weights
    for name, values in (("node weights W of 2 pi ell dA", W), ("scalar curvature", scal)):
        if not np.isfinite(values).all():
            raise NumericalError(f"the {name} at the Galerkin nodes is not finite: out of scale")
    if not W.any():
        raise NumericalError(
            "the node weights W of 2 pi ell dA underflowed to 0 at every Galerkin node: out of scale"
        )
    return _Stage(_basis(base.length, base.periodic, m, level), level, nodes, W, scal, weights)


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
    stage: _Stage, c: np.ndarray, trace: list, cfg: MinimizerConfig
) -> tuple[np.ndarray, str]:
    """Minimize J(c) = c.A c / (sum W (B c)^6)^{1/3} on a stage over
    coefficients with B c > 0 at every node, from c normalized to
    sum W (B c)^6 = 1, by the shifted Newton steps of `minimize_conformal`,
    with Newton's matrix N = A - 5 mu B^T diag(W u^4) B.  The residual A c - mu B^T (W u^5) is
    g den^{1/3} / 2, so a shift lam tends to the Sobolev step H^{-1} g / (2 lam)
    as it grows; the shifts stop ("no_decrease") once that step's predicted
    decrease g.H^{-1}g / (2 lam) is below the rounding of J.  Appends each
    accepted J to `trace` (and the start's J to an empty one); returns the
    last iterate and why the iteration stopped.  The start's J and every
    g.H^{-1}g must be finite (NumericalError otherwise, as when the data's
    scale overflows the matrices): neither test could ever pass on NaN."""
    B, W = stage.basis.values, stage.W
    # one floating-point policy for the stage: data out of scale is an error
    # below and a wild trial step is rejected; neither is warned about
    with np.errstate(all="ignore"):
        A, H = stage.forms
        J, num, den, u, wu5 = _energy(B, A, W, c)
        if not math.isfinite(J):
            raise NumericalError("the discrete functional J is not finite: out of scale")
        H_inv = np.linalg.inv(H)  # H is fixed for the stage: the stop test needs only g.H^{-1}g
        if not trace:
            trace.append(J)
        while True:
            g = _gradient(B, A, c, num, den, wu5)
            gp = float(np.dot(g, H_inv @ g))
            if not math.isfinite(gp):
                raise NumericalError("the predicted decrease g.H^{-1}g is not finite: out of scale")
            if gp <= cfg.decrease_tol * max(1.0, abs(J)):
                return c, "tolerance"
            if len(trace) > cfg.max_iterations:
                return c, "budget"
            mu = num / den
            N = A - (5.0 * mu) * (B.T * (W * u**4)) @ B
            r = 0.5 * den ** (1.0 / 3.0) * g
            lam = 0.0
            while True:
                try:
                    c_new = c - np.linalg.solve(N + lam * H if lam else N, r)
                except np.linalg.LinAlgError:
                    pass  # a singular shift: try the next
                else:
                    J_new, num_new, den_new, u_new, wu5_new = _energy(B, A, W, c_new)
                    if J_new <= J and u_new.min() > 0.0:
                        break
                lam = max(1.0, 2.0 * lam)
                if gp / (2.0 * lam) <= np.spacing(max(1.0, abs(J))):
                    return c, "no_decrease"
            scale = den_new ** (-1.0 / 6.0)  # renormalize: sum W u^6 = 1
            c, u, wu5, J = c_new * scale, u_new * scale, wu5_new * scale**5, J_new
            num, den = num_new * scale**2, den_new * scale**6
            trace.append(J)


def _read_off(metric: InvariantMetric, stage: _Stage, c: np.ndarray) -> tuple[float, float]:
    """mu_upper and its error estimate: the discrete functional of the series
    sum_j c[j] on a stage of level n, and its difference from the functional
    on every second node with the weights of level n / 2, the nested test of
    `integrate`.  A level whose estimate misses the default
    `QuadratureConfig` tolerance doubles, a stage of its own (`_stage`) whose
    matrices are never formed, up to max_refinements times (NoConvergence
    past them).  The series must be positive at the nodes of the last level
    and between them, at the nodes of level max(2n, 512) (NonPositiveFactor
    otherwise)."""
    base, cfg = metric.base, _DEFAULT_CONFIG
    for refinement in range(cfg.max_refinements + 1):
        W, scal, weights = stage.W, stage.scal, stage.weights
        u, du = stage.basis.values @ c, stage.basis.slopes @ c
        num, den = 8.0 * du**2 + scal * u**2, u**6
        W_half = W[1::2] * (_rule(base, stage.level // 2)[1] / weights[1::2])
        J = float(np.dot(W, num)) / float(np.dot(W, den)) ** (1.0 / 3.0)
        J_half = float(np.dot(W_half, num[1::2])) / float(np.dot(W_half, den[1::2])) ** (1.0 / 3.0)
        error = abs(J - J_half)
        if error <= max(cfg.abs_tol, cfg.rel_tol * abs(J)):
            break
        if refinement == cfg.max_refinements:
            raise NoConvergence(
                f"mu_upper did not reach tolerance after {refinement} refinements "
                f"(last error estimate {error:.3e})"
            )
        stage = _stage(metric, c.size, 2 * stage.level)
    between = _basis(base.length, base.periodic, c.size, max(2 * stage.level, _GRID_LEVEL))
    if not ((u > 0.0).all() and (between.values @ c > 0.0).all()):
        raise NonPositiveFactor("the minimizer's factor must be strictly positive")
    return J, error


def minimize_conformal(
    metric: InvariantMetric,
    cfg: MinimizerConfig | None = None,
    u0: Callable | np.ndarray | None = None,
) -> MinimizeResult:
    """Galerkin minimization of the conformal functional over radial u > 0,
    by shifted Newton steps on its Euler-Lagrange equation.

    u is a series in the first m basis functions (see `_Basis`), m starting
    at min(16, max_modes), on level clamp(4m, 128, 512) of the Fejér rule.
    Each iteration (`_descend`) solves (N + lam H) d = A c - mu B^T (W u^5)
    for lam = 0, 1, 2, 4, ..., with mu = num / den the multiplier of the
    discrete Yamabe equation A c = mu B^T (W u^5), N its Newton matrix and H
    the H^1 Gram matrix (stiffness plus mass), and keeps the first c - d that
    leaves u positive at every node and does not raise J.  lam = 0 is the
    Newton step and a large lam the Sobolev gradient step H^{-1} g / (2 lam),
    g the gradient of the discrete functional, so the step count does not
    grow with m.  The iterate is renormalized to int 2 pi ell u^6 dv = 1, so
    the trace is non-increasing.  A stage stops when
    g.H^{-1}g <= decrease_tol * max(1, |J|) or no step decreases J; then,
    while the tail past sqrt(eps) times the largest coefficient is not
    negligible (`_refinable`) and 2m <= min(max_modes, 256), m doubles and the
    same trace continues, on a finer level where 4m asks for one; where 2m
    would pass that cap, the run stops with stop_reason "basis_cap".  If the
    iteration budget runs out, the last iterate is returned with converged=False.
    mu_upper is read off the last stage's grid (see `MinimizeResult`).  The
    node weights and the scalar curvature at the nodes, each stage's start J
    and every g.H^{-1}g must be finite (NumericalError otherwise, as when
    the data's scale overflows).  A
    callable u0 receives the read-only nodes of the first stage's grid, an
    array u0 holds samples on linspace(0, L, n) (read through
    `RadialField.from_samples`), and either is projected onto the basis in
    L^2(ds); the projection must be positive at every node (NonPositiveFactor
    otherwise).
    """
    if cfg is None:
        cfg = MinimizerConfig()
    base = metric.base
    m = min(_START_MODES, cfg.max_modes)
    stage = _stage(metric, m, _level(m))
    basis, weights = stage.basis, stage.weights
    if u0 is None:
        c = np.zeros(m)
        c[0] = 1.0
    else:
        if not callable(u0):
            u0 = RadialField.from_samples(u0, base.length, periodic=base.periodic).value
        u = np.asarray(u0(stage.nodes), dtype=float)
        c = (basis.values.T @ (weights * u)) / basis.norms_sq
    u = basis.values @ c
    if not (u > 0.0).all():
        raise NonPositiveFactor("the projection of u0 must be positive at every quadrature node")
    c = c / float(np.dot(stage.W, u**6)) ** (1.0 / 6.0)

    trace: list[float] = []
    while True:
        c, stop = _descend(stage, c, trace, cfg)
        if stop == "budget" or not _refinable(c, math.inf):
            break
        if 2 * m > min(cfg.max_modes, _MAX_MODES):
            stop = "basis_cap"  # the tail is not negligible, but the basis may not double
            break
        m *= 2
        c = np.concatenate([c, np.zeros(m - c.size)])
        stage = _stage(metric, m, _level(m))

    mu_upper, error_estimate = _read_off(metric, stage, c)
    return MinimizeResult(
        mu_upper=mu_upper,
        error_estimate=error_estimate,
        trace=np.asarray(trace),
        converged=stop != "budget",
        stop_reason=stop,
        modes=m,
        _stage=stage,
        _coeffs=c,
    )
