"""Radial Poisson solves, uniformization to positive curvature, and numerical
minimization of the conformal functional.

The Poisson problem Delta u = f (nonnegative Laplacian, mean-zero f) is
solved by double quadrature of the radial ODE in trigonometric series
(`numerics.trig_antiderivative`), with no boundary conditioning: the flux
phi u' is the integral of -f phi, made to vanish at both poles.  The test
suite's eigenvalue oracle cross-checks it against a tridiagonal
discretization, and its Laplacian is recomputed from the series of the
solution's samples (`RadialField.from_samples`).

The conformal minimizer runs an H^1-preconditioned (Sobolev) gradient descent
on the discretized functional over positive radial factors.  The grid's
tridiagonal H^1 Gram matrix is factored once per descent
(`numerics.factor_tridiagonal`); each step solves with that factor, then
backtracks under Armijo and renormalizes.  The final cell values are
evaluated as their cosine series (Fourier on the torus), and the result is an
UPPER bound on the invariant conformal infimum, never the infimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import InvariantMetric, RadialField, _laplacian_of, scalar_curvature_total
from .errors import NonpositiveChi, NotMeanZero
from .numerics import factor_tridiagonal, trig_antiderivative
from .orbifold import Base, _cells, area, chi_orb, gauss_curvature
from .yamabe import conformal_functional

__all__ = [
    "RadialFunction",
    "MinimizerConfig",
    "MinimizeResult",
    "laplace_solve_radial",
    "laplace_residual",
    "uniformize_positive",
    "minimize_conformal",
]


@dataclass
class RadialFunction:
    """Samples of a radial function on a uniform arclength grid of the base."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape or self.grid.ndim != 1:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("radial function samples must be finite")

    @classmethod
    def from_callable(cls, base: Base, fn: Callable, n: int = 2001) -> "RadialFunction":
        grid = np.linspace(0.0, base.length, n)
        return cls(grid=grid, values=np.asarray(fn(grid), dtype=float))


def _weights(base: Base, grid: np.ndarray) -> np.ndarray:
    """Density of the area measure along the grid (without ds), 0 at cone poles."""
    w = base.area_scale * np.asarray(base.density(grid), dtype=float)
    for end, _ in zip((0, -1), base.cone_orders):
        w[end] = 0.0
    return w


def _odd_antiderivative(values: np.ndarray, length: float) -> np.ndarray:
    """int_0^s of the sine series through samples on linspace(0, L, n) that
    are odd about both ends, at the samples."""
    odd = np.concatenate([values, -values[-2:0:-1]])
    return trig_antiderivative(odd, 2.0 * length)[: values.size]


def laplace_solve_radial(base: Base, f: RadialFunction) -> RadialFunction:
    """Solve Delta u = f with the nonnegative Laplacian; u has mean zero.

    f is sampled on the uniform grid linspace(0, L, n) of the base (raises
    ValueError on any other grid).  Requires int f dv = 0 within 1e-8 of the
    L1 size of f (the solvability condition); raises NotMeanZero otherwise.
    """
    grid, fv = f.grid, f.values
    L = base.length
    if not np.allclose(grid, np.linspace(0.0, L, grid.size), rtol=0.0, atol=1e-12 * L):
        raise ValueError("laplace data must lie on the grid linspace(0, L, n) of the base")
    w = _weights(base, grid)
    mean = np.trapezoid(fv * w, grid)
    scale = np.trapezoid(np.abs(fv) * w, grid)
    if abs(mean) > 1e-8 * max(scale, 1e-30):
        raise NotMeanZero(f"int f dv = {mean:.3e} exceeds 1e-8 * ||f||_1 = {1e-8 * scale:.3e}")

    if base.periodic:
        # -u'' = f: one period of samples, its Fourier series integrated twice
        u = trig_antiderivative(-trig_antiderivative(fv[:-1], L), L)
        u = np.append(u, u[0])
    else:
        # phi u' = -int_0^s f phi.  The series sees a mean of f that differs
        # from the trapezoid mean by O(h^2); removing it, as g(L) A/A(L) with
        # A = int phi, makes the flux vanish at s = L, where u' = flux/phi
        # would otherwise blow up
        phi = np.asarray(base.density(grid), dtype=float)
        g = _odd_antiderivative(fv * phi, L)
        A = _odd_antiderivative(phi, L)
        flux = g[-1] * A / A[-1] - g
        up = np.concatenate([[0.0], flux[1:-1] / phi[1:-1], [0.0]])
        u = _odd_antiderivative(up, L)
    u -= np.trapezoid(u * w, grid) / np.trapezoid(w, grid)
    return RadialFunction(grid=grid, values=u)


def _series_laplacian(base: Base, u: RadialFunction) -> tuple[np.ndarray, np.ndarray]:
    """Delta u from the trigonometric series of the samples of u
    (`RadialField.from_samples`).  Returns the mask of nodes more than 2
    percent of L from either pole (every node on the torus) and the Laplacian
    there: nearer a pole the quotient phi'/phi amplifies rounding without
    geometric meaning."""
    grid, L = u.grid, base.length
    mask = (grid > 0.02 * L) & (grid < 0.98 * L) if base.cone_orders else np.full(grid.shape, True)
    field = RadialField.from_samples(grid, u.values, periodic=base.periodic)
    return mask, _laplacian_of(field, base, grid[mask])


def laplace_residual(base: Base, u: RadialFunction, f: RadialFunction) -> float:
    """Max-norm of Delta u - f, recomputing Delta u from the solution samples
    by their trigonometric series (see `_series_laplacian`), not from the
    solve's own flux."""
    mask, lap = _series_laplacian(base, u)
    return float(np.max(np.abs(lap - f.values[mask])))


def uniformize_positive(
    base: Base, n: int = 4001
) -> tuple[RadialFunction, float]:
    """Conformal change to positive curvature on a chi > 0 base.

    Solves Delta u = 2 pi chi / vol - K (the right side has zero mean by the
    curvature integral) and returns u together with the minimum over the grid
    of the resulting scalar curvature 2 e^{-2u} (Delta u + K), where Delta u
    is recomputed numerically from u.  The contract min > 0, with the
    pointwise value matching (4 pi chi / vol) e^{-2u}, is checked by the
    caller and the test suite.
    """
    chi = chi_orb(base)
    if chi <= 0:
        raise NonpositiveChi("uniformization to positive curvature needs chi > 0")
    vol = area(base)
    grid = np.linspace(0.0, base.length, n)
    inner = grid.copy()
    inner[0] = grid[1] * 0.5
    inner[-1] = base.length - (base.length - grid[-2]) * 0.5
    K = np.asarray(gauss_curvature(base, inner), dtype=float)
    f_vals = 2.0 * math.pi * chi / vol - K
    # exact-mean-zero data up to quadrature noise; recenter before solving
    w = _weights(base, grid)
    f_vals = f_vals - np.trapezoid(f_vals * w, grid) / np.trapezoid(w, grid)
    f = RadialFunction(grid=grid, values=f_vals)
    u = laplace_solve_radial(base, f)

    mask, lap = _series_laplacian(base, u)
    scal_new = 2.0 * np.exp(-2.0 * u.values[mask]) * (lap + K[mask])
    return u, float(np.min(scal_new))


@dataclass(frozen=True)
class MinimizerConfig:
    grid_size: int = 200
    max_iterations: int = 20000
    decrease_tol: float = 1e-10  # predicted decrease g.H^{-1}g, relative to max(1, |J|)
    u_floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.grid_size < 8:
            raise ValueError(f"grid_size must be >= 8, got {self.grid_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.decrease_tol < 1.0):
            raise ValueError("decrease_tol must lie in (0, 1)")
        if self.u_floor <= 0:
            raise ValueError("u_floor must be positive")


@dataclass
class MinimizeResult:
    """Descent output.

    mu_upper evaluates the series of the final iterate with the library quadrature,
    so it is the functional value of an actual invariant metric and therefore
    a true upper bound on the conformal infimum; `trace` holds the discrete
    objective values of the descent itself (non-increasing by construction).
    """

    mu_upper: float
    u_star: RadialFunction
    trace: np.ndarray
    converged: bool


def _discretize(metric: InvariantMetric, n: int):
    """Cell-centered grid, weights of 2 pi ell dv, and edge stiffness data."""
    base = metric.base
    L = base.length
    ds = L / n
    # read-only points of the base's plan; on a periodic base the last edge
    # closes the circle at s = L = 0
    centers, edges = _cells(base, n)
    dens = base.area_scale * np.asarray(base.density(centers), dtype=float)
    dens_e = base.area_scale * np.asarray(base.density(edges), dtype=float)
    ell_c = np.asarray(metric.ell.value(centers), dtype=float)
    ell_e = np.asarray(metric.ell.value(edges % L), dtype=float)
    w = 2.0 * math.pi * ell_c * dens * ds
    ce = 8.0 * 2.0 * math.pi * ell_e * dens_e / ds
    scal = np.asarray(scalar_curvature_total(metric, centers), dtype=float)
    return centers, w, ce, scal


def _h1_preconditioner(w: np.ndarray, ce: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """g -> H^{-1} g for the grid's H^1 Gram matrix H: cell mass w on the
    diagonal plus ce_k (e_k - e_{k+1})(e_k - e_{k+1})^T for edge k, which
    joins cells k and (k + 1) mod n.  H is factored once, and each call runs
    only the substitution sweeps.

    H = T + close z z^T: T is tridiagonal (cell mass and chain edges) and
    z = e_0 - e_{n-1} carries the closing edge, which only a periodic base
    has; Sherman-Morrison adds it back, and without it the gain is 0."""
    n = w.size
    chain, close = ce[: n - 1], float(np.sum(ce[n - 1:]))
    cells = np.arange(n - 1)
    diag = w + np.bincount(cells, chain, n) + np.bincount(cells + 1, chain, n)
    solve = factor_tridiagonal(-chain, diag, -chain)
    z = np.zeros(n)
    z[0], z[-1] = 1.0, -1.0
    tz = solve(z)
    gain = close / (1.0 + close * (tz[0] - tz[-1]))

    def precondition(g: np.ndarray) -> np.ndarray:
        tg = solve(g)
        return tg - gain * (tg[0] - tg[-1]) * tz

    return precondition


def minimize_conformal(
    metric: InvariantMetric,
    cfg: MinimizerConfig | None = None,
    u0: Callable | np.ndarray | None = None,
) -> MinimizeResult:
    """Sobolev-gradient descent on the conformal functional over radial u > 0.

    Each step moves along p = H^{-1} g, with g the gradient of the discrete
    functional and H the grid's H^1 Gram matrix (edge stiffness plus cell
    mass), so the iteration count does not grow with the grid.  Armijo
    backtracking halves the step from t = 1/2; the iterate is floored away
    from zero and renormalized to int 2 pi ell u^6 dv = 1, so the trace is
    non-increasing.  The descent converges when g.p <= decrease_tol *
    max(1, |J|) or no step decreases J; if the iteration budget runs out
    first, the last iterate is returned with converged=False.  A callable
    u0 receives the read-only cell centres of the base's quadrature plan.
    """
    if cfg is None:
        cfg = MinimizerConfig()
    centers, w, ce, scal = _discretize(metric, cfg.grid_size)
    n = centers.size
    lo = np.arange(ce.size)  # edge k joins cells k and (k + 1) mod n
    hi = (lo + 1) % n

    precondition = _h1_preconditioner(w, ce)

    def energy(u: np.ndarray) -> tuple[float, float, float]:
        num = float(np.sum(ce * (u[hi] - u[lo]) ** 2) + np.sum(w * scal * u**2))
        den = float(np.sum(w * u**6))
        return num / den ** (1.0 / 3.0), num, den

    def gradient(u: np.ndarray, num: float, den: float) -> np.ndarray:
        flux = 2.0 * ce * (u[hi] - u[lo])
        g = 2.0 * w * scal * u + np.bincount(hi, flux, n) - np.bincount(lo, flux, n)
        return g / den ** (1.0 / 3.0) - (num / (3.0 * den ** (4.0 / 3.0))) * 6.0 * w * u**5

    def normalized(u: np.ndarray) -> np.ndarray:
        u = np.maximum(u, cfg.u_floor)
        return u / np.sum(w * u**6) ** (1.0 / 6.0)

    if u0 is None:
        u = np.ones_like(centers)
    elif callable(u0):
        u = np.asarray(u0(centers), dtype=float)
    else:
        u = np.asarray(u0, dtype=float).copy()
        if u.shape != centers.shape:
            raise ValueError(f"u0 must have {centers.size} samples")
    u = normalized(u)

    J, num, den = energy(u)
    trace = [J]
    converged = False
    while True:
        g = gradient(u, num, den)
        p = precondition(g)
        gp = float(np.dot(g, p))
        if gp <= cfg.decrease_tol * max(1.0, abs(J)):
            converged = True
            break
        if len(trace) > cfg.max_iterations:
            break
        t = 0.5
        # halve t until Armijo holds or the predicted decrease t g.p is below
        # the rounding of J
        while t * gp > np.spacing(max(1.0, abs(J))):
            u_new = normalized(u - t * p)
            J_new, num_new, den_new = energy(u_new)
            if J_new <= J - 1e-4 * t * gp:
                break
            t *= 0.5
        else:
            converged = True  # no step decreases J at this resolution
            break
        u, J, num, den = u_new, J_new, num_new, den_new
        trace.append(J)

    u_star = RadialField.from_samples(centers, u, periodic=metric.base.periodic)
    return MinimizeResult(
        mu_upper=conformal_functional(metric, u_star),
        u_star=RadialFunction(grid=centers.copy(), values=u),  # writable, not the plan's
        trace=np.asarray(trace),
        converged=converged,
    )
