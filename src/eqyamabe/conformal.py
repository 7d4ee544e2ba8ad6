"""Radial Poisson solves, uniformization to positive curvature, and numerical
minimization of the conformal functional.

The Poisson problem Delta u = f (nonnegative Laplacian, mean-zero f) is
solved by exact double quadrature of the radial ODE rather than by a
discretized linear system: the flux phi u' is a cumulative integral of
-f phi, which vanishes at both poles automatically, so no boundary
conditioning is involved.  A tridiagonal discretization remains available
through `numerics.solve_tridiagonal` as an independent cross-check and is
exercised by the test suite's eigenvalue oracle.

The conformal minimizer runs projected gradient descent on the discretized
functional over positive radial factors, with renormalization after every
step and Armijo backtracking (Barzilai-Borwein initial step).  Its output is
an UPPER bound on the invariant conformal infimum, never the infimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bundle import InvariantMetric, RadialField, scalar_curvature_total
from .errors import NonpositiveChi, NotMeanZero
from .orbifold import Base, area, chi_orb, gauss_curvature
from .yamabe import conformal_functional

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

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
    mean_zero: bool = False

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

    def spline(self) -> CubicSpline:
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.grid, self.values)

    def derivative(self) -> np.ndarray:
        return self.spline()(self.grid, 1)

    def as_field(self) -> RadialField:
        sp = self.spline()
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        return RadialField(
            value=lambda s: sp(np.clip(s, lo, hi)),
            d1=lambda s: sp(np.clip(s, lo, hi), 1),
            d2=lambda s: sp(np.clip(s, lo, hi), 2),
        )


def _weights(base: Base, grid: np.ndarray) -> np.ndarray:
    """Density of the area measure along the grid (without ds), 0 at cone poles."""
    w = base.area_scale * np.asarray(base.density(grid), dtype=float)
    for end, _ in zip((0, -1), base.cone_orders):
        w[end] = 0.0
    return w


def laplace_solve_radial(base: Base, f: RadialFunction) -> RadialFunction:
    """Solve Delta u = f with the nonnegative Laplacian; u has mean zero.

    Requires int f dv = 0 within 1e-8 of the L1 size of f (the solvability
    condition); raises NotMeanZero otherwise.
    """
    from scipy.integrate import cumulative_simpson

    grid = f.grid
    fv = f.values
    w = _weights(base, grid)
    mean = np.trapezoid(fv * w, grid)
    scale = np.trapezoid(np.abs(fv) * w, grid)
    if abs(mean) > 1e-8 * max(scale, 1e-30):
        raise NotMeanZero(f"int f dv = {mean:.3e} exceeds 1e-8 * ||f||_1 = {1e-8 * scale:.3e}")

    if base.periodic:
        # u'' = -f with periodic closure; constant radius cancels throughout
        g = cumulative_simpson(fv, x=grid, initial=0.0)
        up = -(g - np.trapezoid(g, grid) / (grid[-1] - grid[0]))
    else:
        phi = np.asarray(base.density(grid), dtype=float)
        flux = -cumulative_simpson(fv * phi, x=grid, initial=0.0)  # phi u'
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(phi > 0.0, flux / np.where(phi > 0.0, phi, 1.0), 0.0)
        up[0] = 0.0
        up[-1] = 0.0
    u = cumulative_simpson(up, x=grid, initial=0.0)
    u -= np.trapezoid(u * w, grid) / np.trapezoid(w, grid)
    return RadialFunction(grid=grid, values=u, mean_zero=True)


def laplace_residual(base: Base, u: RadialFunction, f: RadialFunction) -> float:
    """Max-norm of Delta u - f, recomputing Delta u from the solution samples.

    The Laplacian is rebuilt by spline differentiation of the flux phi u', so
    this is an independent a-posteriori check, not an identity.  Nodes within
    2 percent of a pole are excluded: there the quotient by phi amplifies
    interpolation noise without geometric meaning.
    """
    from scipy.interpolate import CubicSpline

    grid = u.grid
    sp = u.spline()
    if base.periodic:
        lap = -sp(grid, 2)
        mask = np.ones_like(grid, dtype=bool)
    else:
        phi = np.asarray(base.density(grid), dtype=float)
        flux = phi * sp(grid, 1)
        flux_sp = CubicSpline(grid, flux)
        L = base.length
        mask = (grid > 0.02 * L) & (grid < 0.98 * L)
        lap = np.zeros_like(grid)
        lap[mask] = -flux_sp(grid[mask], 1) / phi[mask]
    return float(np.max(np.abs(lap[mask] - f.values[mask])))


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
    from scipy.interpolate import CubicSpline

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

    sp = u.spline()
    phi = np.asarray(base.density(grid), dtype=float)
    flux_sp = CubicSpline(grid, phi * sp(grid, 1))
    mask = (grid > 0.02 * base.length) & (grid < 0.98 * base.length)
    lap = -flux_sp(grid[mask], 1) / phi[mask]
    scal_new = 2.0 * np.exp(-2.0 * u.values[mask]) * (lap + K[mask])
    return u, float(np.min(scal_new))


@dataclass(frozen=True)
class MinimizerConfig:
    grid_size: int = 200
    max_iterations: int = 20000
    step_size: float = 1e-2
    armijo_shrink: float = 0.5
    decrease_tol: float = 1e-10  # relative decrease over a 50-iteration window
    u_floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.grid_size < 8 or self.max_iterations < 1:
            raise ValueError("grid_size and max_iterations must be positive")
        if not (0.0 < self.armijo_shrink < 1.0):
            raise ValueError("armijo_shrink must lie in (0, 1)")
        if not (0.0 < self.decrease_tol < 1.0):
            raise ValueError("decrease_tol must lie in (0, 1)")
        if self.step_size <= 0 or self.u_floor <= 0:
            raise ValueError("step_size and u_floor must be positive")


@dataclass
class MinimizeResult:
    """Descent output.

    mu_upper is the final iterate re-evaluated with the library quadrature,
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
    centers = (np.arange(n) + 0.5) * ds
    # on a periodic base the last edge closes the circle at s = L = 0
    edges = np.arange(1, n + 1 if base.periodic else n) * ds
    dens = base.area_scale * np.asarray(base.density(centers), dtype=float)
    dens_e = base.area_scale * np.asarray(base.density(edges), dtype=float)
    ell_c = np.asarray(metric.ell.value(centers), dtype=float)
    ell_e = np.asarray(metric.ell.value(edges % L), dtype=float)
    w = 2.0 * math.pi * ell_c * dens * ds
    ce = 8.0 * 2.0 * math.pi * ell_e * dens_e / ds
    scal = np.asarray(scalar_curvature_total(metric, centers), dtype=float)
    return centers, w, ce, scal, base.periodic


def minimize_conformal(
    metric: InvariantMetric,
    cfg: MinimizerConfig | None = None,
    u0: Callable | np.ndarray | None = None,
) -> MinimizeResult:
    """Projected gradient descent on the conformal functional over radial u > 0.

    The iterate is renormalized to int 2 pi ell u^6 dv = 1 after every step,
    floored away from zero, and accepted only under an Armijo decrease, so the
    returned trace is non-increasing.  If the iteration budget runs out before
    the decrease stalls, the best-so-far value is returned with
    converged=False.
    """
    if cfg is None:
        cfg = MinimizerConfig()
    centers, w, ce, scal, periodic = _discretize(metric, cfg.grid_size)

    def diffs(u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1) - u) if periodic else np.diff(u)

    def energy(u: np.ndarray) -> tuple[float, float, float]:
        du = diffs(u)
        num = float(np.sum(ce * du**2) + np.sum(w * scal * u**2))
        den = float(np.sum(w * u**6))
        return num / den ** (1.0 / 3.0), num, den

    def gradient(u: np.ndarray, num: float, den: float) -> np.ndarray:
        du = diffs(u)
        g = 2.0 * w * scal * u
        if periodic:
            g += -2.0 * ce * du + np.roll(2.0 * ce * du, 1)
        else:
            g[:-1] += -2.0 * ce * du
            g[1:] += 2.0 * ce * du
        return g / den ** (1.0 / 3.0) - (num / (3.0 * den ** (4.0 / 3.0))) * 6.0 * w * u**5

    if u0 is None:
        u = np.ones_like(centers)
    elif callable(u0):
        u = np.asarray(u0(centers), dtype=float)
    else:
        u = np.asarray(u0, dtype=float).copy()
        if u.shape != centers.shape:
            raise ValueError(f"u0 must have {centers.size} samples")
    u = np.maximum(u, cfg.u_floor)
    u /= np.sum(w * u**6) ** (1.0 / 6.0)

    J, num, den = energy(u)
    trace = [J]
    g = gradient(u, num, den)
    step = cfg.step_size / max(np.max(np.abs(g)), 1e-30)
    u_prev = g_prev = None
    converged = False
    for _ in range(cfg.max_iterations):
        if u_prev is not None:
            du_ = u - u_prev
            dg_ = g - g_prev
            curv = float(np.dot(du_, dg_))
            if curv > 0.0:
                step = float(np.dot(du_, du_)) / curv
        accepted = False
        t = step
        for _ in range(60):
            u_new = np.maximum(u - t * g, cfg.u_floor)
            u_new /= np.sum(w * u_new**6) ** (1.0 / 6.0)
            J_new, num_new, den_new = energy(u_new)
            if J_new <= J - 1e-4 * t * float(np.dot(g, g)):
                accepted = True
                break
            t *= cfg.armijo_shrink
        if not accepted:
            converged = True  # no descent direction left at this resolution
            break
        u_prev, g_prev = u, g
        u, J, num, den = u_new, J_new, num_new, den_new
        g = gradient(u, num, den)
        trace.append(J)
        if len(trace) > 51 and trace[-51] - trace[-1] < cfg.decrease_tol * max(1.0, abs(J)):
            converged = True
            break

    u_star = RadialFunction(grid=centers, values=u)
    mu_upper = conformal_functional(metric, u_star.as_field())
    return MinimizeResult(
        mu_upper=mu_upper,
        u_star=u_star,
        trace=np.asarray(trace),
        converged=converged,
    )
