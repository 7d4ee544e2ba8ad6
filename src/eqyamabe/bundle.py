"""Circle-invariant metrics on circle bundles over a rotationally symmetric base.

A metric is (base, ell, F): the base orbifold, the fiber-length profile ell,
and the curvature density F defining the curvature 2-form as F times the base
area form.  With the convention that the area form has pointwise norm sqrt(2),
the squared norm of the curvature form is 2 F^2.

The Laplacian is taken nonnegative throughout: on radial functions
Delta f = -(phi f')' / phi.  This is the unique sign under which the two
equivalent forms of the submersion scalar-curvature formula coincide; see
`scalar_curvature_total` and the companion `_scalar_curvature_log_form`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .numerics import _DEFAULT_CONFIG, QuadratureConfig, _sampled_series, _with_dips
from .numerics import sign_change_roots, trig_interpolant, trig_series
from .orbifold import (
    Base,
    _norm_reports,
    gauss_curvature,
    integrate_over_base,
    quadrature_nodes,
    scalar_curvature_integral,
    scale_base,
)

__all__ = [
    "RadialField",
    "InvariantMetric",
    "NormReport",
    "scalar_curvature_total",
    "omega_norms",
    "volume_total",
    "scale_metric",
]


@dataclass(frozen=True)
class RadialField:
    """A radial (circle-invariant) function on the base with two derivatives.

    Wherever a field is taken, a number, a `RadialField` or a plain vectorized
    callable of s will do (`as_radial_field`); a plain callable is read as a
    chopped trigonometric series and needs no derivatives.  Callables must be
    vectorized, and pure for the life of the field: the
    curvature-form norms of a field are computed once per base and config
    (`omega_norms`), as a base's values are.  `constant` is set when the field
    is known to be constant, which lets closed-form evaluations skip
    quadrature.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    constant: float | None = None

    @classmethod
    def const(cls, c: float) -> "RadialField":
        c = float(c)
        return cls(
            value=lambda s: np.full_like(np.asarray(s, dtype=float), c),
            d1=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            d2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            constant=c,
        )

    @classmethod
    def from_samples(cls, grid: np.ndarray, values: np.ndarray,
                     periodic: bool = False) -> "RadialField":
        """Trigonometric series (`numerics.trig_interpolant`) through samples
        on the endpoint grid linspace(0, L, n), and no other grid.  A smooth
        field is even about each pole, so off the torus the samples are
        extended evenly to period 2L (a cosine series); on the torus the
        samples must match at the seam.
        """
        return cls(*trig_interpolant(*_one_period(grid, values, periodic)))


def _one_period(grid: np.ndarray, values: np.ndarray,
                periodic: bool) -> tuple[np.ndarray, float, float]:
    """One period of the series through samples on linspace(0, L, n), with its
    start and its period: on the torus the samples less the repeat at the
    seam, off it their even extension to period 2L."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape:
        raise ValueError("grid and values must be matching 1-d arrays")
    length = float(grid[-1])
    if not np.allclose(grid, np.linspace(0.0, length, grid.size), rtol=0.0, atol=1e-12 * length):
        raise ValueError("samples must lie on the uniform endpoint grid linspace(0, L, n)")
    if periodic:
        if abs(values[0] - values[-1]) > 1e-12 * max(1.0, abs(values[0])):
            raise ValueError("periodic samples must match at the seam")
        return values[:-1], 0.0, length
    return np.concatenate([values, values[-2:0:-1]]), 0.0, 2.0 * length


FieldLike = Union[RadialField, float, int, Callable]


def as_radial_field(obj: FieldLike, base: Base) -> RadialField:
    """A `RadialField` as itself, a number as a constant field, and a plain
    vectorized callable as its series on the base, chopped to rounding: read
    from its samples alone by the sampling ladder of `numerics`
    (`_sampled_series`), extended as `RadialField.from_samples` extends them.
    """
    if isinstance(obj, RadialField):
        return obj
    if isinstance(obj, (int, float)):
        return RadialField.const(float(obj))
    if not callable(obj):
        raise TypeError(f"cannot interpret {type(obj).__name__} as a radial field")
    ends = "the seam" if base.periodic else "the poles"
    one_period = lambda grid, values: _one_period(grid, values, base.periodic)  # noqa: E731
    series = _sampled_series(obj, base.length, one_period, "a radial callable", ends)
    return RadialField(*trig_series(*series))


@dataclass(frozen=True)
class InvariantMetric:
    """base + fiber-length profile + curvature density, all radial.  ell and F
    may be given as anything `as_radial_field` reads and are kept as the
    `RadialField`s it returns."""

    base: Base
    ell: RadialField
    F: RadialField

    def __post_init__(self) -> None:
        for name in ("ell", "F"):
            object.__setattr__(self, name, as_radial_field(getattr(self, name), self.base))
        # a field whose `constant` is set is not evaluated: its slopes are zero
        probe, points = _probes(self.base.length, bool(self.base.cone_orders))
        ell = self.ell
        if ell.constant is None:
            nonpositive = np.any(np.asarray(ell.value(probe), dtype=float) <= 0.0)
        else:
            nonpositive = ell.constant <= 0.0  # the probe's comparison: NaN passes
        if nonpositive:
            raise ValueError("fiber length must be strictly positive on the base")
        if points is not None:
            # invariant data must be smooth across the poles: the radial
            # derivative must vanish there, so the slope at a pole should be
            # a small fraction of the field's interior slope scale
            for field, name in ((ell, "ell"), (self.F, "F")):
                if field.constant is not None:
                    continue
                slopes = np.abs(np.asarray(field.d1(points), dtype=float))
                interior = slopes[:-2].max()
                if interior <= 1e-12:
                    continue
                pole_slope = float(slopes[-2:].max())
                if pole_slope > 0.05 * interior:
                    warnings.warn(
                        f"{name}' does not vanish at a cone pole "
                        f"(|{name}'| ~ {pole_slope:.2e}); data may not be smooth "
                        "on the orbifold",
                        stacklevel=2,
                    )


@lru_cache(maxsize=64)
def _probes(length: float, poles: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The read-only points where `InvariantMetric` checks its fields on a
    base of this length: 257 from end to end (inset by 1e-6 L where there
    are poles) for the sign of ell, and, where there are poles, the same
    with both poles appended for the slopes."""
    inset = 1e-6 if poles else 0.0  # no poles: probe end to end
    probe = np.linspace(inset * length, length * (1.0 - inset), 257)
    probe.flags.writeable = False
    if not poles:
        return probe, None
    points = np.append(probe, [0.0, length])
    points.flags.writeable = False
    return probe, points


@dataclass(frozen=True)
class NormReport:
    omega_L1: float
    omega_L2_sq: float
    omega_L3_sq: float
    scal_L32: float
    chern_number: float


def _laplacian_of(field: RadialField, base: Base, s):
    """Nonnegative radial Laplacian -(phi f')'/phi = -(phi'/phi) f' - f''."""
    s = np.asarray(s, dtype=float)
    return -base.dlog_density(s) * field.d1(s) - field.d2(s)


def scalar_curvature_total(metric: InvariantMetric, s):
    """Total-space scalar curvature at base point s.

    2 K - (ell^2 / 2) F^2 + 2 Delta(ell)/ell, with the nonnegative Laplacian
    and |Omega|^2 = 2 F^2.  On a profile, s must lie in the open interval
    (0, L).
    """
    return _scalar_curvature(
        metric, s, metric.ell.value(s), gauss_curvature(metric.base, s), metric.F.value(s)
    )


def _scalar_curvature(metric: InvariantMetric, s, ell, K, F):
    """`scalar_curvature_total` at s, given the values of ell, K and F there."""
    return 2.0 * K - 0.5 * ell**2 * F**2 + 2.0 * _laplacian_of(metric.ell, metric.base, s) / ell


def _scalar_curvature_log_form(metric: InvariantMetric, s):
    """Alternate form with 2 Delta(log ell) - 2 |d ell|^2 / ell^2.

    Must agree pointwise with `scalar_curvature_total`; the agreement pins the
    Laplacian sign convention and is asserted in the test suite.
    """
    base = metric.base
    ell = metric.ell.value(s)
    dell = metric.ell.d1(s)
    F = metric.F.value(s)
    K = gauss_curvature(base, s)
    lap_log = -(metric.ell.d2(s) / ell - (dell / ell) ** 2)
    lap_log = -base.dlog_density(s) * (dell / ell) + lap_log
    return 2.0 * K - 0.5 * ell**2 * F**2 - 2.0 * (dell / ell) ** 2 + 2.0 * lap_log


def omega_norms(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> NormReport:
    """L^p norms of the curvature form, the 3/2-norm of the base scalar
    curvature, and the measured Chern number (1/2pi) int F dv.

    The report is computed once per (base, F, config) and kept in the base's
    quadrature plan until F or the base is garbage-collected, so a repeat is
    a lookup (a field whose callables cannot be hashed is computed afresh).
    A fractional Chern number is warned about on every call.
    """
    return _norms(metric.base, metric.F, cfg, validated=True)


def _norms(
    base: Base, F: FieldLike, cfg: QuadratureConfig | None = None, validated: bool = False
) -> NormReport:
    """`omega_norms` of (base, F).  A report not yet in the plan first
    validates F as `InvariantMetric` does, unless the caller's metric already
    has (`validated`)."""
    F = as_radial_field(F, base)
    cfg = cfg or _DEFAULT_CONFIG
    reports = _norm_reports(base, F)
    report = reports.get(cfg)
    if report is None:
        if not validated:
            InvariantMetric(base, RadialField.const(1.0), F)  # warns on F' at a pole
        report = reports[cfg] = _compute_norms(base, F, cfg)
    _warn_on_fractional_chern(base, report.chern_number)
    return report


def _compute_norms(base: Base, field: RadialField, cfg: QuadratureConfig) -> NormReport:
    """The quadrature behind `omega_norms`.

    F is evaluated once per refinement level: the four integrands of F are
    rows of one integral, whose first call, when F has no root, receives the
    first-level nodes where F was evaluated to look for roots.  |F| has a
    kink wherever F changes sign, so the roots of F found between the first
    level's nodes (and the ends of a base without poles) split the integral
    into pieces, and every row converges as for a smooth integrand.  Two
    roots between the same pair of nodes are found where F dips across zero
    at the vertex of the parabola through its values at three nodes
    (`numerics._with_dips`); a shallower dip is not seen, and the integral
    refines across its kinks only where the nested levels disagree.  The
    scalar-curvature integral depends on the base alone and is computed once
    per base and config by `scalar_curvature_integral`.
    """
    scal = scalar_curvature_integral(base, cfg)
    F = field.value
    sqrt2 = math.sqrt(2.0)
    nodes = quadrature_nodes(base)
    f_nodes = F(nodes)
    x, fx = nodes, f_nodes
    if not base.cone_orders:
        # no poles: the area element does not vanish at the ends, so a root
        # between an end and its nearest node must be found too
        ends = np.array([0.0, base.length])
        f_ends = np.zeros(2) + F(ends)
        x = np.concatenate([ends[:1], nodes, ends[1:]])
        fx = np.concatenate([f_ends[:1], f_nodes, f_ends[1:]])
    roots = sign_change_roots(F, field.d1, *_with_dips(F, x, fx))

    def rows(s):
        # sqrt2 |F|, 2 F^2, (sqrt2 |F|)^3 and F, written in place
        out = np.empty((4, np.size(s)))
        l1, l2, l3, chern = out
        chern[:] = f_nodes if s is nodes else F(s)
        np.multiply(sqrt2, np.abs(chern, out=l1), out=l1)
        np.multiply(2.0, np.square(chern, out=l2), out=l2)
        np.power(l1, 3, out=l3)
        return out

    l1, l2sq, l3, chern = integrate_over_base(base, rows, cfg, breaks=roots)
    return NormReport(
        omega_L1=l1.value,
        omega_L2_sq=l2sq.value,
        omega_L3_sq=l3.value ** (2.0 / 3.0),
        scal_L32=scal ** (2.0 / 3.0),
        chern_number=chern.value / (2.0 * math.pi),
    )


def _warn_on_fractional_chern(base: Base, chern: float) -> None:
    # quantization is not enforced, only flagged: m1 m2 c1 should be an integer
    m_product = math.prod(base.cone_orders)
    scaled = m_product * chern
    if abs(scaled - round(scaled)) > 1e-3:
        warnings.warn(
            f"curvature density has non-integral Chern data: {m_product} * {chern:.6f} "
            "is not close to an integer",
            stacklevel=4,  # the caller of omega_norms or of a function reading the norms
        )


def volume_total(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> float:
    """Total volume of the 3-manifold: every fiber has length 2 pi ell."""
    return 2.0 * math.pi * integrate_over_base(metric.base, metric.ell.value, cfg).value


def scale_metric(metric: InvariantMetric, c: float) -> InvariantMetric:
    """Scale base and fiber coherently: g -> c^2 g, ell -> c ell, F -> F / c^2.

    The curvature 2-form is unchanged, so the Chern number is too, and the
    total scalar curvature scales by c^-2.
    """
    new_base = scale_base(metric.base, c)  # raises on c <= 0
    old_ell, old_F = metric.ell, metric.F
    new_ell = RadialField(
        value=lambda s: c * old_ell.value(np.asarray(s) / c),
        d1=lambda s: old_ell.d1(np.asarray(s) / c),
        d2=lambda s: old_ell.d2(np.asarray(s) / c) / c,
        constant=None if old_ell.constant is None else c * old_ell.constant,
    )
    new_F = RadialField(
        value=lambda s: old_F.value(np.asarray(s) / c) / c**2,
        d1=lambda s: old_F.d1(np.asarray(s) / c) / c**3,
        d2=lambda s: old_F.d2(np.asarray(s) / c) / c**4,
        constant=None if old_F.constant is None else old_F.constant / c**2,
    )
    return InvariantMetric(base=new_base, ell=new_ell, F=new_F)
