"""Circle-invariant metrics on circle bundles over a rotationally symmetric base.

A metric is (base, ell, F): the base orbifold, the fiber-length profile ell,
and the curvature density F defining the curvature 2-form as F times the base
area form.  With the convention that the area form has pointwise norm sqrt(2),
the squared norm of the curvature form is 2 F^2.

The Laplacian is taken nonnegative throughout: on radial functions
Delta f = -(phi f')' / phi.  This is the unique sign under which the two
equivalent forms of the submersion scalar-curvature formula coincide; see
`scalar_curvature_total`, which the test suite checks against the other form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import NonFinite
from .numerics import _DEFAULT_CONFIG, QuadratureConfig, TrigSeries, _interpolant
from .numerics import _sampled_series, _with_dips, sign_change_roots
from .orbifold import (
    _GRID_LEVEL,
    Base,
    _chain_rule,
    _planned,
    _rule,
    gauss_curvature,
    integrate_over_base,
    quadrature_nodes,
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


@dataclass(frozen=True, eq=False)
class RadialField:
    """A radial (circle-invariant) function on the base with two derivatives.

    A field is one of three kinds, and keeps what it sums: its `constant`
    (`const`), its `numerics.TrigSeries` as `series` (`from_series`, which
    samples, a plain callable and a Galerkin solve go through), or three
    callables value, d1 and d2 in closed form (the wps density, a user's
    `RadialField(value, d1, d2)`), which may carry a known `constant` (a
    scaled constant field, `scale_metric`).  `value`, `d1` and `d2` are
    instance attributes set where the field is built, from its constant or
    its series for those kinds, and every evaluation reads them.

    A field compares and hashes by identity.  The curvature-form norms of a
    field are kept per base and config under the field itself
    (`omega_norms`); callables must be vectorized, and pure for the life of
    the field.  Wherever a field is
    taken, a number, a `RadialField` or a plain vectorized callable of s
    will do (`as_radial_field`); a plain callable is read as a chopped
    trigonometric series and needs no derivatives.  Where `constant` is set,
    `InvariantMetric`'s positivity and pole checks read that number instead
    of evaluating the field, the scalar curvature of a constant ell drops
    its Laplacian term (ell' and ell'' are not read), the norms of a
    constant F skip the search for its roots, and `scale_metric` scales it.
    Every integral still evaluates the field's values at its nodes.
    """

    value: Callable[[np.ndarray], np.ndarray] | None = None
    d1: Callable[[np.ndarray], np.ndarray] | None = None
    d2: Callable[[np.ndarray], np.ndarray] | None = None
    constant: float | None = None
    series: TrigSeries | None = None

    def __post_init__(self) -> None:
        # the one place where a field's callables come from what it sums
        if self.value is not None:  # callables in closed form
            return
        if self.series is not None:
            fns = (self.series.value, self.series.d1, self.series.d2)
        else:
            c = float(self.constant)
            zeros = lambda s: np.zeros_like(np.asarray(s, dtype=float))  # noqa: E731
            fns = (lambda s: np.full_like(np.asarray(s, dtype=float), c), zeros, zeros)
            object.__setattr__(self, "constant", c)
        for name, fn in zip(("value", "d1", "d2"), fns):
            object.__setattr__(self, name, fn)

    @classmethod
    def const(cls, c: float) -> "RadialField":
        return cls(constant=c)

    @classmethod
    def from_series(cls, series: TrigSeries) -> "RadialField":
        """The field a `numerics.TrigSeries` sums, with its two derivatives."""
        return cls(series=series)

    @classmethod
    def from_samples(cls, values: np.ndarray, length: float,
                     periodic: bool = False) -> "RadialField":
        """Trigonometric series through samples on linspace(0, length, n), ends
        included (`numerics._interpolant`).  A smooth field is even about
        each pole, so off the torus the samples are extended evenly to period
        2L (a cosine series); on the torus the samples must match at the
        seam.  Samples whose series leaves the doubles, such as finite values
        near DBL_MAX, raise NonFinite (`numerics.TrigSeries`).
        """
        values, length = np.asarray(values, dtype=float), float(length)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"need a 1-d array of at least 2 samples, got shape {values.shape}")
        if not 0.0 < length < math.inf:
            raise ValueError(f"samples must span a positive, finite length L, got L = {length}")
        return cls.from_series(_interpolant(values, length, "periodic" if periodic else "even")[0])


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
    parity = "periodic" if base.periodic else "even"
    return RadialField.from_series(_sampled_series(obj, base.length, parity, "a radial callable"))


@dataclass(frozen=True)
class InvariantMetric:
    """base + fiber-length profile + curvature density, all radial.  ell and F
    may be given as anything `as_radial_field` reads and are kept as the
    `RadialField`s it returns.

    ell must be positive at the 511 nodes of the base plan's Galerkin grid
    (`orbifold._GRID_LEVEL`), the points where every check on a base reads
    its field; they include every node an integral's first levels read, the
    nearest 9.4e-6 L from either end (ValueError otherwise).  On a base with
    cone poles, the slope of ell or F at a pole must be small against its
    largest slope at the same nodes (a warning otherwise), and the nodes are
    read only past pole slopes of 5e-14, below which it cannot fire
    (`_check_poles`); a series field's pole slopes are read off its tail
    (`TrigSeries.pole_slopes`), any other field's by its d1 at the poles.  A
    constant field is not evaluated, so the grid is built only for a field
    that is.

    `_nodes` keeps, per level of the base's plan, ell, K, F and the total
    scalar curvature at that level's node array (`_node_values`), computed
    on first use; like a base's plan it is out of the repr and of
    comparisons, and dies with the metric."""

    base: Base
    ell: RadialField
    F: RadialField
    _nodes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("ell", "F"):
            object.__setattr__(self, name, as_radial_field(getattr(self, name), self.base))
        # a field whose `constant` is set is not evaluated: its slopes are
        # zero, and the grid is fetched only for a field that is
        ell, base = self.ell, self.base
        if ell.constant is None:
            values = ell.value(_rule(base, _GRID_LEVEL)[0])
            nonpositive = np.any(np.asarray(values, dtype=float) <= 0.0)
        else:
            nonpositive = ell.constant <= 0.0  # the grid's comparison: NaN passes
        if nonpositive:
            raise ValueError("fiber length must be strictly positive on the base")
        _check_poles(base, ell, "ell")
        _check_poles(base, self.F, "F")


def _check_poles(base: Base, field: RadialField, name: str) -> None:
    """Warn where a field is not flat at a cone pole of the base.  Its two
    callers, `InvariantMetric.__post_init__` and `_norms`, are each two
    frames below the line that built the metric or called the function that
    reads the norms, which the warning names.

    Invariant data must be smooth across the poles: the radial derivative
    must vanish there, so the slope at a pole should be a small fraction of
    the field's interior slope scale.  Only an interior slope above 1e-12
    counts, so pole slopes of at most 0.05 times that pass whatever the
    interior holds: the interior is read only past them.  A series reads its
    pole slopes off its tail (`TrigSeries.pole_slopes`): its cosine terms are
    flat at the poles, where the even extension of samples with a slope has
    its kink."""
    if not base.cone_orders or field.constant is not None:
        return
    if field.series is not None:
        pole_slope = max(map(abs, field.series.pole_slopes()))
    else:
        poles = np.array([0.0, base.length])
        pole_slope = float(np.abs(np.asarray(field.d1(poles), dtype=float)).max())
    if pole_slope <= 0.05 * 1e-12:
        return
    interior = np.abs(np.asarray(field.d1(_rule(base, _GRID_LEVEL)[0]), dtype=float)).max()
    if interior > 1e-12 and pole_slope > 0.05 * interior:
        warnings.warn(
            f"{name}' does not vanish at a cone pole (|{name}'| ~ {pole_slope:.2e}); "
            "data may not be smooth on the orbifold",
            stacklevel=4,
        )


@dataclass(frozen=True)
class NormReport:
    """|Omega|_1, |Omega|_2^2 and |Omega|_3^2 of the curvature form, and the
    measured Chern number (1/2pi) int F dA."""

    omega_L1: float
    omega_L2_sq: float
    omega_L3_sq: float
    chern_number: float


def _laplacian(base: Base, s, d1, d2):
    """Nonnegative radial Laplacian -(phi f')'/phi = -(phi'/phi) f' - f'' at
    s, from the values d1 = f' and d2 = f'' there."""
    return -base.dlog_density(s) * d1 - d2


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
    """`scalar_curvature_total` at s, given the values of ell, K and F there.
    A constant ell (`RadialField.constant`) has no Laplacian term, so its
    slopes are not read."""
    scal = 2.0 * K - 0.5 * ell**2 * F**2
    if metric.ell.constant is None:
        scal = scal + 2.0 * _laplacian(metric.base, s, metric.ell.d1(s), metric.ell.d2(s)) / ell
    return scal


def _node_values(metric: InvariantMetric, s) -> tuple:
    """ell, K, F and the total scalar curvature at s.  At the node array of a
    level of the base's plan they are computed once per metric and level and
    kept, read-only, on the metric (`InvariantMetric._nodes`, by
    `orbifold._planned`), out of scale or not: every caller evaluates them
    with numpy's floating-point warnings off and raises on values that are
    not finite."""

    def compute(s):
        ell = np.asarray(metric.ell.value(s), dtype=float)
        K, F = gauss_curvature(metric.base, s), np.asarray(metric.F.value(s), dtype=float)
        return ell, K, F, np.asarray(_scalar_curvature(metric, s, ell, K, F), dtype=float)

    return _planned(metric._nodes, metric.base, "rows", s, compute)


def omega_norms(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> NormReport:
    """L^p norms of the curvature form and the measured Chern number
    (1/2pi) int F dv.

    The report is computed once per (base, F, config) and kept in the base's
    quadrature plan, under the field object itself, until F or the base is
    garbage-collected, so a repeat with the same F is a lookup.
    A fractional Chern number is warned about on every call; the verdict and
    its message are kept beside the report.  An F whose integrals leave the
    doubles raises NonFinite naming the largest |F| read, with no numpy
    warning (`_compute_norms`).
    """
    return _norms(metric.base, metric.F, cfg, validated=True)


def _norms(
    base: Base, F: FieldLike, cfg: QuadratureConfig | None = None, validated: bool = False
) -> NormReport:
    """`omega_norms` of (base, F).  A report not yet in the plan first checks
    F's pole slopes as `InvariantMetric` does (`_check_poles`), unless the
    caller's metric already has (`validated`)."""
    F = as_radial_field(F, base)
    cfg = cfg or _DEFAULT_CONFIG
    reports = base._plan.norms.setdefault(F, {})
    kept = reports.get(cfg)
    if kept is None:
        if not validated:
            _check_poles(base, F, "F")
        report = _compute_norms(base, F, cfg)
        kept = reports[cfg] = (report, _fractional_chern(base, report.chern_number))
    report, message = kept
    if message is not None:
        # the caller of omega_norms or of a function reading the norms
        warnings.warn(message, stacklevel=3)
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
    refines across its kinks only where the nested levels disagree; a
    constant F (`RadialField.constant`) has no root, and none is sought.
    An F whose integrals leave the doubles, at a node or in a level sum,
    raises NonFinite naming F and the largest |F| read, with no numpy
    warning: the quadrature decides, by its one rule for an integral out of
    scale (`numerics._refine`); a NaN F keeps the quadrature's own
    NonFinite.
    """
    F = field.value
    sqrt2 = math.sqrt(2.0)
    nodes = quadrature_nodes(base)
    f_nodes = F(nodes)
    read = [f_nodes]  # F at each node array read
    roots = ()  # a constant F has no root
    if field.constant is None:
        x, fx = nodes, f_nodes
        if not base.cone_orders:
            # no poles: the area element does not vanish at the ends, so a
            # root between an end and its nearest node must be found too
            ends = np.array([0.0, base.length])
            f_ends = np.zeros(2) + F(ends)
            x = np.concatenate([ends[:1], nodes, ends[1:]])
            fx = np.concatenate([f_ends[:1], f_nodes, f_ends[1:]])
        roots = sign_change_roots(F, field.d1, *_with_dips(F, x, fx))

    def rows(s):
        # sqrt2 |F|, 2 F^2, (sqrt2 |F|)^3 and F, written in place
        out = np.empty((4, np.size(s)))
        l1, l2, l3, chern = out
        if s is not nodes:  # the first call, at the nodes, has read F already
            read.append(F(s))
        chern[:] = read[-1]
        np.abs(chern, out=l1)
        np.multiply(sqrt2, l1, out=l1)
        np.multiply(2.0, np.square(chern, out=l2), out=l2)
        np.power(l1, 3, out=l3)
        return out

    try:
        l1, l2sq, l3, chern = integrate_over_base(base, rows, cfg, breaks=roots)
    except NonFinite as exc:
        largest = np.max([np.abs(values).max() for values in read])
        if np.isnan(largest):  # F itself is not a number: the quadrature's message
            raise
        message = f"the curvature density F reaches |F| = {largest:.3e}: out of scale"
        raise NonFinite(message) from exc
    return NormReport(
        omega_L1=l1.value,
        omega_L2_sq=l2sq.value,
        omega_L3_sq=l3.value ** (2.0 / 3.0),
        chern_number=chern.value / (2.0 * math.pi),
    )


def _fractional_chern(base: Base, chern: float) -> str | None:
    """The warning that lcm(m1, m2) c1 is not close to an integer, or None
    when it is: the Chern numbers of circle orbibundles over the base lie in
    (1 / lcm(m1, m2)) Z.  Quantization is not enforced, only flagged."""
    lcm = math.lcm(*base.cone_orders)
    scaled = lcm * chern
    if abs(scaled - round(scaled)) > 1e-3:
        return (
            f"curvature density has non-integral Chern data: {lcm} * {chern:.6f} "
            "is not close to an integer"
        )
    return None


def volume_total(metric: InvariantMetric, cfg: QuadratureConfig | None = None) -> float:
    """Total volume of the 3-manifold: every fiber has length 2 pi ell."""
    return 2.0 * math.pi * integrate_over_base(metric.base, metric.ell.value, cfg).value


def scale_metric(metric: InvariantMetric, c: float) -> InvariantMetric:
    """Scale base and fiber coherently: g -> c^2 g, ell -> c ell, F -> F / c^2.

    ell(s) becomes c ell(s/c) and F(s) becomes F(s/c) / c^2, their
    derivatives by the chain rule of the base (`orbifold._chain_rule`), and a
    known constant scales with them.  The curvature 2-form is unchanged, so
    the Chern number is too, and the total scalar curvature scales by c^-2.
    """
    new_base = scale_base(metric.base, c)  # raises on c <= 0
    ell, F = metric.ell, metric.F
    return InvariantMetric(
        base=new_base,
        ell=RadialField(*_chain_rule(c, 1, ell.value, ell.d1, ell.d2),
                        constant=None if ell.constant is None else c * ell.constant),
        F=RadialField(*_chain_rule(c, -2, F.value, F.d1, F.d2),
                      constant=None if F.constant is None else F.constant / c**2),
    )
