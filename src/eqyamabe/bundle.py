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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import NonFinite
from .numerics import _DEFAULT_CONFIG, QuadratureConfig, _interpolant, _sampled_series
from .numerics import _with_dips, sign_change_roots, trig_series
from .orbifold import (
    Base,
    _chain_rule,
    _norm_reports,
    _plan_level,
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


@dataclass(frozen=True)
class RadialField:
    """A radial (circle-invariant) function on the base with two derivatives.

    Wherever a field is taken, a number, a `RadialField` or a plain vectorized
    callable of s will do (`as_radial_field`); a plain callable is read as a
    chopped trigonometric series and needs no derivatives.  Callables must be
    vectorized, and pure for the life of the field: the
    curvature-form norms of a field are computed once per base and config
    (`omega_norms`), as a base's values are.  `constant` is set when the field
    is known to be constant: `InvariantMetric`'s positivity and pole checks
    then read that number instead of evaluating the field, the scalar
    curvature of a constant ell drops its Laplacian term (ell' and ell'' are
    not read), the norms of a constant F skip the search for its roots, and
    `scale_metric` scales it.  Every integral still evaluates the field's
    values at its nodes.
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
    def from_samples(cls, values: np.ndarray, length: float,
                     periodic: bool = False) -> "RadialField":
        """Trigonometric series through samples on linspace(0, length, n), ends
        included (`numerics._interpolant`).  A smooth field is even about
        each pole, so off the torus the samples are extended evenly to period
        2L (a cosine series); on the torus the samples must match at the
        seam.
        """
        values, length = np.asarray(values, dtype=float), float(length)
        if values.ndim != 1 or values.size < 2:
            raise ValueError(f"need a 1-d array of at least 2 samples, got shape {values.shape}")
        if not 0.0 < length < math.inf:
            raise ValueError(f"samples must span a positive, finite length L, got L = {length}")
        c, omega, _ = _interpolant(values, length, "periodic" if periodic else "even")
        return cls(*trig_series(c, omega))


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
    c, omega = _sampled_series(obj, base.length, parity, "a radial callable")
    return RadialField(*trig_series(c, omega))


@dataclass(frozen=True)
class InvariantMetric:
    """base + fiber-length profile + curvature density, all radial.  ell and F
    may be given as anything `as_radial_field` reads and are kept as the
    `RadialField`s it returns.

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
        # a field whose `constant` is set is not evaluated: its slopes are zero
        probe, poles = _probes(self.base.length, bool(self.base.cone_orders))
        ell = self.ell
        if ell.constant is None:
            nonpositive = np.any(np.asarray(ell.value(probe), dtype=float) <= 0.0)
        else:
            nonpositive = ell.constant <= 0.0  # the probe's comparison: NaN passes
        if nonpositive:
            raise ValueError("fiber length must be strictly positive on the base")
        if poles is not None:
            # invariant data must be smooth across the poles: the radial
            # derivative must vanish there, so the slope at a pole should be
            # a small fraction of the field's interior slope scale.  Only an
            # interior slope above 1e-12 counts, so pole slopes of at most
            # 0.05 times that pass whatever the interior holds: the interior
            # is probed only past them
            for field, name in ((ell, "ell"), (self.F, "F")):
                if field.constant is not None:
                    continue
                pole_slope = float(np.abs(np.asarray(field.d1(poles), dtype=float)).max())
                if pole_slope <= 0.05 * 1e-12:
                    continue
                interior = np.abs(np.asarray(field.d1(probe), dtype=float)).max()
                if interior <= 1e-12:
                    continue
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
    are poles) for the sign of ell and the interior slopes, and, where there
    are poles, the two poles for the pole slopes."""
    inset = 1e-6 if poles else 0.0  # no poles: probe end to end
    probe = np.linspace(inset * length, length * (1.0 - inset), 257)
    probe.flags.writeable = False
    if not poles:
        return probe, None
    ends = np.array([0.0, length])
    ends.flags.writeable = False
    return probe, ends


@dataclass(frozen=True)
class NormReport:
    """|Omega|_1, |Omega|_2^2 and |Omega|_3^2 of the curvature form, and the
    measured Chern number (1/2pi) int F dA."""

    omega_L1: float
    omega_L2_sq: float
    omega_L3_sq: float
    chern_number: float


# past DBL_MAX^(1/3) / sqrt2, about 4.0e102, the row (sqrt2 |F|)^3 of
# `_compute_norms` overflows (from a few ulps on)
_F_MAX = float(np.finfo(float).max) ** (1.0 / 3.0) / math.sqrt(2.0)


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
    """`scalar_curvature_total` at s, given the values of ell, K and F there.
    A constant ell (`RadialField.constant`) has no Laplacian term, so its
    slopes are not read."""
    scal = 2.0 * K - 0.5 * ell**2 * F**2
    if metric.ell.constant is None:
        scal = scal + 2.0 * _laplacian_of(metric.ell, metric.base, s) / ell
    return scal


@dataclass(frozen=True, eq=False)
class _NodeValues:
    """ell, K, F and the total scalar curvature at one node array."""

    ell: np.ndarray
    K: np.ndarray
    F: np.ndarray
    scal: np.ndarray


def _node_values(metric: InvariantMetric, s) -> _NodeValues:
    """ell, K, F and the total scalar curvature at s.  At the node array of a
    level of the base's plan they are computed once per metric and level and
    kept, read-only, on the metric (`InvariantMetric._nodes`).  Values out
    of scale, a curvature that is not finite, are not kept: every caller
    computes them afresh, and warns or raises by its own floating-point
    policy."""
    level = _plan_level(metric.base, s)
    kept = metric._nodes.get(level)
    if kept is not None:
        return kept
    ell = np.array(metric.ell.value(s), dtype=float)
    K, F = gauss_curvature(metric.base, s), np.array(metric.F.value(s), dtype=float)
    scal = np.asarray(_scalar_curvature(metric, s, ell, K, F), dtype=float)
    values = _NodeValues(ell, K, F, scal)
    if level is not None and np.isfinite(scal).all():
        for array in (ell, K, F, scal):
            array.flags.writeable = False
        metric._nodes[level] = values
    return values


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
    """L^p norms of the curvature form and the measured Chern number
    (1/2pi) int F dv.

    The report is computed once per (base, F, config) and kept in the base's
    quadrature plan until F or the base is garbage-collected, so a repeat is
    a lookup (a field whose callables cannot be hashed is computed afresh).
    A fractional Chern number is warned about on every call; the verdict and
    its message are kept beside the report.
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
    kept = reports.get(cfg)
    if kept is None:
        if not validated:
            InvariantMetric(base, RadialField.const(1.0), F)  # warns on F' at a pole
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
    An F past `_F_MAX` at a first-level node, where the row (sqrt2 |F|)^3
    overflows, raises NonFinite naming F and its size before any row is
    formed; a NaN F goes on to the quadrature's own NonFinite.
    """
    F = field.value
    sqrt2 = math.sqrt(2.0)
    nodes = quadrature_nodes(base)
    f_nodes = F(nodes)
    f_max = np.abs(f_nodes).max()
    if f_max > _F_MAX:  # NaN fails the comparison
        raise NonFinite(f"the curvature density F reaches |F| = {f_max:.3e}: out of scale")
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
