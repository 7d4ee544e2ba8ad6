"""Fiber-scaling experiments: collapse to zero, divergence, and the sandwich.

Scanning the closed-form functional over a ladder of constant fiber lengths
exhibits the three regimes: an interior maximum (positive chi with a
nonvanishing curvature form), unbounded growth like ell^{2/3} (positive chi,
flat bundle), and decay to zero from below like ell^{8/3} (chi <= 0).  All
rates are power laws, so ladders are logarithmic by default and the fitted
log-log slope is the diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import FieldLike, NormReport, _norms
from .errors import DegenerateData, InvalidCase, PositiveChi
from .numerics import QuadratureConfig
from .orbifold import Base, area, chi_orb
from .yamabe import _curvature_form_vanishes, closed_form_J, functional_J_closed

__all__ = [
    "ScanTable",
    "ell_scan",
    "collapse_bounds",
    "fit_exponent",
    "fiber_regime",
    "REGIME_INTERIOR_MAX",
    "REGIME_DIVERGES",
    "REGIME_SUP_ZERO",
]

REGIME_INTERIOR_MAX = "MaxInterior"
REGIME_DIVERGES = "DivergesAsEllGrows"
REGIME_SUP_ZERO = "SupZeroNotAttained"


def fiber_regime(chi: float, norms: NormReport) -> str:
    """The regime of the constant-fiber functional as ell grows, from chi and
    the `omega_norms` report: chi <= 0 has supremum 0, not attained; a flat
    bundle, whose curvature form vanishes by the library's one zero test
    (`yamabe._curvature_form_vanishes`, unchanged by scaling the metric),
    grows without bound; any other has an interior maximum, whatever its
    Chern number."""
    if chi <= 0:
        return REGIME_SUP_ZERO
    return REGIME_DIVERGES if _curvature_form_vanishes(norms) else REGIME_INTERIOR_MAX


def _collapse_lower(norms: NormReport, ell: float) -> float:
    """The Hoelder collapse lower bound
    -(2 pi ell)^{2/3} (||Scal_B||_{3/2} + (1/4) ||Omega||_3^2), valid for
    ell <= 1, at one fiber length: a number, raised to 2/3 by libm's pow on
    every CPU, so that `ell_scan` and `collapse_bounds` read the same float.
    It applies to chi <= 0 bases alone, and every such base is the flat torus
    (a profile's cone orders are positive integers, so its chi is positive),
    where 2K = 0: the base term is 0 and is not computed."""
    return -((2.0 * math.pi * ell) ** (2.0 / 3.0)) * (0.25 * norms.omega_L3_sq)


@dataclass
class ScanTable:
    """Rows (ell, J, optional collapse lower bound, flags), sorted by ell."""

    ell: np.ndarray
    J: np.ndarray
    lower: np.ndarray | None
    flags: list[str]
    regime: str
    exponent: float | None = None
    coefficient: float | None = None

    def _bounds(self) -> list[float | None]:
        # a row without a collapse lower bound has None, not the NaN of `lower`
        low = self.lower if self.lower is not None else [None] * len(self.ell)
        return [None if v is None or not np.isfinite(v) else float(v) for v in low]

    def rows(self):
        return list(zip(self.ell.tolist(), self.J.tolist(), self._bounds(), self.flags))

    def columns(self) -> dict[str, list]:
        """The rows as the columns ell, J, flag and, in the regime that has
        them, lower_bound, where a row without a bound has None: null in
        JSON and an empty cell in CSV."""
        cols = {"ell": self.ell.tolist(), "J": self.J.tolist(), "flag": self.flags}
        if self.lower is not None:
            cols["lower_bound"] = self._bounds()
        return cols


def ell_scan(
    base: Base, F: FieldLike, ell_values, cfg: QuadratureConfig | None = None
) -> ScanTable:
    """Closed-form functional values over a ladder of constant fiber lengths.

    Each row is computed at its own fiber length as a number, so its J is
    `functional_J_closed` and, on a chi <= 0 base with ell <= 1, its lower
    bound is `collapse_bounds`'s, to the bit and on every CPU (numpy's array
    power rounds differently from libm's pow where it has wider kernels)."""
    ells = np.sort(np.asarray(list(ell_values), dtype=float))
    if ells.size == 0:
        raise ValueError("need at least one fiber length")
    if np.any(ells <= 0):
        raise ValueError("fiber lengths must be positive")

    chi = chi_orb(base)
    norms = _norms(base, F, cfg)
    vol, ladder = area(base, cfg), ells.tolist()
    J = np.array([closed_form_J(vol, chi, norms.omega_L2_sq, ell) for ell in ladder])

    regime = fiber_regime(chi, norms)
    flags = [""] * ells.size
    lower = None
    if regime == REGIME_INTERIOR_MAX:
        flags[int(np.argmax(J))] = "max"
    elif regime == REGIME_SUP_ZERO:
        lower = np.array([_collapse_lower(norms, ell) if ell <= 1.0 else math.nan for ell in ladder])
        flags = ["collapse" if ell <= 1.0 else "ell>1" for ell in ladder]

    table = ScanTable(ell=ells, J=J, lower=lower, flags=flags, regime=regime)
    if ells.size >= 4 and np.all(np.abs(J) > 0):
        try:
            table.exponent, table.coefficient = fit_exponent(table)
        except DegenerateData:
            pass
    return table


def collapse_bounds(
    base: Base, F: FieldLike, ell: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float]:
    """(upper, lower) sandwich for the collapse regime at one fiber length.

    upper is the functional value itself; lower is the Hoelder bound
    (`_collapse_lower`), valid for ell <= 1.  Requires chi <= 0, that is,
    the flat torus, where the bound's base-curvature term is 0.
    """
    if chi_orb(base) > 0:
        raise PositiveChi("collapse bounds apply only to chi <= 0 bases")
    if ell <= 0:
        raise ValueError("fiber length must be positive")
    if ell > 1.0:
        raise InvalidCase("the collapse lower bound is normalized to ell <= 1")
    norms = _norms(base, F, cfg)
    return functional_J_closed(base, F, ell, cfg, norms=norms), _collapse_lower(norms, ell)


def fit_exponent(table: ScanTable) -> tuple[float, float]:
    """Least-squares slope of log |J| against log ell, with the coefficient.

    Rows with J = 0 are discarded; fewer than 4 usable rows, or a ladder
    without spread, raises DegenerateData.
    """
    mask = np.abs(table.J) > 0.0
    if int(np.count_nonzero(mask)) < 4:
        raise DegenerateData("need at least 4 rows with nonzero J")
    x = np.log(table.ell[mask])
    y = np.log(np.abs(table.J[mask]))
    if np.ptp(x) < 1e-12:
        raise DegenerateData("fiber-length ladder has no spread")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(math.exp(intercept))
