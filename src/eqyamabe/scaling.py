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

from .bundle import FieldLike, _norms
from .errors import DegenerateData, InvalidCase, PositiveChi
from .numerics import QuadratureConfig
from .orbifold import Base, area, chi_orb
from .yamabe import _OMEGA_ZERO_TOL, closed_form_J, functional_J_closed

__all__ = [
    "ScanTable",
    "ell_scan",
    "collapse_bounds",
    "fit_exponent",
    "REGIME_INTERIOR_MAX",
    "REGIME_DIVERGES",
    "REGIME_SUP_ZERO",
]

REGIME_INTERIOR_MAX = "MaxInterior"
REGIME_DIVERGES = "DivergesAsEllGrows"
REGIME_SUP_ZERO = "SupZeroNotAttained"


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
    """Closed-form functional values over a ladder of constant fiber lengths."""
    ells = np.sort(np.asarray(list(ell_values), dtype=float))
    if ells.size == 0:
        raise ValueError("need at least one fiber length")
    if np.any(ells <= 0):
        raise ValueError("fiber lengths must be positive")

    chi = chi_orb(base)
    norms = _norms(base, F, cfg)
    J = closed_form_J(area(base, cfg), chi, norms.omega_L2_sq, ells)

    if chi > 0 and norms.omega_L2_sq > _OMEGA_ZERO_TOL:
        regime = REGIME_INTERIOR_MAX
    elif chi > 0:
        regime = REGIME_DIVERGES
    else:
        regime = REGIME_SUP_ZERO

    flags = [""] * ells.size
    lower = None
    if regime == REGIME_INTERIOR_MAX:
        flags[int(np.argmax(J))] = "max"
    elif regime == REGIME_SUP_ZERO:
        lower = np.full(ells.size, np.nan)
        hold = ells <= 1.0
        if np.any(hold):
            holder = norms.scal_L32 + 0.25 * norms.omega_L3_sq
            lower[hold] = -((2.0 * math.pi * ells[hold]) ** (2.0 / 3.0)) * holder
        flags = ["collapse" if h else "ell>1" for h in hold]

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
    -(2 pi ell)^{2/3} (||Scal||_{3/2} + (1/4) ||Omega||_3^2), valid for
    ell <= 1.  Requires chi <= 0.
    """
    if chi_orb(base) > 0:
        raise PositiveChi("collapse bounds apply only to chi <= 0 bases")
    if ell <= 0:
        raise ValueError("fiber length must be positive")
    if ell > 1.0:
        raise InvalidCase("the collapse lower bound is normalized to ell <= 1")
    norms = _norms(base, F, cfg)
    upper = functional_J_closed(base, F, ell, cfg, norms=norms)
    lower = -((2.0 * math.pi * ell) ** (2.0 / 3.0)) * (
        norms.scal_L32 + 0.25 * norms.omega_L3_sq
    )
    return upper, lower


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
