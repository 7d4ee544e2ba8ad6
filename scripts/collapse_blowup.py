#!/usr/bin/env python3
"""Fiber-scaling regimes on both sides of the Euler-characteristic divide.

Collapse: flat torus base with unit curvature density.  The functional decays
to zero from below like ell^(8/3) while the Hoelder lower bound decays like
ell^(2/3); the conformal minimizer is sandwiched between them at every ell.

Blow-up: flat bundle (zero density) over the half-radius round sphere.  The
functional grows like ell^(2/3) without bound.
"""

from __future__ import annotations

import argparse

import numpy as np

import eqyamabe as eq


def collapse(ells: np.ndarray, sandwich_at: list[float]) -> None:
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    F = eq.RadialField.const(1.0)
    table = eq.ell_scan(base, F, ells)
    exponent, coefficient = eq.fit_exponent(table)
    print("collapse (flat torus, unit density)")
    print(f"  fitted |J| ~ {coefficient:.6f} * ell^{exponent:.4f}   (expected 8/3)")
    lowers = [eq.collapse_bounds(base, F, l)[1] for l in ells]
    lo_exp = float(np.polyfit(np.log(ells), np.log(np.abs(lowers)), 1)[0])
    print(f"  lower-bound exponent {lo_exp:.4f}   (expected 2/3)")
    for ell in sandwich_at:
        upper, lower = eq.collapse_bounds(base, F, ell)
        metric = eq.InvariantMetric(base=base, ell=eq.RadialField.const(ell), F=F)
        result = eq.minimize_conformal(metric)
        ok = lower - 1e-9 <= result.mu_upper <= upper + 1e-9
        print(
            f"  ell={ell:<6g} lower={lower:+.6e}  minimizer={result.mu_upper:+.6e}  "
            f"J={upper:+.6e}  sandwich={'ok' if ok else 'VIOLATED'}"
        )


def blowup(ells: np.ndarray) -> None:
    base = eq.make_round_sphere(0.5)
    table = eq.ell_scan(base, 0.0, ells)
    exponent, coefficient = eq.fit_exponent(table)
    print("blow-up (flat bundle over the half-radius sphere)")
    print(f"  fitted J ~ {coefficient:.6f} * ell^{exponent:.4f}   (expected 2/3)")
    print(f"  J at ell={ells[-1]:g}: {table.J[-1]:.3f}  ({table.J[-1] / eq.SIGMA_S3:.1f} x sphere constant)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=7, help="ladder points per regime")
    args = parser.parse_args()
    collapse(np.geomspace(0.02, 1.0, args.points), sandwich_at=[0.5, 0.1, 0.02])
    print()
    blowup(np.geomspace(1.0, 1e3, args.points))


if __name__ == "__main__":
    main()
