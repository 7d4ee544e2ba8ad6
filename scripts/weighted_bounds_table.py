#!/usr/bin/env python3
"""Desk check of the weighted quotient pipeline.

For each weight pair: the Chern number and Euler characteristic by quadrature
on the arclength base `wps_profile` and, for the Euler characteristic, by the
pole slopes of its closed-form profile; the geometric fiber-length optimum of
the quotient model; and the chain of upper bounds.  The last column shows the
headroom between the geometric optimum and the topological bound (zero
exactly for the unit pair).
"""

from __future__ import annotations

import argparse

import eqyamabe as eq


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs",
        default="1,1 1,2 2,3 3,5 7,11",
        help="space-separated m1,m2 pairs",
    )
    args = parser.parse_args()
    pairs = [tuple(int(x) for x in token.split(",")) for token in args.pairs.split()]

    header = (
        f"{'pair':>8} {'c1 quad':>12} {'chi quad':>12} {'chi bdry':>12} "
        f"{'ell*':>10} {'J_max':>12} {'CS bound':>12} {'topological':>12} {'slack':>10}"
    )
    print(header)
    print("-" * len(header))
    for m1, m2 in pairs:
        c1 = eq.c1_quadrature(m1, m2).value
        chi_q = eq.chi_quadrature(m1, m2).value
        chi_b = eq.chi_boundary(m1, m2)
        metric = eq.wps_metric(m1, m2)
        ell_star, j_max = eq.optimal_ell(metric.base, metric.F)
        cs = eq.bound_cauchy_schwarz(metric.base, metric.F)
        top = eq.bound_weighted_hopf(m1, m2)
        print(
            f"({m1:>2},{m2:>2}) {c1:12.8f} {chi_q:12.8f} {chi_b:12.8f} "
            f"{ell_star:10.6f} {j_max:12.6f} {cs:12.6f} {top:12.6f} {top - j_max:10.2e}"
        )
    print()
    print(f"round 3-sphere constant: {eq.SIGMA_S3:.12f}")
    print(f"orbit-count bound, two points: {eq.hebey_vaugon_bound(3, 2):.12f}")


if __name__ == "__main__":
    main()
