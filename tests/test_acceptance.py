"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe.cli import main as cli_main
from eqyamabe.conformal import laplace_residual

from conftest import COPRIME_PAIRS, SIGMA_S3, bump_sphere, fourier_field

SWEEP_SEED = 20240611  # fixed seed for every randomized property sweep


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_chern_quadrature():
    with criterion(1, "Chern quadrature matches 1/(m1 m2) within 1e-8, each pair < 1 s"):
        for m1, m2 in COPRIME_PAIRS:
            start = time.perf_counter()
            res = eq.c1_quadrature(m1, m2)
            elapsed = time.perf_counter() - start
            closed = 1.0 / (m1 * m2)
            assert abs(res.value - closed) <= 1e-8 * closed, (m1, m2)
            assert elapsed < 1.0, (m1, m2, elapsed)


def test_criterion_2_euler_characteristic_routes():
    with criterion(2, "chi by quadrature (1e-6) and pole slopes (1e-8); K of wps(1,1) = 4"):
        for m1, m2 in COPRIME_PAIRS:
            closed = 1.0 / m1 + 1.0 / m2
            assert abs(eq.chi_quadrature(m1, m2).value - closed) <= 1e-6, (m1, m2)
            assert abs(eq.chi_boundary(m1, m2) - closed) <= 1e-8, (m1, m2)
        base = eq.wps_profile(1, 1)
        for r in np.linspace(0.1, 0.9, 9):
            K = eq.gauss_curvature(base, math.asin(math.sqrt(r)))
            assert abs(float(K) - 4.0) <= 1e-8, r


def test_criterion_3_hopf_pipeline():
    with criterion(3, "Hopf functional, fiber optimum, and pointwise curvature"):
        hopf = eq.hopf_metric()
        target = 3.0 * 2.0 ** (5.0 / 3.0) * math.pi ** (4.0 / 3.0)
        rep = eq.functional_J(hopf)
        assert abs(rep.J - target) <= 1e-8 * target

        ell_star, j_max = eq.optimal_ell(hopf.base, hopf.F)
        assert abs(ell_star - 1.0) <= 1e-10
        assert abs(j_max - target) <= 1e-8 * target

        ladder = np.geomspace(0.25, 2.0, 13)
        table = eq.ell_scan(hopf.base, hopf.F, ladder)
        peak = int(np.argmax(table.J))
        spacing = float(np.max(np.diff(ladder)))
        assert abs(table.ell[peak] - 1.0) <= spacing

        s = np.linspace(1e-4, hopf.base.length - 1e-4, 101)
        scal = np.asarray(eq.scalar_curvature_total(hopf, s))
        assert np.max(np.abs(scal - 6.0)) <= 1e-8


def test_criterion_4_bound_chain_sweep():
    with criterion(4, ">=1000 random radial samples: J <= J_max <= CS <= main bound, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(SWEEP_SEED)
        slack = 1.0 + 1e-9
        per_base = 340  # 3 bases -> 1020 samples
        hopf = eq.hopf_metric()
        bases = {
            (1, 1): eq.make_round_sphere(0.5),
            (1, 2): eq.wps_profile(1, 2),
            (2, 3): eq.wps_profile(2, 3),
        }
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random densities carry fractional Chern data
            for (m1, m2), base in bases.items():
                chi = eq.chi_orb(base)
                L = base.length
                for _ in range(per_base):
                    coeffs = rng.normal(scale=0.4, size=4) / np.arange(1, 5) ** 2
                    offset = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
                    F = fourier_field(L, coeffs, offset)
                    ell = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
                    b = rng.normal(scale=0.25, size=3) / np.arange(1, 4) ** 2
                    b /= max(1.0, float(np.sum(np.abs(b))) / 0.8)
                    u = fourier_field(L, b, 1.0)

                    norms = eq.omega_norms(
                        eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F)
                    )
                    J = eq.functional_J_closed(base, F, ell, norms=norms)
                    _, j_max = eq.optimal_ell(base, F, norms=norms)
                    cs = eq.bound_cauchy_schwarz(base, F, norms=norms)
                    main_bound = eq.bound_theorem_main(chi, norms.chern_number)
                    assert J <= j_max * slack + 1e-12
                    assert j_max <= cs * slack + 1e-12
                    assert cs <= main_bound * slack + 1e-12
                    assert J <= main_bound * slack + 1e-12

                    if (m1, m2) == (1, 1):
                        # round-metric conformal values respect the sphere infimum
                        val = eq.conformal_functional(hopf, u)
                        assert val >= SIGMA_S3 - 1e-6
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked >= 1000
        assert elapsed < 60.0, elapsed
        print(f"  (criterion 4: {checked} samples in {elapsed:.1f} s)")


def test_criterion_5_gauss_bonnet_all_bases():
    with criterion(5, "Gauss-Bonnet quadrature equals chi_orb within 1e-6 on every base"):
        bases = [eq.make_round_sphere(r) for r in (0.5, 1.0, 2.0)]
        bases += [eq.wps_profile(m1, m2) for m1, m2 in COPRIME_PAIRS]
        bases.append(bump_sphere(0.15))
        s = np.linspace(0.0, math.pi, 801)
        bases.append(eq.profile_from_samples(s, np.sin(s), 1, 1))
        bases.append(eq.FlatTorusBase(length=1.0, radius=1.0))
        for base in bases:
            assert abs(eq.gauss_bonnet_check(base) - eq.chi_orb(base)) <= 1e-6, base


def test_criterion_6_laplace_and_uniformization():
    with criterion(6, "Poisson residual <= 1e-6; uniformization identity within 1e-6"):
        half = eq.make_round_sphere(0.5)
        grid = np.linspace(0.0, half.length, 4001)
        f = eq.RadialField.from_samples(np.cos(2.0 * grid), half.length)
        u = eq.laplace_solve_radial(half, f)
        assert laplace_residual(half, u, f) <= 1e-6
        assert np.max(np.abs(u.value(grid) - f.value(grid) / 8.0)) <= 1e-6

        for base in (half, bump_sphere(0.2), eq.wps_profile(2, 3)):
            uu, min_scal = eq.uniformize_positive(base)
            assert min_scal > 0.0, base
            chi = eq.chi_orb(base)
            target = 4.0 * math.pi * chi / eq.area(base)
            g = np.linspace(0.0, base.length, 4001)
            mask = (g > 0.05 * base.length) & (g < 0.95 * base.length)
            from scipy.interpolate import CubicSpline

            sp = CubicSpline(g, uu.value(g))
            flux = CubicSpline(g, np.asarray(base.phi(g)) * sp(g, 1))
            lap = -flux(g[mask], 1) / np.asarray(base.phi(g[mask]))
            K = np.asarray(-base.phi_d2(g[mask]) / base.phi(g[mask]))
            identity = 2.0 * (lap + K)  # Scal_new e^{2u}: must equal the constant
            assert np.max(np.abs(identity - target)) <= 1e-6 * target, base


def test_criterion_7_collapse_exponents_and_sandwich():
    with criterion(7, "collapse exponents 8/3 and 2/3 (+-0.05); sandwich at each ell"):
        base = eq.FlatTorusBase(length=1.0, radius=1.0)
        F = eq.RadialField.const(1.0)
        ladder = np.geomspace(0.02, 1.0, 7)
        uppers, lowers = zip(*(eq.collapse_bounds(base, F, l) for l in ladder))
        table = eq.ell_scan(base, F, ladder)
        exp_upper, _ = eq.fit_exponent(table)
        exp_lower = float(np.polyfit(np.log(ladder), np.log(np.abs(lowers)), 1)[0])
        assert abs(exp_upper - 8.0 / 3.0) <= 0.05
        assert abs(exp_lower - 2.0 / 3.0) <= 0.05

        for ell in (0.5, 0.1, 0.02):
            upper, lower = eq.collapse_bounds(base, F, ell)
            metric = eq.InvariantMetric(base=base, ell=eq.RadialField.const(ell), F=F)
            result = eq.minimize_conformal(metric, eq.MinimizerConfig(max_modes=128))
            assert lower - 1e-9 <= result.mu_upper <= upper + 1e-9, ell
            assert np.all(np.diff(result.trace) <= 1e-12)


def test_criterion_8_blowup_scan():
    with criterion(8, "flat-bundle scan increases like ell^(2/3) and passes 10 sigma"):
        base = eq.make_round_sphere(0.5)
        ladder = np.geomspace(1.0, 1e3, 10)
        table = eq.ell_scan(base, 0.0, ladder)
        assert table.regime == "DivergesAsEllGrows"
        assert np.all(np.diff(table.J) > 0.0)
        exponent, _ = eq.fit_exponent(table)
        assert abs(exponent - 2.0 / 3.0) <= 0.05
        assert table.J[-1] > 10.0 * SIGMA_S3


def test_criterion_9_minimizer_hopf():
    with criterion(9, "Hopf minimizer reaches the sphere constant with constant factor"):
        hopf = eq.hopf_metric()
        for u0 in (
            None,
            lambda s: 1.0 + 0.3 * np.cos(2.0 * np.pi * s / (0.5 * math.pi)),
            lambda s: 1.0 + 0.2 * np.cos(4.0 * s) - 0.1 * np.cos(2.0 * s),
        ):
            result = eq.minimize_conformal(hopf, u0=u0)
            assert abs(result.mu_upper - 43.8246) <= 1e-3 * 43.8246  # criterion's figure
            assert abs(result.mu_upper - SIGMA_S3) <= 1e-3 * SIGMA_S3
            u = result.u_star.value(np.linspace(0.0, hopf.base.length, 201))
            assert (np.max(u) - np.min(u)) / np.mean(u) <= 1e-3
            assert np.all(np.diff(result.trace) <= 1e-12)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical CLI inputs produce byte-identical reports"):
        hopf_path = tmp_path / "hopf.json"
        hopf_path.write_text(
            json.dumps(
                {
                    "base": {"type": "round_sphere", "radius": 0.5},
                    "ell": {"type": "constant", "value": 1.0},
                    "F": {"type": "constant", "value": 2.0},
                }
            )
        )
        commands = {
            "invariants": ["invariants", "--m1", "2", "--m2", "3"],
            "bound": ["bound", "--m1", "1", "--m2", "2"],
            "scan": ["functional", "--model", str(hopf_path), "--ell", "scan:0.25:2:13"],
            "minimize": ["minimize", "--model", str(hopf_path)],
        }
        for name, argv in commands.items():
            blobs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{name}_{tag}.json"
                assert cli_main(argv + ["--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], name
