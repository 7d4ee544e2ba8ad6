"""30-digit mpmath references for the curvature-form norms and Gauss-Bonnet.

On the quotient base of wps(m1, m2), in the arclength s in (0, pi/2),

    phi(s) = sin s cos s / sqrt(P),  F(s) = 2 m1 m2 / P^{3/2},
    P(s) = m1^2 sin^2 s + m2^2 cos^2 s,

so |Omega|_2^2 = 2 pi int 2 F^2 phi ds, c1 = int F phi ds and the
Gauss-Bonnet integral is int -phi'' ds.  The references below integrate these
expressions with mpmath's tanh-sinh rule, independently of the library.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import orbifold
from eqyamabe.numerics import sign_change_roots

from conftest import bump_sphere, fourier_field

PAIRS = [(1, 2), (2, 3), (1, 9)]
REL = 1e-13


def _references(m1: int, m2: int) -> dict[str, float]:
    with mpmath.workdps(30):
        P = lambda s: (m1 * mpmath.sin(s)) ** 2 + (m2 * mpmath.cos(s)) ** 2  # noqa: E731
        phi = lambda s: mpmath.sin(s) * mpmath.cos(s) / mpmath.sqrt(P(s))  # noqa: E731
        F = lambda s: 2 * m1 * m2 / P(s) ** 1.5  # noqa: E731
        ends = [0, mpmath.pi / 2]
        l2sq = 2 * mpmath.pi * mpmath.quad(lambda s: 2 * F(s) ** 2 * phi(s), ends)
        return {
            "omega_L2_sq": float(l2sq),
            "chern_number": float(mpmath.quad(lambda s: F(s) * phi(s), ends)),
            "gauss_bonnet": float(mpmath.quad(lambda s: -mpmath.diff(phi, s, 2), ends)),
        }


@pytest.mark.parametrize("m1,m2", PAIRS)
def test_norms_and_gauss_bonnet_match_mpmath(m1, m2):
    ref = _references(m1, m2)
    # guards the references themselves: c1 = 1/(m1 m2) and chi = 1/m1 + 1/m2
    assert ref["chern_number"] == pytest.approx(1.0 / (m1 * m2), rel=1e-15)
    assert ref["gauss_bonnet"] == pytest.approx(1.0 / m1 + 1.0 / m2, rel=1e-15)
    metric = eq.wps_metric(m1, m2)
    norms = eq.omega_norms(metric)
    assert norms.omega_L2_sq == pytest.approx(ref["omega_L2_sq"], rel=REL)
    assert norms.chern_number == pytest.approx(ref["chern_number"], rel=REL)
    assert eq.gauss_bonnet_check(metric.base) == pytest.approx(ref["gauss_bonnet"], rel=REL)


@pytest.mark.parametrize("m1,m2", [(2, 3), (1, 9), (1, 20)])
def test_wps_profile_matches_mpmath_up_to_both_poles(m1, m2):
    # the reference profile ends at the library's float L, with cos s read as
    # sin(L - s), and is differentiated numerically at 30 digits
    base = eq.wps_profile(m1, m2)
    L = base.length
    points = [1e-6, 1e-4, 1e-2, L / 2, L - 1e-2, L - 1e-4, L - 1e-6]
    with mpmath.workdps(30):
        Lm = mpmath.mpf(L)

        def phi(s):
            sin, cos = mpmath.sin(s), mpmath.sin(Lm - s)
            return sin * cos / mpmath.sqrt((m1 * sin) ** 2 + (m2 * cos) ** 2)

        for s in points:
            ref = [mpmath.diff(phi, mpmath.mpf(s), n) for n in range(3)]
            ref.append(-ref[2] / ref[0])
            got = [base.phi(s), base.phi_d1(s), base.phi_d2(s), eq.gauss_curvature(base, s)]
            for name, g, r in zip(("phi", "phi'", "phi''", "K"), got, ref):
                assert float(g) == pytest.approx(float(r), rel=1e-14), (name, s)


# Sign-changing densities F = offset + sum_k c_k cos(k pi s / period) on
# three bases: (1/2pi) dA = w(s) ds with w = phi on a profile and the radius
# on the torus.  |F| has a kink at every root of F, so the references
# integrate between the roots, which mpmath finds to 30 digits.
def _mp_round_w(s):
    return mpmath.sin(2 * s) / 2  # phi = R sin(s / R), R = 1/2


def _mp_wps23_w(s):
    P = 4 * mpmath.sin(s) ** 2 + 9 * mpmath.cos(s) ** 2
    return mpmath.sin(s) * mpmath.cos(s) / mpmath.sqrt(P)


SIGN_CHANGING = {
    # name: (base, mpmath w, period of the cosine modes, coeffs, offset)
    "round_sphere": (lambda: eq.make_round_sphere(0.5), _mp_round_w, None, [1.0, 0.3], 0.2),
    "wps23": (lambda: eq.wps_profile(2, 3), _mp_wps23_w, None, [0.8, -0.2], 0.1),
    "flat_torus": (
        lambda: eq.FlatTorusBase(length=1.0, radius=1.0), lambda s: 1, 0.5, [0.6, 0.2], 0.1
    ),
}


def _mp_cosine(coeffs, offset, period):
    coeffs = [mpmath.mpf(c) for c in coeffs]
    return lambda s: mpmath.mpf(offset) + sum(
        c * mpmath.cos((k + 1) * mpmath.pi * s / period) for k, c in enumerate(coeffs)
    )


def _mp_norms(F, w, length, breaks=()):
    """30-digit omega_L1, omega_L3_sq and chern_number, integrating between
    the roots of F (located on a grid, then polished) and the given breaks."""
    with mpmath.workdps(30):
        L = mpmath.mpf(length)
        grid = [L * j / 4000 for j in range(4001)]
        values = [F(s) for s in grid]
        roots = [
            mpmath.findroot(F, (grid[j], grid[j + 1]), solver="anderson")
            for j in range(4000)
            if values[j] * values[j + 1] < 0
        ]
        pts = sorted([mpmath.mpf(0), L, *roots, *(mpmath.mpf(x) for x in breaks)])
        area = lambda g: 2 * mpmath.pi * mpmath.quad(lambda s: g(s) * w(s), pts)  # noqa: E731
        l1 = lambda s: mpmath.sqrt(2) * abs(F(s))  # noqa: E731
        return {
            "omega_L1": float(area(l1)),
            "omega_L3_sq": float(area(lambda s: l1(s) ** 3) ** (mpmath.mpf(2) / 3)),
            "chern_number": float(area(F) / (2 * mpmath.pi)),
            "roots": len(roots),
        }


def _norms(base, F):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # these densities carry fractional Chern data
        return eq.omega_norms(eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F))


@pytest.mark.parametrize("name", sorted(SIGN_CHANGING))
def test_sign_changing_norms_match_mpmath(name):
    make_base, w, period, coeffs, offset = SIGN_CHANGING[name]
    base = make_base()
    period = period or base.length
    ref = _mp_norms(_mp_cosine(coeffs, offset, period), w, base.length)
    assert ref["roots"] >= 1
    norms = _norms(base, fourier_field(period, coeffs, offset))
    for key in ("omega_L1", "omega_L3_sq", "chern_number"):
        assert getattr(norms, key) == pytest.approx(ref[key], rel=REL), key


def _widest_gap_center(base):
    nodes = orbifold.quadrature_nodes(base)
    j = int(np.argmax(np.diff(nodes)))
    return 0.5 * (nodes[j] + nodes[j + 1]), nodes[j + 1] - nodes[j]


@pytest.mark.parametrize("half_width", [0.25, 0.0])
def test_unseen_root_pair_and_tangential_zero_match_mpmath(half_width):
    # F = (cos th - cos th0)^2 - delta^2, th = pi s / L: two roots a quarter
    # of a node gap either side of th0, between the same pair of first-level
    # nodes, so no sign change is seen and the kinks are refined across; with
    # delta = 0 the zero at th0 is tangential and |F| = F is smooth
    base = eq.make_round_sphere(0.5)
    L = base.length
    s0, gap = _widest_gap_center(base)
    c = math.cos(math.pi * s0 / L)
    delta = half_width * gap * (math.pi / L) * math.sin(math.pi * s0 / L)
    F = fourier_field(L, [-2.0 * c, 0.5], 0.5 + c * c - delta * delta)
    if delta:
        nodes = orbifold.quadrature_nodes(base)
        assert sign_change_roots(F.value, F.d1, nodes, F.value(nodes)).size == 0
    with mpmath.workdps(30):
        cm, dm = mpmath.cos(mpmath.pi * mpmath.mpf(s0) / L), mpmath.mpf(delta)
        F_mp = lambda s: (mpmath.cos(mpmath.pi * s / L) - cm) ** 2 - dm**2  # noqa: E731
        roots = [L / mpmath.pi * mpmath.acos(cm + sign * dm) for sign in (1, -1)]
        ref = _mp_norms(F_mp, _mp_round_w, L, breaks=roots)
    norms = _norms(base, F)  # raises QuadratureFailure if the kinks stall refinement
    for key in ("omega_L1", "omega_L3_sq", "chern_number"):
        assert getattr(norms, key) == pytest.approx(ref[key], rel=1e-8), key


def test_plain_callable_density_matches_mpmath():
    # a bare callable is read as its chopped cosine series, whose derivative
    # polishes the roots
    base = eq.make_round_sphere(0.5)
    L = base.length
    ref = _mp_norms(_mp_cosine([1.0], 0.2, L), _mp_round_w, L)
    norms = _norms(base, lambda s: 0.2 + np.cos(np.pi * np.asarray(s) / L))
    for key in ("omega_L1", "omega_L3_sq", "chern_number"):
        assert getattr(norms, key) == pytest.approx(ref[key], rel=REL), key


def test_torus_root_next_to_an_end_matches_mpmath():
    # the root at s = d lies between s = 0 and the first node; with no poles
    # the area element is not small there, so the ends join the root search
    base = eq.FlatTorusBase(length=1.0, radius=1.0)
    d, k = 1e-4, 2.0 * math.pi
    assert orbifold.quadrature_nodes(base)[0] > d
    F = eq.RadialField(
        value=lambda s: np.sin(k * (np.asarray(s) - d)),
        d1=lambda s: k * np.cos(k * (np.asarray(s) - d)),
        d2=lambda s: -k * k * np.sin(k * (np.asarray(s) - d)),
    )
    ref = _mp_norms(lambda s: mpmath.sin(2 * mpmath.pi * (s - d)), lambda s: 1, 1.0)
    norms = _norms(base, F)
    for key in ("omega_L1", "omega_L3_sq", "chern_number"):
        assert getattr(norms, key) == pytest.approx(ref[key], rel=REL, abs=1e-15), key


def test_sign_changing_curvature_integral_matches_mpmath():
    # on phi = sin s (1 + a sin^2 s), K = (1 - 6a + 9a sin^2 s) / (1 + a sin^2 s)
    # changes sign where sin s = 1/3 (a = 0.2): |2K|^{3/2} has two kinks
    a = 0.2
    with mpmath.workdps(30):
        am = mpmath.mpf(a)
        sin2 = lambda s: mpmath.sin(s) ** 2  # noqa: E731
        K = lambda s: (1 - 6 * am + 9 * am * sin2(s)) / (1 + am * sin2(s))  # noqa: E731
        phi = lambda s: mpmath.sin(s) * (1 + am * sin2(s))  # noqa: E731
        root = mpmath.asin(mpmath.mpf(1) / 3)
        pts = [0, root, mpmath.pi - root, mpmath.pi]
        ref = float(2 * mpmath.pi * mpmath.quad(lambda s: abs(2 * K(s)) ** 1.5 * phi(s), pts))
    value = orbifold.scalar_curvature_integral(bump_sphere(a))
    assert value == pytest.approx(ref, rel=1e-10)
