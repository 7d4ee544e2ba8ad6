"""Shared fixtures and frozen oracle values.

The constants below were evaluated with mpmath at 40 decimal digits from the
closed forms they name, then frozen to full double precision.  Tests compare
library output against these numbers, never against other library output.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe.errors import DomainError

# sigma(S^3) = 3 * 2^(5/3) * pi^(4/3) = 6 * (2 pi^2)^(2/3)
SIGMA_S3 = 43.82323271625065499

# closed form J at constant fiber length on the half-radius round base,
# (pi/16)^(1/3) * (32 pi ell^(2/3) - 8 pi ell^(8/3)), at ell = 1/2
BERGER_HALF_J = 34.50863335852867471

# flat torus (c = L = 1, F = 1): J(ell) = -2^(1/3) pi^(4/3) ell^(8/3)
TORUS_J_ELL1 = -5.797087142868625451
TORUS_J_ELL01 = -0.01248944564173398550
# Hoelder lower bound at ell = 0.1: -2^(1/3) pi^(4/3) ell^(2/3)
TORUS_LOWER_01 = -1.248944564173398550

# sigma(S^3) * ((m1+m2) / (2 sqrt(m1 m2)))^(4/3)
WEIGHTED_BOUND = {
    (1, 1): SIGMA_S3,
    (1, 2): 47.40302891587055119,
    (2, 3): 45.03224402542143729,
    (3, 5): 45.74990818460329939,
    (7, 11): 45.32807476972609177,
}

HEBEY_VAUGON_3_2 = 69.56504571442350541  # 2^(2/3) sigma(S^3)
SIGMA_S2 = 25.13274122871834591  # 8 pi

# blow-up scan coefficient on the half-radius round base with F = 0:
# J(ell) = 2^(11/3) pi^(4/3) ell^(2/3)
BLOWUP_COEF = 58.43097695500087332

COPRIME_PAIRS = [(1, 1), (1, 2), (2, 3), (3, 5), (7, 11)]


@pytest.fixture(scope="session")
def hopf():
    return eq.hopf_metric()


@pytest.fixture(scope="session")
def half_sphere():
    return eq.make_round_sphere(0.5)


@pytest.fixture(scope="session")
def torus_metric():
    return eq.InvariantMetric(
        base=eq.FlatTorusBase(length=1.0, radius=1.0),
        ell=eq.RadialField.const(1.0),
        F=eq.RadialField.const(1.0),
    )


def bump_sphere(amplitude: float = 0.15):
    """Round unit sphere with a smooth equatorial bump; cone orders stay (1, 1)."""

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.sin(s) * (1.0 + amplitude * np.sin(s) ** 2)

    def phi_d1(s):
        s = np.asarray(s, dtype=float)
        return np.cos(s) * (1.0 + amplitude * np.sin(s) ** 2) + np.sin(s) * (
            amplitude * np.sin(2.0 * s)
        )

    def phi_d2(s):
        s = np.asarray(s, dtype=float)
        return (
            -np.sin(s) * (1.0 + amplitude * np.sin(s) ** 2)
            + 2.0 * np.cos(s) * amplitude * np.sin(2.0 * s)
            + np.sin(s) * 2.0 * amplitude * np.cos(2.0 * s)
        )

    return eq.ConeSurfaceProfile(np.pi, 1, 1, phi, phi_d1, phi_d2, label="bump_sphere")


def fourier_field(base_length, coeffs, offset):
    """Smooth radial field offset + sum_k coeffs[k] cos((k+1) pi s / L).

    Cosine modes have vanishing derivative at both ends, so the field is
    smooth invariant data on any profile base.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    ks = np.arange(1, coeffs.size + 1) * np.pi / base_length

    def value(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = offset + np.cos(np.outer(s, ks)) @ coeffs
        return out if out.size > 1 else out[0]

    def d1(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = -np.sin(np.outer(s, ks)) @ (coeffs * ks)
        return out if out.size > 1 else out[0]

    def d2(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = -np.cos(np.outer(s, ks)) @ (coeffs * ks**2)
        return out if out.size > 1 else out[0]

    return eq.RadialField(value=value, d1=d1, d2=d2)


def check_derivative(f: Callable, df: Callable, t: float, h_sequence: Sequence[float]) -> float:
    """Max over h of |central difference - df(t)| / max(1, |df(t)|): the
    oracle for hand-coded derivatives in the tests."""
    try:
        target = float(df(t))
    except Exception as exc:  # noqa: BLE001 - domain failures become DomainError
        raise DomainError(f"df not evaluable at t={t}: {exc}") from exc
    worst = 0.0
    for h in h_sequence:
        if h <= 0:
            raise ValueError("finite-difference steps must be positive")
        try:
            hi = float(f(t + h))
            lo = float(f(t - h))
        except Exception as exc:  # noqa: BLE001
            raise DomainError(f"f not evaluable at t={t}+-{h}: {exc}") from exc
        if not (np.isfinite(hi) and np.isfinite(lo) and np.isfinite(target)):
            raise DomainError(f"non-finite evaluation at t={t}, h={h}")
        disc = abs((hi - lo) / (2.0 * h) - target) / max(1.0, abs(target))
        worst = max(worst, disc)
    return worst
