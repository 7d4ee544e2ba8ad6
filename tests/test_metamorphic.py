"""Metamorphic tests: exact symmetries of every model, checked on drawn data.

Three relations hold for any base, fiber length and curvature density:

- scale: under g -> c^2 g (the model written in units c) J, c1, |Omega|_1,
  J_max, Cauchy-Schwarz, the topological bound and chi are unchanged, the
  optimal fiber length scales by c and the area by c^2;
- pole swap: a base read from its other pole (wps(m2, m1) for wps(m1, m2),
  sampled abscissae reversed) gives the same numbers;
- Z_k quotient of the fiber: (ell, F) -> (ell / k, k F) multiplies c1 and
  |Omega|_1 by k, divides the optimal fiber length by k and multiplies J,
  J_max, Cauchy-Schwarz and the topological bound by k^(-2/3).

Every quantity is allowed a few ulps, relative, beside J's own error
estimate; J on the least-squares fit of non-uniform samples is allowed the
fit's conditioning as well (`_FIT_REL`).  The minimizer is not checked here:
its H^1 Gram matrix is not yet free of the units.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqyamabe as eq

pytestmark = pytest.mark.filterwarnings("ignore:curvature density has non-integral Chern data")

_REL = 16.0 * np.finfo(float).eps
# J of the fit to the 401 non-uniform samples below moves by up to 1.3e-14,
# relative, when each abscissa moves by one ulp (8 random perturbations), as
# writing them in other units or from the other pole does; its quadrature
# estimate does not carry this
_FIT_REL = 1e-13
_UNIFORM = np.linspace(0.0, math.pi, 201)
_RANDOM = np.concatenate(
    [[0.0], np.sort(np.random.default_rng(5).uniform(0.0, math.pi, 399)), [math.pi]]
)
WPS = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 5), (5, 3)]


def _bump(s):
    """A positive profile of slopes 1 and -1 at the poles, not symmetric
    about the equator."""
    s = np.asarray(s, dtype=float)
    return np.sin(s) * (1.0 + 0.15 * np.sin(s) ** 2 + 0.1 * np.sin(s) ** 2 * np.cos(s))


def _wps_ell(a: float) -> eq.RadialField:
    """ell = a (1 + 0.2 cos 4s), flat at both poles of the wps base."""
    return eq.RadialField(lambda s: a * (1.0 + 0.2 * np.cos(4.0 * np.asarray(s))),
                          lambda s: -0.8 * a * np.sin(4.0 * np.asarray(s)),
                          lambda s: -3.2 * a * np.cos(4.0 * np.asarray(s)))


def _base(kind, c: float, backwards: bool = False):
    """The base of the kind in units c; a sampled one read from its other
    pole when backwards."""
    if kind == "sphere":
        return eq.make_round_sphere(c)
    if kind == "torus":
        return eq.FlatTorusBase(c, c)
    if kind == "callable":
        return eq.profile_from_callables(c * math.pi, lambda t: c * _bump(np.asarray(t) / c), 1, 1)
    s = _UNIFORM if kind == "uniform" else _RANDOM
    phi = _bump(s)
    if backwards:
        s, phi = math.pi - s[::-1], phi[::-1]
    return eq.profile_from_samples(c * s, c * phi, 1, 1)


def _metric(kind, c: float = 1.0, k: int = 1, backwards: bool = False) -> eq.InvariantMetric:
    """The kind's metric in units c, divided by Z_k along the fiber."""
    if kind in WPS:
        F = eq.wps_density_field(*kind)
        metric = eq.InvariantMetric(
            base=eq.wps_profile(*kind), ell=_wps_ell(0.7 / k),
            F=eq.RadialField(*(lambda s, f=f: k * f(s) for f in (F.value, F.d1, F.d2))),
        )
        return eq.scale_metric(metric, c) if c != 1.0 else metric
    return eq.InvariantMetric(
        base=_base(kind, c, backwards), ell=eq.RadialField.const(c * 1.3 / k),
        F=eq.RadialField.const(k * 0.8 / c**2),
    )


def _quantities(metric: eq.InvariantMetric) -> dict[str, tuple[float, float]]:
    """Each quantity as (value, error estimate)."""
    base, F = metric.base, metric.F
    rep = eq.functional_J(metric)
    norms = eq.omega_norms(metric)
    q = {
        "J": (rep.J, rep.error_estimate),
        "c1": (norms.chern_number, 0.0),
        "omega_L1": (norms.omega_L1, 0.0),
        "chi": (eq.chi_orb(base), 0.0),
        "area": (eq.area(base), 0.0),
    }
    if q["chi"][0] > 0:
        ell_star, j_max = eq.optimal_ell(base, F)
        q["ell_star"], q["J_max"] = (ell_star, 0.0), (j_max, 0.0)
        q["cauchy_schwarz"] = (eq.bound_cauchy_schwarz(base, F), 0.0)
        q["topological"] = (eq.bound_theorem_main(q["chi"][0], norms.chern_number), 0.0)
    return q


@lru_cache(maxsize=None)
def _reference(kind) -> dict[str, tuple[float, float]]:
    return _quantities(_metric(kind))


def _assert_related(kind, got: dict, ref: dict, factors: dict[str, float]) -> None:
    assert got.keys() == ref.keys()
    for name, (value, error) in got.items():
        want, want_error = ref[name]
        want = want * factors.get(name, 1.0)
        rel = _FIT_REL if (kind, name) == ("non_uniform", "J") else _REL
        tol = rel * abs(want) + error + abs(factors.get(name, 1.0)) * want_error
        assert abs(value - want) <= tol, (name, value, want)


units = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
pairs = st.sampled_from(WPS)
FAMILIES = ["wps", "sphere", "uniform", "non_uniform", "callable", "torus"]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(pair=pairs, c=units)
@example(pair=(2, 3), c=1e-6)
@example(pair=(3, 2), c=1e6)
def test_results_do_not_depend_on_the_units(family, pair, c):
    kind = pair if family == "wps" else family
    got = _quantities(_metric(kind, c=c))
    _assert_related(kind, got, _reference(kind), {"ell_star": c, "area": c * c})


@pytest.mark.parametrize("family", ["wps", "uniform", "non_uniform"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(pair=pairs, c=units)
@example(pair=(1, 2), c=1e-6)
@example(pair=(2, 1), c=1e6)
def test_results_do_not_depend_on_the_pole_read_first(family, pair, c):
    if family == "wps":
        kind, swapped = pair, _metric(pair[::-1], c=c)
    else:
        kind, swapped = family, _metric(family, c=c, backwards=True)
    factors = {"ell_star": c, "area": c * c}
    _assert_related(kind, _quantities(swapped), _reference(kind), factors)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(pair=pairs, k=st.integers(2, 12))
@example(pair=(3, 5), k=12)
def test_a_fiber_quotient_scales_the_results(family, pair, k):
    kind = pair if family == "wps" else family
    shrink = k ** (-2.0 / 3.0)
    factors = {"c1": k, "omega_L1": k, "ell_star": 1.0 / k, "J": shrink, "J_max": shrink,
               "cauchy_schwarz": shrink, "topological": shrink}
    _assert_related(kind, _quantities(_metric(kind, k=k)), _reference(kind), factors)
