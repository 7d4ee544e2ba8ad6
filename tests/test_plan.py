"""The per-base quadrature plan: exact agreement with uncached integrals,
evaluation budget, lifetime, and read-only nodes; the curvature-form norms
kept per field and config; one shared base per constructor arguments, and
the minimizer's matrices assembled at the plan's nodes."""

from __future__ import annotations

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import conformal, modelio, orbifold
from eqyamabe.errors import DomainError, NotCoprime
from eqyamabe.numerics import QuadratureConfig, _with_dips, integrate, sign_change_roots

from conftest import bump_sphere, fourier_field

NORMS_CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=2e-8, max_refinements=7)
GB_CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)


def sampled_bump_sphere():
    s = np.linspace(0.0, math.pi, 601)
    return eq.profile_from_samples(s, bump_sphere().phi(s) * (s > 0) * (s < math.pi), 1, 1)


def uncached(base, fn, cfg=None, breaks=()):
    """2 pi int fn dA without the plan: phi evaluated afresh at every call."""
    if isinstance(base, eq.FlatTorusBase):
        res = integrate(lambda s: np.asarray(fn(s)), 0.0, base.length, cfg, breaks=breaks)
        return 2.0 * math.pi * base.radius * res.value
    res = integrate(
        lambda s: np.asarray(fn(s)) * base.phi(s), 0.0, base.length, cfg, breaks=breaks
    )
    return 2.0 * math.pi * res.value


def curvature(base, s):
    if isinstance(base, eq.FlatTorusBase):
        return np.zeros_like(s)
    return -base.phi_d2(s) / base.phi(s)


def cases():
    hopf = eq.make_round_sphere(0.5)
    wps = eq.wps_profile(2, 3)
    torus = eq.FlatTorusBase(length=1.0, radius=1.0)
    sampled = sampled_bump_sphere()
    return {
        "hopf": (hopf, eq.RadialField.const(2.0), fourier_field(hopf.length, [0.05], 1.0)),
        "wps23": (wps, eq.wps_density_field(2, 3), fourier_field(wps.length, [0.1, 0.02], 0.8)),
        "torus": (torus, fourier_field(0.5, [0.3], 0.2), eq.RadialField.const(0.7)),
        "sampled_bump": (
            sampled,
            fourier_field(sampled.length, [0.4, -0.1], 0.1),
            fourier_field(sampled.length, [0.05], 1.0),
        ),
    }


def rewrapped(field):
    """The same functions in new callables: an equal field that is a new key."""
    return eq.RadialField(
        value=lambda s: field.value(s),
        d1=lambda s: field.d1(s),
        d2=lambda s: field.d2(s),
        constant=field.constant,
    )


def unshared(base):
    """The members of a shared base (`wps_profile`, `make_round_sphere`) in a
    new profile of new callables: a base of its own, whose plan starts empty
    and dies with it."""
    return eq.ConeSurfaceProfile(
        base.length,
        base.m_start,
        base.m_end,
        lambda s: base.phi(s),
        lambda s: base.phi_d1(s),
        lambda s: base.phi_d2(s),
        label=base.label,
    )


def norms_and_bounds(base, F, ell=0.7):
    """omega_norms, J at ell, J_max and Cauchy-Schwarz without `norms=`
    (the bounds only where chi > 0)."""
    results = [
        eq.omega_norms(eq.InvariantMetric(base, eq.RadialField.const(1.0), F)),
        eq.functional_J_closed(base, F, ell),
    ]
    if eq.chi_orb(base) > 0:
        results += [eq.optimal_ell(base, F), eq.bound_cauchy_schwarz(base, F)]
    return results


@pytest.mark.parametrize("name", ["hopf", "wps23", "torus", "sampled_bump"])
def test_plan_results_equal_uncached_integrals(name):
    base, F, ell = cases()[name]
    metric = eq.InvariantMetric(base=base, ell=ell, F=F)
    f = F.value
    sqrt2 = math.sqrt(2.0)
    if name in ("torus", "sampled_bump"):
        # F changes sign: the library default, integrating between the roots
        # of F found from its values at the first level's nodes
        cfg = QuadratureConfig()
        nodes = orbifold.quadrature_nodes(base)
        breaks = sign_change_roots(f, F.d1, *_with_dips(f, nodes, f(nodes)))
        assert breaks.size
    else:
        # one-signed F: the values of the former 2e-8 default, bit for bit
        cfg, breaks = NORMS_CFG, ()
    # the scalar-curvature integral keeps the 2e-8 default
    scal = uncached(base, lambda s: np.abs(2.0 * curvature(base, s)) ** 1.5, NORMS_CFG)
    expected_norms = eq.NormReport(
        omega_L1=uncached(base, lambda s: sqrt2 * np.abs(f(s)), cfg, breaks),
        omega_L2_sq=uncached(base, lambda s: 2.0 * f(s) ** 2, cfg, breaks),
        omega_L3_sq=uncached(base, lambda s: (sqrt2 * np.abs(f(s))) ** 3, cfg, breaks)
        ** (2.0 / 3.0),
        scal_L32=scal ** (2.0 / 3.0),
        chern_number=uncached(base, f, cfg, breaks) / (2.0 * math.pi),
    )
    numerator = 2.0 * math.pi * uncached(
        base,
        lambda s: (2.0 * curvature(base, s) - 0.5 * ell.value(s) ** 2 * f(s) ** 2) * ell.value(s),
    )
    expected_J = numerator / (2.0 * math.pi * uncached(base, ell.value)) ** (1.0 / 3.0)
    expected_area = (
        2.0 * math.pi * base.radius * base.length
        if isinstance(base, eq.FlatTorusBase)
        else uncached(base, np.ones_like)
    )
    expected_gb = (
        0.0
        if isinstance(base, eq.FlatTorusBase)
        else uncached(base, lambda s: curvature(base, s), GB_CFG) / (2.0 * math.pi)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the test densities carry fractional Chern data
        for _ in range(2):  # the first call fills the plan, the second reads it
            assert eq.omega_norms(metric) == expected_norms
            assert eq.area(base) == expected_area
            assert eq.gauss_bonnet_check(base) == expected_gb
            assert eq.functional_J(metric).J == expected_J
            # the bounds read the plan's report; an equal field in new callables misses
            assert norms_and_bounds(base, F) == norms_and_bounds(base, rewrapped(F))


def counted(fn, log):
    def wrapped(s):
        log.append(int(np.size(s)))
        return fn(s)

    return wrapped


def test_warm_plan_evaluation_budget(monkeypatch):
    phi_points, F_points = [], []
    base = eq.wps_profile(2, 3)
    base = dataclasses.replace(
        base,
        phi=counted(base.phi, phi_points),
        phi_d1=counted(base.phi_d1, phi_points),
        phi_d2=counted(base.phi_d2, phi_points),
    )
    F = eq.wps_density_field(2, 3)
    F = dataclasses.replace(F, value=counted(F.value, F_points))
    metric = eq.InvariantMetric(base=base, ell=eq.RadialField.const(1.0), F=F)
    first = eq.omega_norms(metric)
    first_area = eq.area(base)
    first_J = eq.functional_J(metric)
    phi_points.clear()
    F_points.clear()

    # a repeat on the same F is a lookup in the plan
    assert eq.omega_norms(metric) == first
    assert phi_points == []
    assert F_points == []

    # a new field on the warm base evaluates no profile, and F once: at the
    # 127 first-level nodes, where it has no root and every norm converges
    F = dataclasses.replace(F, value=counted(eq.wps_density_field(2, 3).value, F_points))
    assert eq.omega_norms(eq.InvariantMetric(base, eq.RadialField.const(1.0), F)) == first
    assert phi_points == []
    assert F_points == [127]

    # phi, phi'/phi and K of the functional's three integrals come from the plan
    assert eq.functional_J(metric) == first_J
    assert phi_points == []

    def no_integral(*args, **kwargs):
        raise AssertionError("a cached area must not integrate")

    monkeypatch.setattr(orbifold, "integrate", no_integral)
    assert eq.area(base) == first_area
    assert phi_points == []


def test_plan_entry_dies_with_its_base():
    base = unshared(eq.wps_profile(2, 3))
    eq.area(base)
    plan, ref = weakref.ref(base._plan), weakref.ref(base)
    assert plan().integrals  # the area is kept in the base's plan
    del base
    gc.collect()
    assert ref() is None
    assert plan() is None


def test_integrand_cannot_write_its_nodes():
    base = eq.wps_profile(2, 3)
    metric = eq.wps_metric(2, 3)
    before = (eq.area(base), eq.gauss_bonnet_check(base), eq.omega_norms(metric))

    def writes(s):
        s[0] = 0.0
        return np.ones_like(s)

    with pytest.raises(ValueError):
        orbifold.integrate_over_base(base, writes)
    with pytest.raises(ValueError):
        integrate(writes, 0.0, 1.0)
    nodes = []
    orbifold.integrate_over_base(base, lambda s: nodes.append(s) or np.ones_like(s))
    with pytest.raises(ValueError):
        eq.gauss_curvature(base, nodes[0])[0] = 0.0
    assert (eq.area(base), eq.gauss_bonnet_check(base), eq.omega_norms(metric)) == before
    reference = uncached(base, np.ones_like)
    assert eq.area(eq.wps_profile(2, 3)) == reference == before[0]


def test_profile_with_unhashable_callables_has_a_plan():
    # np.poly1d defines equality but no hash; the base carries its plan, so
    # it needs none
    phi = np.poly1d([-1.0 / math.pi, 1.0, 0.0])  # s (pi - s) / pi: slopes 1 and -1
    base = eq.ConeSurfaceProfile(math.pi, 1, 1, phi, phi.deriv(), phi.deriv(2))
    with pytest.raises(TypeError):
        hash(base)
    for _ in range(2):  # the first call fills the plan, the second reads it
        assert eq.area(base) == uncached(base, np.ones_like)
        assert eq.gauss_bonnet_check(base) == uncached(
            base, lambda s: curvature(base, s), GB_CFG
        ) / (2.0 * math.pi)
    assert base._plan.integrals


def test_curvature_domain_is_checked_off_the_plan_nodes_only():
    # the plan's node arrays lie inside (0, L): there K is the plan's
    # read-only array, and anywhere else s is checked before phi'' is called
    phi_d2_points = []
    shared = eq.wps_profile(2, 3)
    base = eq.ConeSurfaceProfile(
        shared.length,
        shared.m_start,
        shared.m_end,
        lambda s: shared.phi(s),
        lambda s: shared.phi_d1(s),
        counted(shared.phi_d2, phi_d2_points),
        label=shared.label,
    )
    L = base.length
    outside = (0.0, L, -0.25 * L, 1.25 * L, np.array([0.5 * L, L]), np.array([0.0, 0.5 * L]))
    for s in outside:
        with pytest.raises(DomainError):
            eq.gauss_curvature(base, s)
    assert phi_d2_points == []

    nodes = orbifold.quadrature_nodes(base)
    K = eq.gauss_curvature(base, nodes)
    assert phi_d2_points == [nodes.size]
    phi_d2_points.clear()
    for _ in range(2):
        assert eq.gauss_curvature(base, nodes) is K
    assert not K.flags.writeable
    assert phi_d2_points == []

    # the same points in another array are off the plan: computed afresh
    assert np.array_equal(eq.gauss_curvature(base, nodes.copy()), K)
    assert phi_d2_points == [nodes.size]


def test_unhashable_base_evaluates_F_once_per_level():
    # a base of unhashable callables carries its plan as any base does, so
    # F's values at the first-level nodes serve the F rows, bit for bit as on
    # a hashable base
    class Unhashable:
        __hash__ = None

        def __init__(self, fn):
            self.fn = fn

        def __call__(self, s):
            return self.fn(s)

    members = (np.sin, np.cos, lambda s: -np.sin(s))
    unhashable = eq.ConeSurfaceProfile(math.pi, 1, 1, *map(Unhashable, members))
    hashable = eq.ConeSurfaceProfile(math.pi, 1, 1, *members)
    F_points = []
    F = fourier_field(math.pi, [0.1], 1.0)
    F = dataclasses.replace(F, value=counted(F.value, F_points))
    norms = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fractional Chern data
        for base in (unhashable, hashable):
            F_points.clear()
            norms.append(eq.omega_norms(eq.InvariantMetric(base, eq.RadialField.const(1.0), F)))
            assert F_points == [127]
    assert norms[0] == norms[1]


def test_bound_chain_evaluates_F_once_per_level():
    # omega_norms, J, J_max and Cauchy-Schwarz share one report: F is evaluated
    # once, at the first level, where every norm of this density converges
    F_points = []
    base = eq.wps_profile(2, 3)
    F = eq.wps_density_field(2, 3)
    F = dataclasses.replace(F, value=counted(F.value, F_points))
    norms_and_bounds(base, F)
    assert F_points == [127]

    # None and the default config are one key; another config is another
    F_points.clear()
    metric = eq.InvariantMetric(base, eq.RadialField.const(1.0), F)
    assert eq.omega_norms(metric, QuadratureConfig()) == eq.omega_norms(metric)
    assert F_points == []
    eq.omega_norms(metric, QuadratureConfig(rel_tol=1e-9))
    assert F_points


def test_norms_entry_dies_with_its_field_and_its_base():
    base = unshared(eq.wps_profile(2, 3))
    F = eq.wps_density_field(2, 3)
    eq.optimal_ell(base, F)
    plan = base._plan
    assert list(plan.norms) == [F]
    field_ref = weakref.ref(F)
    del F
    gc.collect()
    assert field_ref() is None
    assert len(plan.norms) == 0

    F = eq.wps_density_field(2, 3)
    eq.optimal_ell(base, F)
    plan_ref, base_ref = weakref.ref(plan), weakref.ref(base)
    del plan, base
    gc.collect()
    assert base_ref() is None
    assert plan_ref() is None


def test_field_with_unhashable_callables_is_served_uncached():
    # np.poly1d defines equality but no hash, so such a field cannot key a
    # report; F' = 0.4 s (L - s) (L - 2 s) vanishes at both poles
    base = unshared(eq.make_round_sphere(0.5))
    p = 1.0 + 0.1 * np.poly1d([-1.0, base.length, 0.0]) ** 2
    unhashable = eq.RadialField(value=p, d1=p.deriv(), d2=p.deriv(2))
    with pytest.raises(TypeError):
        hash(unhashable)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fractional Chern data
        hashable = rewrapped(unhashable)
        expected = norms_and_bounds(base, hashable)
        for _ in range(2):
            assert norms_and_bounds(base, unhashable) == expected
    assert list(base._plan.norms) == [hashable]


def test_constructors_share_one_base_per_arguments():
    base = eq.wps_profile(2, 3)
    assert eq.wps_profile(np.int64(2), 3) is base
    assert eq.wps_metric(2, 3, 0.4).base is eq.wps_metric(2, 3, 0.7).base is base
    wps_model = {"base": {"type": "wps", "m1": 2, "m2": 3, "grid": 512},
                 "ell": {"type": "constant", "value": 1.0}, "F": {"type": "wps"}}
    assert modelio.build_metric(modelio.parse_model(wps_model)).base is base
    assert eq.wps_profile(3, 2) is not base

    sphere = eq.make_round_sphere(0.5)
    assert eq.hopf_metric(0.3).base is sphere
    assert eq.make_round_sphere(np.float64(0.5)) is sphere
    assert eq.make_round_sphere(1) is eq.make_round_sphere(1.0) is not sphere


def test_shared_constructors_validate_every_call():
    eq.wps_profile(2, 3)
    eq.make_round_sphere(0.5)
    for _ in range(2):  # a rejected call caches nothing that a repeat could return
        with pytest.raises(NotCoprime):
            eq.wps_profile(2, 4)
        with pytest.raises(NotCoprime):  # int(2.0) would be a cached key
            eq.wps_profile(2.0, 3)
        for radius in (0.0, -0.5):
            with pytest.raises(ValueError):
                eq.make_round_sphere(radius)


def test_second_descent_on_a_base_evaluates_no_profile():
    # the minimizer assembles its matrices at the Galerkin grid, and its final
    # functional is integrated at the first-level nodes; the plan keeps both,
    # so a descent on a new ell over a warm base reads density, phi'/phi and
    # K from the plan
    phi_points = []
    shared = eq.wps_profile(2, 3)
    base = dataclasses.replace(
        shared,
        phi=counted(shared.phi, phi_points),
        phi_d1=counted(shared.phi_d1, phi_points),
        phi_d2=counted(shared.phi_d2, phi_points),
    )
    F = eq.wps_density_field(2, 3)
    eq.minimize_conformal(eq.InvariantMetric(base, eq.RadialField.const(0.5), F))
    assert phi_points
    phi_points.clear()

    result = eq.minimize_conformal(eq.InvariantMetric(base, eq.RadialField.const(0.8), F))
    assert phi_points == []
    reference = eq.minimize_conformal(eq.wps_metric(2, 3, 0.8))
    assert result.mu_upper == reference.mu_upper
    assert result.trace.tolist() == reference.trace.tolist()
    assert len(result.trace) > 1


def test_functionals_evaluate_ell_once_per_node_array(monkeypatch):
    # J's three integrands are rows of one integral, as are the conformal
    # functional's two: each reads ell once per node array it receives
    integrand_points, ell_points = [], []
    real_integrate = orbifold.integrate

    def counting_integrate(f, *args, **kwargs):
        return real_integrate(counted(f, integrand_points), *args, **kwargs)

    monkeypatch.setattr(orbifold, "integrate", counting_integrate)
    base = eq.wps_profile(2, 3)
    ell = fourier_field(base.length, [0.1], 1.0)
    ell = dataclasses.replace(ell, value=counted(ell.value, ell_points))
    metric = eq.InvariantMetric(base, ell, eq.wps_density_field(2, 3))
    ell_points.clear()
    eq.functional_J(metric)
    assert integrand_points == [127]  # one call: the first level converges
    assert ell_points == integrand_points

    integrand_points.clear()
    ell_points.clear()
    eq.conformal_functional(metric, fourier_field(base.length, [0.05], 1.0))
    assert integrand_points
    assert ell_points == integrand_points
