"""Yamabe-type functionals of circle-invariant metrics on circle bundles
over rotationally symmetric 2-orbifolds: topological invariants by
quadrature, fiber-length optimization, conformal uniformization, and
desk-scale verification of the associated upper bounds."""

from __future__ import annotations

# the one version source: packaging metadata and reports both read it
__version__ = "0.1.0"

from .bundle import (
    InvariantMetric,
    NormReport,
    RadialField,
    omega_norms,
    scalar_curvature_total,
    scale_metric,
    volume_total,
)
from .conformal import (
    MinimizeResult,
    MinimizerConfig,
    laplace_residual,
    laplace_solve_radial,
    minimize_conformal,
    uniformize_positive,
)
from .invariants import (
    InvariantReport,
    build_invariant_report,
    c1_closed,
    c1_quadrature,
    chi_boundary,
    chi_closed,
    chi_quadrature,
)
from .numerics import (
    IntegralResult,
    QuadratureConfig,
    integrate,
    minimize_scalar,
)
from .orbifold import (
    ConeSurfaceProfile,
    FlatTorusBase,
    area,
    chi_orb,
    gauss_bonnet_check,
    gauss_curvature,
    make_round_sphere,
    profile_from_callables,
    profile_from_samples,
    scale_base,
    wps_profile,
)
from .scaling import ScanTable, collapse_bounds, ell_scan, fit_exponent
from .yamabe import (
    SIGMA_S3,
    YamabeReport,
    bound_cauchy_schwarz,
    bound_theorem_main,
    bound_weighted_hopf,
    conformal_functional,
    functional_J,
    functional_J_closed,
    hebey_vaugon_bound,
    hopf_metric,
    optimal_ell,
    sigma_sn,
    sphere_volume,
    wps_density_field,
    wps_metric,
)
