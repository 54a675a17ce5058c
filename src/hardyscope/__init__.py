"""Desk-scale numerical verification of Hardy-type inequalities on
Euclidean, real hyperbolic and Damek-Ricci spaces.

The package is organized around a radial density model f(r) per space:
``spaces`` builds models, ``calculus`` differentiates radial expressions,
``weights`` produces (V, W) Hardy pairs with their ground states, ``green``
evaluates P-Green functions and the weights they induce, ``spectral``
approximates bottom eigenvalues on balls, and ``verify`` turns the claimed
inequalities into signed numerical gaps.
"""

from .calculus import (
    Jet2,
    RadialScalar,
    hilfe_rhs,
    jet_where,
    laplacian_radial,
    p_laplacian_radial,
    power_product_coefficient,
    radius,
)
from .errors import (
    DomainError,
    HardyscopeError,
    PreconditionError,
    QuadratureError,
    SpaceValidationError,
)
from .green import (
    AsymptoticPrediction,
    GreenEvaluation,
    asymptotic_prediction,
    green_gamma0,
    green_log_derivative,
    green_value,
    green_weight,
    green_weight_batch,
    green_weight_supercritical,
    unit_sphere_volume,
)
from .spaces import (
    DEFAULT_CATALOG,
    DensityModel,
    SpaceSpec,
    build_density,
    default_grid,
    default_models,
    heisenberg_exponent,
    parse_space,
    validate_heisenberg_params,
)
from .spectral import EigenProblem, SpectralResult, bottom_eigenvalue
from .verify import (
    AsymptoticsFit,
    CriticalityProbe,
    GapResult,
    NullCriticalityMass,
    SuiteMember,
    TestFunctionSuite,
    UncertaintyResult,
    VerificationReport,
    asymptotics_fit,
    criticality_probe,
    default_suite,
    null_criticality_mass,
    ode_residual,
    p_rayleigh_gap,
    rayleigh_gap,
    rellich_gap,
    run_verification,
    uncertainty_gap,
)
from .weights import (
    WeightPair,
    WeightSample,
    default_aux_h,
    hpw_g,
    raw_density_ratio,
    weight_dr_poincare,
    weight_gamma_dr,
    weight_gamma_family,
    weight_p_dr,
    weight_theorem_b,
    weight_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HardyscopeError",
    "SpaceValidationError",
    "DomainError",
    "PreconditionError",
    "QuadratureError",
    # spaces
    "SpaceSpec",
    "DensityModel",
    "DEFAULT_CATALOG",
    "parse_space",
    "build_density",
    "default_models",
    "default_grid",
    "heisenberg_exponent",
    "validate_heisenberg_params",
    # calculus
    "Jet2",
    "RadialScalar",
    "radius",
    "jet_where",
    "laplacian_radial",
    "p_laplacian_radial",
    "power_product_coefficient",
    "hilfe_rhs",
    # weights
    "WeightPair",
    "WeightSample",
    "weight_theorem_b",
    "weight_dr_poincare",
    "weight_gamma_family",
    "weight_gamma_dr",
    "weight_weighted",
    "weight_p_dr",
    "default_aux_h",
    "raw_density_ratio",
    "hpw_g",
    # green
    "GreenEvaluation",
    "AsymptoticPrediction",
    "green_value",
    "green_log_derivative",
    "green_weight",
    "green_weight_batch",
    "green_gamma0",
    "green_weight_supercritical",
    "asymptotic_prediction",
    "unit_sphere_volume",
    # spectral
    "EigenProblem",
    "SpectralResult",
    "bottom_eigenvalue",
    # verify
    "SuiteMember",
    "TestFunctionSuite",
    "default_suite",
    "GapResult",
    "rayleigh_gap",
    "p_rayleigh_gap",
    "ode_residual",
    "CriticalityProbe",
    "criticality_probe",
    "NullCriticalityMass",
    "null_criticality_mass",
    "UncertaintyResult",
    "uncertainty_gap",
    "rellich_gap",
    "AsymptoticsFit",
    "asymptotics_fit",
    "VerificationReport",
    "run_verification",
]
