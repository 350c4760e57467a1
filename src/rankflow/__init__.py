"""Rank-based interacting diffusions with common noise: a particle
simulator, a pathwise splitting solver for the conditional-CDF SPDE,
kinetic/entropy diagnostics, and verification experiments."""

from .bumps import Bump1D
from .coefficients import (
    CoefficientSet,
    DomainError,
    NondegeneracyViolated,
    PositivityViolated,
    ValidationError,
    build_coefficient_set,
    build_from_sources,
    validate,
)
from .diagnostics import (
    BumpTestFunction,
    KineticMeasureEstimate,
    chain_rule_residual,
    chi,
    coarea_check,
    dissipation_measure,
    entropy_identity_residual,
    eval_rho,
    weak_form_residual,
)
from .experiments import (
    ExperimentReport,
    convergence_study,
    martingale_statistic,
    stability_experiment,
)
from .expr import (
    CoefficientExpr,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    parse_coefficient,
)
from .measures import (
    EmptyInputError,
    GridFunction,
    InitialDistribution,
    StepCDF,
    empirical_cdf,
    gaussian,
    l1_cdf_distance,
    mixture,
    point_mass,
    uniform,
    w1,
)
from .particles import NonFiniteState, ParticleState, Trajectory, em_step, rank_fractions, simulate
from .randomness import (
    BrownianPath,
    GridConflict,
    make_noise_bundle,
    refine_path,
    sample_path,
)
from .solver import (
    SolverConfig,
    SpdeSolution,
    analytic_constant_solution,
    solve,
    solve_paths,
    spde_step,
)

__version__ = "0.1.0"
