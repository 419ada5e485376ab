"""Simulation and rate-functional analysis of kernel-weighted mean-field
dynamics with small noise: singular Volterra kernels and their algebra,
interacting-particle solvers with reproducible counter-based noise, coupled
fluctuation limits, and rate functionals evaluated as discrete optimal
control problems."""

__version__ = "0.1.0"

from .coefficients import (
    BuiltinLinearMeanField,
    CoefficientSet,
    default_sampler,
    lions_fd_check,
    lipschitz_probe,
)
from .errors import (
    BlowUpError,
    BudgetError,
    ConfigError,
    DimensionMismatchError,
    GridMismatchError,
    KernelDomainError,
    NonIntegrableError,
    RankDeficiencyError,
    SingularityError,
    VolterraError,
)
from .fluctuations import (
    FluctuationPair,
    clt_gap,
    clt_pair,
    holder_probe,
    scaling_regression,
    strong_error_vs_eps,
)
from .grids import TimeGrid
from .kernels import (
    ConstantKernel,
    CustomKernel,
    FbmKernel,
    GridKernel,
    Kernel,
    PowerKernel,
    TabulatedKernel,
    convolve,
    eval_kernel,
    fbm_normalizer,
    gronwall_check,
    integrate_kernel,
    kernel_from_params,
    regularity_probe,
    resolvent,
)
from .measures import EmpiricalMeasure, distance_to_dirac0, wasserstein2, wasserstein2_full
from .rates import (
    Halfspace,
    RateProblem,
    RateSolution,
    ldp_rate,
    mdp_rate,
    minimize_rate_endpoint,
    tail_probability_probe,
)
from .solvers import (
    ControlPath,
    Model,
    PathEnsemble,
    ensemble_summary,
    simulate_controlled,
    simulate_particles,
    solve_controlled_deterministic,
    solve_deterministic_limit,
)

__all__ = [
    # coefficients
    "BuiltinLinearMeanField", "CoefficientSet", "default_sampler", "lions_fd_check",
    "lipschitz_probe",
    # errors
    "BlowUpError", "BudgetError", "ConfigError", "DimensionMismatchError", "GridMismatchError",
    "KernelDomainError", "NonIntegrableError", "RankDeficiencyError", "SingularityError",
    "VolterraError",
    # fluctuations
    "FluctuationPair", "clt_gap", "clt_pair", "holder_probe", "scaling_regression",
    "strong_error_vs_eps",
    # grids
    "TimeGrid",
    # kernels
    "ConstantKernel", "CustomKernel", "FbmKernel", "GridKernel", "Kernel", "PowerKernel",
    "TabulatedKernel", "convolve", "eval_kernel", "fbm_normalizer", "gronwall_check",
    "integrate_kernel", "kernel_from_params", "regularity_probe", "resolvent",
    # measures
    "EmpiricalMeasure", "distance_to_dirac0", "wasserstein2", "wasserstein2_full",
    # rates
    "Halfspace", "RateProblem", "RateSolution", "ldp_rate", "mdp_rate",
    "minimize_rate_endpoint", "tail_probability_probe",
    # solvers
    "ControlPath", "Model", "PathEnsemble", "ensemble_summary", "simulate_controlled",
    "simulate_particles", "solve_controlled_deterministic", "solve_deterministic_limit",
]
