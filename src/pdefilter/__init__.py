"""Nonlinear Bayesian state estimation on a spectral grid.

The package predicts a filter's prior by transporting the posterior density
along representative characteristics with the exact propagator of a
Chebyshev-collocation advection operator, updates it by Bayes' rule, and
benchmarks the result against bootstrap particle filtering and unscented
Kalman filtering on the classic scalar growth model.
"""

from .chebyshev import Interval, SpectralGrid
from .density import Branches, GridDensity, assemble_prior, integrate, mean, mollified_delta, normalize
from .errors import (
    DomainEscapeError,
    FilterDivergenceError,
    SingularMatrixError,
    WeightUnderflowError,
)
from .filters import (
    GaussianSpec,
    PdefConfig,
    PdefState,
    PfState,
    ScalarStateModel,
    UkfState,
    estimate,
    gaussian_likelihood,
    gaussian_quantile_points,
    pdef_init,
    pdef_step,
    pf_init,
    pf_step,
    systematic_resample,
    ukf_init,
    ukf_step,
)
from .bench import (
    ExperimentConfig,
    RmseReport,
    TrajectoryRecord,
    benchmark_model,
    rmse,
    run_experiment,
    run_trajectory,
    simulate_truth,
)

__version__ = "0.1.0"

__all__ = [
    "Branches",
    "DomainEscapeError",
    "ExperimentConfig",
    "FilterDivergenceError",
    "GaussianSpec",
    "GridDensity",
    "Interval",
    "PdefConfig",
    "PdefState",
    "PfState",
    "RmseReport",
    "ScalarStateModel",
    "SingularMatrixError",
    "SpectralGrid",
    "TrajectoryRecord",
    "UkfState",
    "WeightUnderflowError",
    "assemble_prior",
    "benchmark_model",
    "estimate",
    "gaussian_likelihood",
    "gaussian_quantile_points",
    "integrate",
    "mean",
    "mollified_delta",
    "normalize",
    "pdef_init",
    "pdef_step",
    "pf_init",
    "pf_step",
    "rmse",
    "run_experiment",
    "run_trajectory",
    "simulate_truth",
    "systematic_resample",
    "ukf_init",
    "ukf_step",
]
