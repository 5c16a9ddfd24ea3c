"""Calibration with heteroscedastic preparation error in the standards.

Two estimators share one data model: the classical calibration fit, which
treats the standard concentrations as exact, and the controlled-variable fit,
which models a known, standard-specific preparation-error variance on top of
the response error.  A Monte Carlo engine reproduces the sampling behavior
of both estimators, and a CLI exposes fitting and simulation on CSV inputs.
"""

from .data import (
    FirstStageData,
    FitResult,
    SecondStageData,
    Theta,
    means,
    validate,
)
from .errors import (
    AllReplicatesFailed,
    CalibrationError,
    DegenerateDesign,
    InvalidLevel,
    MismatchedLengths,
    NegativeUncertainty,
    NegativeVariance,
    NonFiniteValue,
    NonPositiveVariance,
    ParseError,
    SingularInformation,
    SlopeNearZero,
    TooFewReplicates,
    TooFewStandards,
)
from .hetero import (
    fisher_information,
    fit_hetero,
    gamma,
    log_likelihood,
    profile_alpha_x0,
    score_residuals,
    variance_x0,
)
from .io import (
    FitReport,
    parse_first_stage,
    parse_second_stage,
    parse_scenarios,
)
from .simulate import (
    ModelAggregates,
    ReplicateTable,
    ScenarioConfig,
    ScenarioSummary,
    default_delta_vars,
    default_grid,
    generate_dataset,
    make_scenario,
    replicate_rng,
    run_scenario,
    simulate_replicates,
    summarize,
    theoretical_variances,
)
from .usual import confidence_interval, fit_usual, variance_usual

__version__ = "0.1.0"

__all__ = [
    "AllReplicatesFailed",
    "CalibrationError",
    "DegenerateDesign",
    "FirstStageData",
    "FitReport",
    "FitResult",
    "InvalidLevel",
    "MismatchedLengths",
    "ModelAggregates",
    "NegativeUncertainty",
    "NegativeVariance",
    "NonFiniteValue",
    "NonPositiveVariance",
    "ParseError",
    "ReplicateTable",
    "ScenarioConfig",
    "ScenarioSummary",
    "SecondStageData",
    "SingularInformation",
    "SlopeNearZero",
    "Theta",
    "TooFewReplicates",
    "TooFewStandards",
    "confidence_interval",
    "default_delta_vars",
    "default_grid",
    "fisher_information",
    "fit_hetero",
    "fit_usual",
    "gamma",
    "generate_dataset",
    "log_likelihood",
    "make_scenario",
    "means",
    "parse_first_stage",
    "parse_scenarios",
    "parse_second_stage",
    "profile_alpha_x0",
    "replicate_rng",
    "run_scenario",
    "score_residuals",
    "simulate_replicates",
    "summarize",
    "theoretical_variances",
    "validate",
    "variance_usual",
    "variance_x0",
]
