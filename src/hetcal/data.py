"""Domain containers and validation shared by both calibration estimators.

The two-stage data model: the first stage holds the calibration standards
(nominal concentrations, instrument responses, and the known variance of the
concentration-preparation error for each standard); the second stage holds
the replicate responses measured on the unknown sample.  All containers are
immutable after construction and safe to share across threads.

``validate`` is the input check both estimators run; among other things it
rejects NaN or infinite concentrations and responses with ``NonFiniteValue``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesign,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    TooFewReplicates,
    TooFewStandards,
)


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class FirstStageData:
    """Calibration standards: nominal concentrations ``x_fixed`` (set by the
    analyst), instrument responses ``y``, and the known preparation-error
    variances ``delta_var`` (one per standard, in squared concentration units).
    """

    x_fixed: np.ndarray
    y: np.ndarray
    delta_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_fixed", _as_vector(self.x_fixed))
        object.__setattr__(self, "y", _as_vector(self.y))
        object.__setattr__(self, "delta_var", _as_vector(self.delta_var))

    @property
    def n(self) -> int:
        return self.x_fixed.size


@dataclass(frozen=True, eq=False)
class SecondStageData:
    """Replicate instrument responses measured on the unknown sample."""

    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", _as_vector(self.y0))

    @property
    def k(self) -> int:
        return self.y0.size


@dataclass(frozen=True)
class Theta:
    """Full parameter vector: intercept, slope, unknown concentration, and
    response-error variance."""

    alpha: float
    beta: float
    x0: float
    sigma_eps2: float


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus the uncertainty summary for the unknown
    concentration.

    ``expanded_uncertainty`` is always ``1.96 * sqrt(var_x0)`` (the metrology
    convention), while the confidence interval uses the exact normal quantile
    for the requested level.
    """

    theta_hat: Theta
    var_x0: float
    ci_lower: float
    ci_upper: float
    expanded_uncertainty: float
    log_likelihood: float
    converged: bool
    iterations: int
    score_residual_norm: float


def validate(first: FirstStageData, second: SecondStageData):
    """Check every container invariant; return the pair unchanged if valid.

    Idempotent and side-effect free.  Raises a typed error naming the first
    violated invariant otherwise.
    """
    n = first.x_fixed.size
    if first.y.size != n or first.delta_var.size != n:
        raise MismatchedLengths(
            f"first-stage vectors have lengths {n}, {first.y.size}, "
            f"{first.delta_var.size}; they must match"
        )
    if n < 3:
        raise TooFewStandards(f"need at least 3 standards, got {n}")
    if second.y0.size < 2:
        raise TooFewReplicates(
            f"need at least 2 sample readings, got {second.y0.size}"
        )
    if np.any(first.delta_var < 0) or not np.all(np.isfinite(first.delta_var)):
        bad = int(np.flatnonzero(~(first.delta_var >= 0))[0])
        raise NegativeVariance(
            f"delta_var[{bad}] = {first.delta_var[bad]} is not a "
            "nonnegative finite number"
        )
    for name, vec in (("x_fixed", first.x_fixed), ("y", first.y), ("y0", second.y0)):
        if not np.all(np.isfinite(vec)):
            bad = int(np.flatnonzero(~np.isfinite(vec))[0])
            raise NonFiniteValue(f"{name}[{bad}] = {vec[bad]} is not a finite number")
    if np.ptp(first.x_fixed) == 0.0:
        raise DegenerateDesign("all standard concentrations are identical")
    return first, second


def means(first: FirstStageData, second: SecondStageData):
    """Arithmetic means (x-bar, y-bar, y0-bar) of the three data vectors."""
    return (
        float(first.x_fixed.mean()),
        float(first.y.mean()),
        float(second.y0.mean()),
    )


def slope_threshold(first: FirstStageData) -> float:
    """Smallest slope magnitude considered nonzero for this dataset.

    Relative to the response/concentration spread so that one code path
    survives slopes of order 1e5 and of order 10 alike.
    """
    rscale = float(np.ptp(first.y))
    cscale = float(np.ptp(first.x_fixed))
    if rscale == 0.0 or cscale == 0.0:
        return 1e-12
    return 1e-12 * rscale / cscale
