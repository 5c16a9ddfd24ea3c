"""Domain containers and validation shared by both calibration estimators.

The two-stage data model: the first stage holds the calibration standards
(nominal concentrations, instrument responses, and the known variance of the
concentration-preparation error for each standard); the second stage holds
the replicate responses measured on the unknown sample.  All containers are
immutable after construction and check their own vectors when built (one
length, finite values, nonnegative finite ``delta_var``); ``validate`` adds
what a fit needs: n >= 3, k >= 2 and distinct concentrations.  Both
estimators read the intercept and the unknown concentration at their fitted
slope from ``profile_alpha_x0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesign,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    SlopeNearZero,
    TooFewReplicates,
    TooFewStandards,
)


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def _require(ok: np.ndarray, name: str, vec: np.ndarray, error: type, what: str):
    """Raise ``error`` naming the first entry of ``vec`` where ``ok`` is false."""
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok)[0])
        raise error(f"{name}[{bad}] = {vec[bad]} is not a {what}")


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
        x, y, dv = self.x_fixed, self.y, self.delta_var
        if y.size != x.size or dv.size != x.size:
            raise MismatchedLengths(f"first-stage vectors have lengths {x.size}, {y.size}, "
                                    f"{dv.size}; they must match")
        _require((dv >= 0) & (dv < np.inf), "delta_var", dv, NegativeVariance,
                 "nonnegative finite number")
        _require(np.isfinite(x), "x_fixed", x, NonFiniteValue, "finite number")
        _require(np.isfinite(y), "y", y, NonFiniteValue, "finite number")

    @property
    def n(self) -> int:
        return self.x_fixed.size


@dataclass(frozen=True, eq=False)
class SecondStageData:
    """Replicate instrument responses measured on the unknown sample."""

    y0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y0", _as_vector(self.y0))
        _require(np.isfinite(self.y0), "y0", self.y0, NonFiniteValue, "finite number")

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
    """Check what a fit needs beyond the containers' own checks: n >= 3,
    k >= 2 and distinct concentrations.  Returns the pair unchanged or raises
    a typed error naming the first violated condition."""
    if first.n < 3:
        raise TooFewStandards(f"need at least 3 standards, got {first.n}")
    if second.k < 2:
        raise TooFewReplicates(f"need at least 2 sample readings, got {second.k}")
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


def profile_alpha_x0(beta: float, first: FirstStageData, second: SecondStageData):
    """Closed-form intercept and unknown concentration at a given slope.

    The intercept depends only on the slope and the data means; no iteration
    is involved.  Both estimators invert their fitted line through it.
    """
    if abs(beta) < slope_threshold(first):
        raise SlopeNearZero(f"slope {beta} is numerically zero")
    xbar, ybar, y0bar = means(first, second)
    alpha = ybar - beta * xbar
    return alpha, (y0bar - alpha) / beta
