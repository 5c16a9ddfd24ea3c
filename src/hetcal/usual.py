"""Closed-form ML estimation for the classical calibration model.

The classical model treats the standard concentrations as error-free.  All
estimators are closed-form, so this module doubles as the reduction oracle
for the heteroscedastic estimator: when every ``delta_var`` entry is zero the
two models coincide.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .data import FirstStageData, FitResult, SecondStageData, Theta, profile_alpha_x0, validate
from .errors import InvalidLevel, NonFiniteValue, SlopeNearZero

EXPANSION_FACTOR = 1.96  # conventional coverage factor for expanded uncertainty


def confidence_interval(x0_hat: float, var_x0: float, level: float = 0.95):
    """Symmetric normal-theory interval for the unknown concentration."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must be in (0, 1), got {level}")
    if var_x0 < 0:
        raise ValueError(f"var_x0 must be nonnegative, got {var_x0}")
    half = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0) * math.sqrt(var_x0)
    return float(x0_hat - half), float(x0_hat + half)


def _fit_result(theta: Theta, var_x0: float, level: float, log_likelihood: float,
                converged: bool = True, iterations: int = 0,
                score_norm: float = 0.0) -> FitResult:
    """Fit result at ``theta`` with the interval at ``level`` and the
    expanded uncertainty that ``var_x0`` implies; both estimators report
    their uncertainty through it, and an estimate that overflowed fails
    here rather than being reported."""
    if not all(map(math.isfinite, (theta.alpha, theta.beta, theta.x0, theta.sigma_eps2, var_x0))):
        raise NonFiniteValue(f"the fit is not representable in floating point: {theta}, "
                             f"var_x0 = {var_x0}")
    lo, hi = confidence_interval(theta.x0, var_x0, level)
    return FitResult(
        theta_hat=theta,
        var_x0=var_x0,
        ci_lower=lo,
        ci_upper=hi,
        expanded_uncertainty=EXPANSION_FACTOR * math.sqrt(var_x0),
        log_likelihood=log_likelihood,
        converged=converged,
        iterations=iterations,
        score_residual_norm=score_norm,
    )


def variance_usual(theta: Theta, first: FirstStageData, k: int) -> float:
    """Large-sample variance of the estimated concentration under the
    classical model, evaluated at ``theta``.

    Exposed separately so the simulator can evaluate it at the true
    parameter values as well as at the estimates.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if abs(theta.beta) < first.slope_threshold:
        raise SlopeNearZero(f"slope {theta.beta} is numerically zero")
    n = first.n
    sxx = np.mean(first.xc**2)
    return float(
        theta.sigma_eps2
        / (theta.beta * theta.beta)
        * (1.0 / k + 1.0 / n + (first.xbar - theta.x0) ** 2 / (n * sxx))
    )


def fit_usual(first: FirstStageData, second: SecondStageData, level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of the classical calibration model.

    Everything is closed form: slope and intercept from the first-stage
    normal equations, the unknown concentration by inverting the fitted line
    at the mean sample response, and the error variance as the pooled ML
    estimate (divisor n + k).
    """
    validate(first, second)
    n, k = first.n, second.k
    beta = float(np.mean(first.xc * first.yc) / np.mean(first.xc**2))
    alpha, x0 = profile_alpha_x0(beta, first, second)

    ssr = float(np.sum((first.y - alpha - beta * first.x_fixed) ** 2))
    sigma_eps2 = (ssr + second.ss0) / (n + k)

    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=sigma_eps2)
    if sigma_eps2 > 0:
        loglik = -0.5 * (n + k) * (math.log(sigma_eps2) + 1.0)
    else:
        loglik = math.inf  # degenerate noiseless fit
    return _fit_result(theta, variance_usual(theta, first, k), level, loglik)
