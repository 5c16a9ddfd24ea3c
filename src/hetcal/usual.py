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

from .data import (FirstStageData, FitResult, SecondStageData, Theta, _alpha_x0, _col, _sum,
                   validate)
from .errors import InvalidLevel, NonFiniteValue, SlopeNearZero

EXPANSION_FACTOR = 1.96  # conventional coverage factor for expanded uncertainty


def _half_width(var_x0, level: float):
    """Half-width of the symmetric normal-theory interval at ``level``, for
    one variance or an array of them."""
    return NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0) * np.sqrt(var_x0)


def confidence_interval(x0_hat: float, var_x0: float, level: float = 0.95):
    """Symmetric normal-theory interval for the unknown concentration."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must be in (0, 1), got {level}")
    if var_x0 < 0:
        raise ValueError(f"var_x0 must be nonnegative, got {var_x0}")
    half = _half_width(var_x0, level)
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


def _finite(*values):
    """Whether every value is finite, elementwise over stacked lanes."""
    return np.logical_and.reduce([np.isfinite(v) for v in values])


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
    return float(_variance_usual(theta.beta, theta.x0, theta.sigma_eps2, first, k))


def _variance_usual(beta, x0, sigma_eps2, first, k):
    """The body of ``variance_usual``, for one dataset or a stack."""
    n = first.n
    sxx = _sum(first.xc * first.xc) / n
    m = first.xbar - x0
    return sigma_eps2 / (beta * beta) * (1.0 / k + 1.0 / n + m * m / (n * sxx))


def _usual(first, second):
    """``(alpha, beta, x0, sigma_eps2, var_x0)`` of the classical fit, over
    the last axis of one dataset or a stack, without its checks."""
    with np.errstate(all="ignore"):  # a numerically zero slope is checked by the caller
        n = first.n
        beta = (_sum(first.xc * first.yc) / n) / (_sum(first.xc * first.xc) / n)
        alpha, x0 = _alpha_x0(beta, first, second)
        r = first.y - _col(alpha) - _col(beta) * first.x_fixed
        sigma_eps2 = (_sum(r * r) + second.ss0) / (n + second.k)
        var_x0 = _variance_usual(beta, x0, sigma_eps2, first, second.k)
    return alpha, beta, x0, sigma_eps2, var_x0


def fit_usual(first: FirstStageData, second: SecondStageData, level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of the classical calibration model.

    Everything is closed form: slope and intercept from the first-stage
    normal equations, the unknown concentration by inverting the fitted line
    at the mean sample response, and the error variance as the pooled ML
    estimate (divisor n + k).
    """
    validate(first, second)
    alpha, beta, x0, sigma_eps2, var_x0 = map(float, _usual(first, second))
    if abs(beta) < first.slope_threshold:
        raise SlopeNearZero(f"slope {beta} is numerically zero")
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=sigma_eps2)
    if sigma_eps2 > 0:
        loglik = -0.5 * (first.n + second.k) * (math.log(sigma_eps2) + 1.0)
    else:
        loglik = math.inf  # degenerate noiseless fit
    return _fit_result(theta, var_x0, level, loglik)


def _fit_usual_lanes(data):
    """``fit_usual`` on every dataset of a stack: ``(x0, var_x0, ok)``, where
    ``ok`` marks the lanes ``fit_usual`` returns a result for.  Equal to it
    bit for bit."""
    alpha, beta, x0, sigma_eps2, var_x0 = _usual(data, data)
    ok = ~(abs(beta) < data.slope_threshold) & _finite(alpha, beta, x0, sigma_eps2, var_x0)
    return x0, var_x0, ok
