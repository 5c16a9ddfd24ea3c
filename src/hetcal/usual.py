"""Closed-form ML estimation for the classical calibration model.

The classical model treats the standard concentrations as error-free.  All
estimators are closed-form, so this module doubles as the reduction oracle
for the heteroscedastic estimator: when every ``delta_var`` entry is zero the
two models coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .data import (FirstStageData, FitResult, SecondStageData, Theta, _alpha_x0, _col,
                   _finite_verdict, _quantile, _raise_first, _require_finite,
                   _require_finite_values, _require_parameters, _require_slope, _slope_verdict,
                   _sum, validate)

EXPANSION_FACTOR = 1.96  # conventional coverage factor for expanded uncertainty


def confidence_interval(x0_hat: float, var_x0: float, level: float = 0.95):
    """Symmetric normal-theory interval at ``level`` (``_quantile``) for the
    unknown concentration; ``x0_hat`` and ``var_x0`` must be finite
    (``NonFiniteValue``) and ``var_x0`` nonnegative."""
    quantile = _quantile(level)
    _require_finite_values(x0_hat=x0_hat, var_x0=var_x0)
    if var_x0 < 0:
        raise ValueError(f"var_x0 must be nonnegative, got {var_x0}")
    half = quantile * np.sqrt(var_x0)
    return float(x0_hat - half), float(x0_hat + half)


def _fit_result(fit, verdict, level: float) -> FitResult:
    """Fit result from an estimator's record ``(alpha, beta, x0, sigma_eps2,
    var_x0, converged, score_norm, log_likelihood, iterations)`` with the
    interval at ``level`` and the expanded uncertainty that ``var_x0``
    implies; both estimators report through it.  A fit that failed its
    ``verdict`` raises the first failed reason's error instead."""
    *estimates, converged, score_norm, loglik, iterations = fit
    alpha, beta, x0, s2, var_x0 = map(float, estimates)
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=s2)
    _raise_first(verdict, beta=beta, s2=s2, theta=theta, var_x0=var_x0)
    lo, hi = confidence_interval(theta.x0, var_x0, level)
    return FitResult(
        theta_hat=theta,
        var_x0=var_x0,
        ci_lower=lo,
        ci_upper=hi,
        expanded_uncertainty=EXPANSION_FACTOR * math.sqrt(var_x0),
        log_likelihood=float(loglik),
        converged=bool(converged),
        iterations=int(iterations),
        score_residual_norm=float(score_norm),
    )


def variance_usual(theta: Theta, first: FirstStageData, k: int) -> float:
    """Large-sample variance of the estimated concentration under the
    classical model, evaluated at ``theta``.

    Exposed separately so the simulator can evaluate it at the true
    parameter values as well as at the estimates.  It is zero at
    ``sigma_eps2 = 0``, the noiseless limit.
    """
    _, beta, x0, s2 = _require_parameters(k, zero_variance=True, **vars(theta))
    _require_slope(theta.beta, first)
    with np.errstate(all="ignore"):
        var = _variance_usual(beta, x0, s2, first, k)
    return float(_require_finite("variance_usual", var, **vars(theta)))


def _variance_usual(beta, x0, sigma_eps2, first, k):
    """The body of ``variance_usual``, for one dataset or a stack."""
    m = first.xbar - x0
    return sigma_eps2 / (beta * beta) * (1.0 / k + 1.0 / first.n + m * m / first.sxx)


def _usual(first, second):
    """The classical fit over the last axis of one dataset or a stack, as the
    record ``_fit_result`` reads (converged, with no score left, after no
    iterations), and its verdict, which fails where the slope is numerically
    zero or an output is not finite."""
    with np.errstate(all="ignore"):  # judged by the verdict, not reported
        n, k = first.n, second.k
        beta = first.sxy / first.sxx
        alpha, x0 = _alpha_x0(beta, first, second)
        r = first.yc - _col(beta) * first.xc
        sigma_eps2 = (_sum(r * r) + second.ss0) / (n + k)
        var_x0 = _variance_usual(beta, x0, sigma_eps2, first, k)
        # the log-likelihood, infinite at the degenerate noiseless fit
        loglik = np.where(sigma_eps2 > 0.0, -0.5 * (n + k) * (np.log(sigma_eps2) + 1.0),
                          math.inf)[()]
    fit = alpha, beta, x0, sigma_eps2, var_x0
    return (*fit, np.True_, 0.0, loglik, 0), (_slope_verdict(beta, first), _finite_verdict(*fit))


def fit_usual(first: FirstStageData, second: SecondStageData, level: float = 0.95) -> FitResult:
    """Maximum-likelihood fit of the classical calibration model, in closed
    form from the centred summaries: beta = Sxy / Sxx, the intercept and x0
    from ``profile_alpha_x0``, sigma_eps2 = (sum (yc - beta xc)**2 + ss0) /
    (n + k) and var_x0 = sigma_eps2 / beta**2 (1/k + 1/n + (xbar - x0)**2 /
    Sxx).  beta is the slope ``fit_hetero`` starts from, bit for bit, and
    sigma_eps2 the pooled variance at it, a start for its variance."""
    validate(first, second)
    return _fit_result(*_usual(first, second), level)
