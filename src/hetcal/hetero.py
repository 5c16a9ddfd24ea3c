"""Profile ML estimation for the heteroscedastic controlled calibration model.

Under this model the nominal standard concentration is the controlled value;
the realized concentration differs from it by a zero-mean preparation error
with known, standard-specific variance.  The marginal response variance of
standard i is then ``gamma_i = sigma_eps2 + beta**2 * delta_var[i]``.

The intercept and the unknown concentration have closed-form expressions in
terms of the slope and the data means, which reduces the likelihood to a
two-variable objective in (slope, response-error variance).  A safeguarded
Newton iteration on its closed-form gradient and Hessian maximizes it, and
convergence is certified afterwards from the score residuals rather than
trusted from the iteration's own stopping rule.

Each formula is written once (``gamma``, ``_log_likelihood``, ``_derivatives``,
``fisher_information``); the public functions of the full parameter vector
evaluate those same formulas.
``variance_x0`` reads the concentration's entry of the inverse information
from the matrix's block structure (a delta method on the sample mean and a
Schur complement in the variance), so it needs no second copy of the matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .data import FirstStageData, FitResult, SecondStageData, Theta, profile_alpha_x0, validate
from .errors import NonFiniteValue, NonPositiveVariance, SingularInformation, SlopeNearZero
from .usual import _fit_result

MAX_ITERATIONS = 10000  # Newton steps before a fit is reported unconverged
# relative: each score is scaled by the size of its own terms, so that datasets
# with slopes of order 1e5 and of order 10, or with responses in any unit,
# share one convergence tolerance
SCORE_TOL = 1e-6


def gamma(beta: float, sigma_eps2: float, first: FirstStageData) -> np.ndarray:
    """Marginal response variance of each standard."""
    if sigma_eps2 <= 0:
        raise NonPositiveVariance(f"sigma_eps2 must be positive, got {sigma_eps2}")
    return sigma_eps2 + beta * beta * first.delta_var


def _log_likelihood(gam, d, ss0, k, s2) -> float:
    """Log-likelihood up to a constant from the marginal variances, the
    first-stage residuals and the second-stage sum of squares of k readings."""
    return float(
        -0.5 * np.sum(np.log(gam))
        - 0.5 * k * math.log(s2)
        - 0.5 * (np.sum(d * d / gam) + ss0 / s2)
    )


def log_likelihood(theta: Theta, first: FirstStageData, second: SecondStageData) -> float:
    """Log-likelihood of the full parameter vector, up to an additive constant.

    The readings' sum of squares is ss0 + k * (y0bar - alpha - beta * x0)**2,
    which keeps the digits of their spread when they sit far from zero."""
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    r1 = first.y - theta.alpha - theta.beta * first.x_fixed
    m0 = second.y0bar - theta.alpha - theta.beta * theta.x0
    return _log_likelihood(gam, r1, second.ss0 + second.k * m0 * m0, second.k, theta.sigma_eps2)


def score_residuals(theta: Theta, first: FirstStageData, second: SecondStageData):
    """Residuals of the two stationarity equations in (slope, variance).

    Both residuals vanish (to numerical precision) at any interior maximum of
    the profiled log-likelihood.  The slope equation is evaluated with the
    concentrations centered at their mean, which is the exact stationarity
    condition of the profiled objective; with the intercept at its profile
    value the centering term is the only difference from the raw form.
    """
    d = first.y - theta.alpha - theta.beta * first.x_fixed
    return _derivatives(first, second, theta.beta, theta.sigma_eps2, d)[:2]


def fisher_information(theta: Theta, first: FirstStageData, k: int) -> np.ndarray:
    """Expected information matrix, ordered (alpha, beta, x0, sigma_eps2)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    x, dv, g2 = first.x_fixed, first.delta_var, gam**2
    terms = (1.0 / gam, x / gam, x * x / gam, 1.0 / g2, dv / g2, dv * dv / g2)
    s1, sx, sxx, t1, td, tdd = (float(np.sum(t)) for t in terms)
    be, x0, s2 = theta.beta, theta.x0, theta.sigma_eps2
    info = np.zeros((4, 4))
    info[0, 0] = s1 + k / s2
    info[0, 1] = info[1, 0] = sx + k * x0 / s2
    info[0, 2] = info[2, 0] = k * be / s2
    info[1, 1] = sxx + 2.0 * be * be * tdd + k * x0 * x0 / s2
    info[1, 2] = info[2, 1] = k * be * x0 / s2
    info[1, 3] = info[3, 1] = be * td
    info[2, 2] = k * be * be / s2
    info[3, 3] = 0.5 * t1 + 0.5 * k / s2**2
    return info


def variance_x0(theta: Theta, first: FirstStageData, k: int) -> float:
    """Large-sample variance of the estimated concentration: the (x0, x0)
    entry of the inverse expected information, without forming the matrix.

    x0 enters the likelihood only through the sample mean mu0 = alpha +
    beta * x0, whose information k / sigma_eps2 is orthogonal to the other
    parameters.  The delta method on x0 = (mu0 - alpha) / beta then needs
    only the (alpha, beta) block of the inverse: the inverse of the
    first-stage (alpha, beta) information once sigma_eps2 is eliminated (its
    Schur complement).  With weights w = 1 / gamma, ``b`` is 1 / Var(beta);
    every term in it and in the result is non-negative, so nothing cancels.
    """
    if abs(theta.beta) < first.slope_threshold:
        raise SlopeNearZero(f"slope {theta.beta} is numerically zero")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    be, x0, s2 = theta.beta, theta.x0, theta.sigma_eps2
    w = 1.0 / gamma(be, s2, first)
    w2 = w * w
    x, dv = first.x_fixed, first.delta_var
    s1 = float(np.sum(w))
    if not s1 > 0.0:  # beta * beta overflowed, so every weight vanished
        raise NonFiniteValue(f"the variance is not representable in floating point: slope {be}")
    xbar = float(np.sum(x * w)) / s1
    t1 = float(np.sum(w2))
    td = float(np.sum(dv * w2))
    dbar = td / t1
    # the last term is what eliminating sigma_eps2 leaves of the slope's
    # information through the preparation-error variances
    b = float(np.sum((x - xbar) ** 2 * w)) + 2.0 * be * be * (
        float(np.sum((dv - dbar) ** 2 * w2)) + td * dbar * k / (k + s2 * s2 * t1)
    )
    if b <= 1e-12 * (b + s1 * xbar * xbar):
        raise SingularInformation(
            "information matrix is numerically singular for this design"
        )
    return (s2 / k + (b + s1 * (xbar - x0) ** 2) / (s1 * b)) / (be * be)


def _value(first, second, beta: float, s2: float) -> float:
    """Profiled log-likelihood over (slope, response variance)."""
    if s2 <= 0 or not np.isfinite(s2) or not np.isfinite(beta):
        return -math.inf
    gam = gamma(beta, s2, first)
    return _log_likelihood(gam, first.yc - beta * first.xc, second.ss0, second.k, s2)


def _derivatives(first, second, beta: float, s2: float, d=None):
    """Scores, scaled score and Hessian at (beta, s2), from one evaluation.

    Returns ``(r_beta, r_sigma, scaled, h_bb, h_bs, h_ss)``: the scores
    -(dl/dbeta, 2 dl/ds2) of ``_value``, the larger of the two scores each
    over the size of its own terms (sum |X_i d_i / gamma_i| + 1 for the
    slope; sum |w_i| + ss0 / s2**2 + k / s2 for the variance, which is in
    units of 1 / s2) and the second derivatives of ``_value`` in (slope,
    variance).  ``d`` are the first-stage residuals; by default the centered
    ones at the profiled intercept.
    """
    gam = gamma(beta, s2, first)
    if d is None:
        d = first.yc - beta * first.xc
    xc, dv, ss0, k = first.xc, first.delta_var, second.ss0, second.k
    g2 = gam * gam
    dd = d * d
    xcd = xc * d
    w = (gam - dd) / g2
    u = (gam - 2.0 * dd) / gam**3
    xd = xcd / g2
    dvw = float(np.sum(dv * w))
    r_beta = beta * dvw - float(np.sum(xcd / gam))
    r_sigma = float(np.sum(w)) - (ss0 / (s2 * s2) - k / s2)
    scaled = max(abs(r_beta) / (float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0),
                 abs(r_sigma) / (float(np.sum(np.abs(w))) + ss0 / (s2 * s2) + k / s2))
    h_bb = (
        -dvw
        + 2.0 * beta * beta * float(np.sum(dv * dv * u))
        - float(np.sum(xc * xc / gam))
        - 4.0 * beta * float(np.sum(dv * xd))
    )
    h_bs = beta * float(np.sum(dv * u)) - float(np.sum(xd))
    h_ss = 0.5 * float(np.sum(u)) + 0.5 * k / (s2 * s2) - ss0 / s2**3
    return r_beta, r_sigma, scaled, h_bb, h_bs, h_ss


def _newton(first, second, beta: float, s2: float, beta_scale: float):
    """Safeguarded Newton ascent on the profiled log-likelihood, stepping in
    (beta / beta_scale, log s2).

    Where minus the Hessian is not positive definite it is shifted by a
    multiple of the identity (Levenberg).  Steps are capped at 0.5 in scaled
    slope and 3 in log variance, then halved until the objective does not
    fall by more than rounding.  Runs until the accepted step is below 1e-14
    or for ``MAX_ITERATIONS`` steps: the intercept amplifies any slope error
    by the ratio of the response scale to the intercept scale, so the
    solution is taken to rounding level.  Returns the iterate with the
    smallest scaled score as ``(beta, s2, scaled score, score norm,
    log-likelihood, iterations)``.
    """
    value = _value(first, second, beta, s2)
    best = (beta, s2, math.inf, math.inf, value)
    iterations = 0
    while True:
        r_beta, r_sigma, scaled, h_bb, h_bs, h_ss = _derivatives(first, second, beta, s2)
        if scaled < best[2]:
            best = (beta, s2, scaled, max(abs(r_beta), abs(r_sigma)), value)
        if iterations == MAX_ITERATIONS:
            break
        iterations += 1
        # gradient and minus the Hessian in (beta / beta_scale, log s2); the
        # log-variance curvature gains s2 * dl/ds2 from the chain rule
        g_u = -beta_scale * r_beta
        g_v = -0.5 * s2 * r_sigma
        a = -beta_scale * beta_scale * h_bb
        b = -beta_scale * s2 * h_bs
        c = -s2 * s2 * h_ss - g_v
        mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        floor = 1e-8 * (abs(mid) + rad)
        if mid - rad < floor:  # smallest eigenvalue, in closed form
            shift = floor - (mid - rad)
            a, c = a + shift, c + shift
        det = a * c - b * b
        if not det > 0.0:
            break
        du, dv = (c * g_u - b * g_v) / det, (a * g_v - b * g_u) / det
        if not math.isfinite(du + dv):
            break
        lowest = value - 1e-12 * (abs(value) + 1.0)
        t = 1.0 / max(1.0, 2.0 * abs(du), abs(dv) / 3.0)
        while True:
            step = t * max(abs(du), abs(dv))
            beta_new, s2_new = beta + beta_scale * t * du, s2 * math.exp(t * dv)
            value_new = _value(first, second, beta_new, s2_new)
            if value_new >= lowest or step < 1e-14:
                break
            t *= 0.5
        if value_new < lowest:
            break  # no step down to 1e-14 keeps the objective
        beta, s2, value = beta_new, s2_new, value_new
        if step < 1e-14:
            break
    return (*best, iterations)


def _exact_fit(first, second, beta: float, level: float):
    """Degenerate noiseless case: the data lie exactly on a line and the
    sample readings are identical, so the likelihood is unbounded at the
    perfect fit with zero response variance.  Return that limit directly
    when the least-squares residuals are at rounding level, relative to the
    size of the responses in whatever unit they come; otherwise the variance
    really is being driven to the boundary and the caller raises.
    """
    if abs(beta) < first.slope_threshold:
        return None  # also covers all-zero responses, which have no size
    r = (first.yc - beta * first.xc) / np.max(np.abs(first.y))
    if float(np.sum(r * r)) > first.n * (64.0 * np.finfo(float).eps) ** 2:
        return None
    alpha, x0 = profile_alpha_x0(beta, first, second)
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=0.0)
    return _fit_result(theta, 0.0, level, math.inf)


def fit_hetero(first: FirstStageData, second: SecondStageData, level: float = 0.95) -> FitResult:
    """Fit the heteroscedastic controlled calibration model.

    Maximizes the profiled log-likelihood over (slope, log response-variance)
    with a safeguarded Newton iteration on its analytic gradient and Hessian,
    started at the first-stage least-squares slope and the second-stage
    sample variance.  ``converged`` means the scaled score residuals of the
    returned iterate are below ``SCORE_TOL``; otherwise the iterate with the
    smallest scaled score is returned with ``converged=False``.
    ``iterations`` counts Newton steps, at most ``MAX_ITERATIONS``.
    """
    validate(first, second)
    # first-stage least-squares slope: the Newton start and the slope of an
    # exactly linear noiseless dataset
    beta0 = float(np.sum(first.xc * first.yc) / np.sum(first.xc * first.xc))
    if second.ss0 <= 0.0:
        exact = _exact_fit(first, second, beta0, level)
        if exact is not None:
            return exact
        raise NonPositiveVariance(
            "second-stage responses are all identical; the response-error "
            "variance estimate would be driven to zero"
        )
    beta_scale = abs(beta0) if beta0 != 0 else first.slope_threshold + 1.0
    s2_0 = second.ss0 / second.k
    try:
        beta, s2, scaled, norm, loglik, iters = _newton(first, second, beta0, s2_0, beta_scale)
    except ArithmeticError as exc:  # Python-float powers of s2 overflow or reach zero
        raise NonFiniteValue("the fit is not representable in floating point: powers of the "
                             f"response-error variance leave the float range ({exc})") from exc
    converged = scaled < SCORE_TOL

    floor = 1e-12 * (s2_0 + np.var(first.y) + 1e-300)
    if s2 <= floor:
        raise NonPositiveVariance(
            f"response-error variance was driven to the boundary ({s2})"
        )
    alpha, x0 = profile_alpha_x0(beta, first, second)
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=s2)
    return _fit_result(
        theta, variance_x0(theta, first, second.k), level, loglik,
        converged, int(iters), float(norm),
    )
