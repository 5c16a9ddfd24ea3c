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
evaluate those same formulas.  The kernels reduce over the last axis, so they
take one dataset or a ``DataStack`` of datasets on one design: ``fit_hetero``
runs ``_newton`` on one dataset, and the simulator runs ``_newton_lanes`` on
a stack, one lane per dataset.  Both drivers take their steps from one rule
(``_direction``, ``_trial``) and the same elementary operations in the same
order, so a lane's fit equals ``fit_hetero`` on its dataset bit for bit.
``variance_x0`` reads the concentration's entry of the inverse information
from the matrix's block structure (a delta method on the sample mean and a
Schur complement in the variance), so it needs no second copy of the matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .data import (FirstStageData, FitResult, SecondStageData, Theta, _alpha_x0, _col,
                   _sum, profile_alpha_x0, validate)
from .errors import NonFiniteValue, NonPositiveVariance, SingularInformation, SlopeNearZero
from .usual import _finite, _fit_result

MAX_ITERATIONS = 10000  # Newton steps before a fit is reported unconverged
# relative: each score is scaled by the size of its own terms, so that datasets
# with slopes of order 1e5 and of order 10, or with responses in any unit,
# share one convergence tolerance
SCORE_TOL = 1e-6


def gamma(beta: float, sigma_eps2: float, first: FirstStageData) -> np.ndarray:
    """Marginal response variance of each standard."""
    if sigma_eps2 <= 0:
        raise NonPositiveVariance(f"sigma_eps2 must be positive, got {sigma_eps2}")
    return _gamma(beta, sigma_eps2, first.delta_var)


def _gamma(beta, s2, delta_var):
    """``gamma`` unchecked, for one dataset or stacked lanes."""
    b = _col(beta)
    return _col(s2) + b * b * delta_var


def _log_likelihood(gam, d, ss0, k, s2):
    """Log-likelihood up to a constant from the marginal variances, the
    first-stage residuals and the second-stage sum of squares of k readings."""
    return (
        -0.5 * _sum(np.log(gam))
        - 0.5 * k * np.log(s2)
        - 0.5 * (_sum(d * d / gam) + ss0 / s2)
    )


def log_likelihood(theta: Theta, first: FirstStageData, second: SecondStageData) -> float:
    """Log-likelihood of the full parameter vector, up to an additive constant.

    The readings' sum of squares is ss0 + k * (y0bar - alpha - beta * x0)**2,
    which keeps the digits of their spread when they sit far from zero."""
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    r1 = first.y - theta.alpha - theta.beta * first.x_fixed
    m0 = second.y0bar - theta.alpha - theta.beta * theta.x0
    return float(_log_likelihood(gam, r1, second.ss0 + second.k * m0 * m0, second.k,
                                 theta.sigma_eps2))


def score_residuals(theta: Theta, first: FirstStageData, second: SecondStageData):
    """Residuals of the two stationarity equations in (slope, variance).

    Both residuals vanish (to numerical precision) at any interior maximum of
    the profiled log-likelihood.  The slope equation is evaluated with the
    concentrations centered at their mean, which is the exact stationarity
    condition of the profiled objective; with the intercept at its profile
    value the centering term is the only difference from the raw form.
    """
    beta, s2 = np.float64(theta.beta), np.float64(theta.sigma_eps2)
    d = first.y - theta.alpha - beta * first.x_fixed
    with np.errstate(all="ignore"):
        r_beta, r_sigma = _derivatives(first, second, beta, s2, d)[:2]
    return float(r_beta), float(r_sigma)


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
    if theta.sigma_eps2 <= 0:
        raise NonPositiveVariance(f"sigma_eps2 must be positive, got {theta.sigma_eps2}")
    var, s1, singular = _variance_x0(theta.beta, theta.x0, theta.sigma_eps2, first, k)
    if not s1 > 0.0:  # beta * beta overflowed, so every weight vanished
        raise NonFiniteValue(f"the variance is not representable in floating point: "
                             f"slope {theta.beta}")
    if singular:
        raise SingularInformation(
            "information matrix is numerically singular for this design"
        )
    return float(var)


def _variance_x0(be, x0, s2, first, k):
    """The body of ``variance_x0`` over the last axis, for one dataset or
    stacked lanes: ``(var_x0, s1, singular)``, where the variance is valid
    only if ``s1 > 0`` and not ``singular``."""
    with np.errstate(all="ignore"):
        w = 1.0 / _gamma(be, s2, first.delta_var)
        w2 = w * w
        x, dv = first.x_fixed, first.delta_var
        s1 = _sum(w)
        xbar = _sum(x * w) / s1
        t1 = _sum(w2)
        td = _sum(dv * w2)
        dbar = td / t1
        xd, dd = x - _col(xbar), dv - _col(dbar)
        # the last term is what eliminating sigma_eps2 leaves of the slope's
        # information through the preparation-error variances
        b = _sum(xd * xd * w) + 2.0 * be * be * (
            _sum(dd * dd * w2) + td * dbar * k / (k + s2 * s2 * t1)
        )
        m = xbar - x0
        var = (s2 / k + (b + s1 * m * m) / (s1 * b)) / (be * be)
        return var, s1, b <= 1e-12 * (b + s1 * xbar * xbar)


def _value(first, second, beta, s2):
    """Profiled log-likelihood over (slope, response variance); minus
    infinity where the variance is not positive and finite or the slope is
    not finite."""
    gam = _gamma(beta, s2, first.delta_var)
    value = _log_likelihood(gam, first.yc - _col(beta) * first.xc, second.ss0, second.k, s2)
    valid = (s2 > 0.0) & (s2 < math.inf) & (abs(beta) < math.inf)
    return np.where(valid, value, -math.inf)[()]  # [()]: one dataset's value as a scalar


def _derivatives(first, second, beta, s2, d=None):
    """Scores, scaled score and Hessian at (beta, s2), from one evaluation.

    Returns ``(r_beta, r_sigma, scaled, h_bb, h_bs, h_ss)``: the scores
    -(dl/dbeta, 2 dl/ds2) of ``_value``, the larger of the two scores each
    over the size of its own terms (sum |X_i d_i / gamma_i| + 1 for the
    slope; sum |w_i| + ss0 / s2**2 + k / s2 for the variance, which is in
    units of 1 / s2) and the second derivatives of ``_value`` in (slope,
    variance).  ``d`` are the first-stage residuals; by default the centered
    ones at the profiled intercept.
    """
    gam = _gamma(beta, s2, first.delta_var)
    if d is None:
        d = first.yc - _col(beta) * first.xc
    xc, dv, ss0, k = first.xc, first.delta_var, second.ss0, second.k
    g2 = gam * gam
    dd = d * d
    xcd = xc * d
    w = (gam - dd) / g2
    u = (gam - 2.0 * dd) / (g2 * gam)
    xd = xcd / g2
    dvw = _sum(dv * w)
    s22 = s2 * s2
    r_beta = beta * dvw - _sum(xcd / gam)
    r_sigma = _sum(w) - (ss0 / s22 - k / s2)
    scaled = np.maximum(
        abs(r_beta) / (_sum(abs(first.x_fixed * d / gam)) + 1.0),
        abs(r_sigma) / (_sum(abs(w)) + ss0 / s22 + k / s2))
    h_bb = (
        -dvw
        + 2.0 * beta * beta * _sum(dv * dv * u)
        - _sum(xc * xc / gam)
        - 4.0 * beta * _sum(dv * xd)
    )
    h_bs = beta * _sum(dv * u) - _sum(xd)
    h_ss = 0.5 * _sum(u) + 0.5 * k / s22 - ss0 / (s22 * s2)
    return r_beta, r_sigma, scaled, h_bb, h_bs, h_ss


def _representable(s2):
    """Whether the powers of the variance up to its cube, which the Hessian
    divides by, are positive finite floats."""
    s3 = s2 * s2 * s2
    return (s3 > 0.0) & (s3 < math.inf)


def _direction(beta, s2, beta_scale, r_beta, r_sigma, h_bb, h_bs, h_ss):
    """The Newton step rule, shared by ``_newton`` and ``_newton_lanes``:
    the step ``(du, dv)`` in (beta / beta_scale, log s2), the first trial
    length ``t`` that caps it, and ``ok``, false where no finite step was
    found.

    Where minus the Hessian is not positive definite it is shifted by a
    multiple of the identity (Levenberg), which lifts its smallest
    eigenvalue, in closed form, to a floor.  Steps are capped at 0.5 in
    scaled slope and 3 in log variance.
    """
    # gradient and minus the Hessian in (beta / beta_scale, log s2); the
    # log-variance curvature gains s2 * dl/ds2 from the chain rule
    g_u = -beta_scale * r_beta
    g_v = -0.5 * s2 * r_sigma
    a = -beta_scale * beta_scale * h_bb
    b = -beta_scale * s2 * h_bs
    c = -s2 * s2 * h_ss - g_v
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    floor = 1e-8 * (abs(mid) + rad)
    shift = np.maximum(floor - (mid - rad), 0.0)  # lifts the smallest eigenvalue to floor
    a, c = a + shift, c + shift
    det = a * c - b * b
    du, dv = (c * g_u - b * g_v) / det, (a * g_v - b * g_u) / det
    t = 1.0 / np.maximum(np.maximum(1.0, 2.0 * abs(du)), abs(dv) / 3.0)
    return du, dv, t, (det > 0.0) & (abs(du + dv) < math.inf)


def _trial(beta, s2, beta_scale, t, du, dv):
    """The step length and the trial point ``t`` along the step."""
    return t * np.maximum(abs(du), abs(dv)), beta + beta_scale * t * du, s2 * np.exp(t * dv)


def _newton(first, second, beta: float, s2: float, beta_scale: float):
    """Safeguarded Newton ascent on the profiled log-likelihood, stepping in
    (beta / beta_scale, log s2) by ``_direction``.

    Each step is halved until the objective does not fall by more than
    rounding.  Runs until the accepted step is below 1e-14 or for
    ``MAX_ITERATIONS`` steps: the intercept amplifies any slope error by the
    ratio of the response scale to the intercept scale, so the solution is
    taken to rounding level.  Returns the iterate with the smallest scaled
    score as ``(beta, s2, scaled score, score norm, log-likelihood,
    iterations)``.  Raises ``NonFiniteValue`` where the cube of the variance
    leaves the float range.  The kernels run with floating-point warnings
    off: a non-finite value is judged by these checks, not reported.
    """
    beta, s2 = np.float64(beta), np.float64(s2)  # numpy, not Python, float semantics
    with np.errstate(all="ignore"):
        value = _value(first, second, beta, s2)
        best = (beta, s2, math.inf, math.inf, value)
        iterations = 0
        while True:
            r_beta, r_sigma, scaled, h_bb, h_bs, h_ss = _derivatives(first, second, beta, s2)
            if not _representable(s2):
                raise NonFiniteValue("the fit is not representable in floating point: powers "
                                     f"of the response-error variance {s2} leave the float range")
            if scaled < best[2]:
                best = (beta, s2, scaled, np.maximum(abs(r_beta), abs(r_sigma)), value)
            if iterations == MAX_ITERATIONS:
                break
            iterations += 1
            du, dv, t, ok = _direction(beta, s2, beta_scale, r_beta, r_sigma, h_bb, h_bs, h_ss)
            if not ok:
                break
            lowest = value - 1e-12 * (abs(value) + 1.0)
            while True:
                step, beta_new, s2_new = _trial(beta, s2, beta_scale, t, du, dv)
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


def _newton_lanes(data, beta, s2, beta_scale):
    """``_newton`` on every dataset of a ``DataStack`` at once, one lane per
    dataset, from arrays of starts.

    Each lane takes the steps ``_newton`` takes on its dataset alone: the
    running lanes share one iteration count, a lane that stops is frozen,
    and the line search evaluates only the lanes still halving.  Returns
    ``_newton``'s six values as arrays plus ``representable``, false for the
    lanes where ``_newton`` raises ``NonFiniteValue``.
    """
    m = beta.size
    with np.errstate(all="ignore"):
        value = _value(data, data, beta, s2)
        best = [beta.copy(), s2.copy(), np.full(m, math.inf), np.full(m, math.inf),
                value.copy()]
        iterations = np.zeros(m, dtype=int)
        representable = np.ones(m, dtype=bool)
        lanes = np.arange(m)  # the running lanes; their data, iterate and value follow
        for count in range(MAX_ITERATIONS + 1):
            r_beta, r_sigma, scaled, h_bb, h_bs, h_ss = _derivatives(data, data, beta, s2)
            fine = _representable(s2)
            representable[lanes[~fine]] = False
            better = fine & (scaled < best[2][lanes])
            norm = np.maximum(abs(r_beta), abs(r_sigma))
            for field, new in zip(best, (beta, s2, scaled, norm, value)):
                field[lanes[better]] = new[better]
            if count == MAX_ITERATIONS:
                break
            iterations[lanes[fine]] += 1
            du, dv, t, ok = _direction(beta, s2, beta_scale, r_beta, r_sigma, h_bb, h_bs, h_ss)
            lowest = value - 1e-12 * (abs(value) + 1.0)
            step = np.zeros(lanes.size)
            beta_new, s2_new, value_new = beta.copy(), s2.copy(), value.copy()
            search = np.flatnonzero(fine & ok)
            while search.size:
                part = data if search.size == lanes.size else data.take(search)
                st, b, s = _trial(beta[search], s2[search], beta_scale[search], t[search],
                                  du[search], dv[search])
                v = _value(part, part, b, s)
                step[search], beta_new[search], s2_new[search], value_new[search] = st, b, s, v
                halve = ~((v >= lowest[search]) | (st < 1e-14))
                t[search[halve]] *= 0.5
                search = search[halve]
            # a lane stops where no step was found or kept, or after a step below 1e-14
            keep = fine & ok & ~(value_new < lowest) & ~(step < 1e-14)
            if not keep.any():
                break
            beta, s2, value = beta_new, s2_new, value_new
            if not keep.all():
                lanes, data = lanes[keep], data.take(keep)
                beta, s2, value, beta_scale = beta[keep], s2[keep], value[keep], beta_scale[keep]
    return (*best, iterations, representable)


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


def _start(first, second):
    """Where the Newton iteration starts, for one dataset or a stack:
    ``(beta0, beta_scale, s2_0, floor)``.  ``beta0`` is the first-stage
    least-squares slope (also the slope of an exactly linear noiseless
    dataset), ``beta_scale`` its size, ``s2_0`` the readings' variance, and
    a fitted variance at or below ``floor``, 1e-12 of the data's variances,
    counts as driven to the boundary."""
    with np.errstate(all="ignore"):  # responses near the float limit overflow the squares
        beta0 = _sum(first.xc * first.yc) / _sum(first.xc * first.xc)
        beta_scale = np.where(beta0 != 0, abs(beta0), first.slope_threshold + 1.0)
        s2_0 = second.ss0 / second.k
        floor = 1e-12 * (s2_0 + _sum(first.yc * first.yc) / first.n + 1e-300)  # np.var(y)
        return beta0, beta_scale, s2_0, floor


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
    beta0, beta_scale, s2_0, floor = map(float, _start(first, second))
    if second.ss0 <= 0.0:
        exact = _exact_fit(first, second, beta0, level)
        if exact is not None:
            return exact
        raise NonPositiveVariance(
            "second-stage responses are all identical; the response-error "
            "variance estimate would be driven to zero"
        )
    beta, s2, scaled, norm, loglik, iters = map(
        float, _newton(first, second, beta0, s2_0, beta_scale))
    converged = scaled < SCORE_TOL
    if s2 <= floor:
        raise NonPositiveVariance(
            f"response-error variance was driven to the boundary ({s2})"
        )
    alpha, x0 = profile_alpha_x0(beta, first, second)
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=s2)
    return _fit_result(
        theta, variance_x0(theta, first, second.k), level, loglik,
        converged, int(iters), norm,
    )


def _fit_hetero_lanes(data):
    """``fit_hetero`` on every dataset of a ``DataStack`` whose readings
    differ (``ss0 > 0``): ``(x0, var_x0, ok)``, where ``ok`` marks the lanes
    ``fit_hetero`` returns a converged result for.  Equal to it bit for bit:
    the same kernels, step rule and checks, over the last axis."""
    with np.errstate(all="ignore"):
        beta0, beta_scale, s2_0, floor = _start(data, data)
        beta, s2, scaled, _, _, _, representable = _newton_lanes(data, beta0, s2_0, beta_scale)
        alpha, x0 = _alpha_x0(beta, data, data)
        var, s1, singular = _variance_x0(beta, x0, s2, data, data.k)
        ok = (representable & (scaled < SCORE_TOL) & ~(s2 <= floor)
              & ~(abs(beta) < data.slope_threshold) & (s1 > 0.0) & ~singular
              & _finite(alpha, beta, x0, s2, var))
    return x0, var, ok
