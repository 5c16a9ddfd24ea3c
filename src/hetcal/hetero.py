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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    FirstStageData,
    FitResult,
    SecondStageData,
    Theta,
    means,
    slope_threshold,
    validate,
)
from .errors import NonPositiveVariance, SingularInformation, SlopeNearZero
from .usual import EXPANSION_FACTOR, confidence_interval


@dataclass(frozen=True)
class FitOptions:
    """Iterative-fit controls.

    ``max_iterations`` bounds the Newton steps.  ``score_tol`` is relative:
    the convergence test scales it by the size of the slope-score terms so
    that datasets with slopes of order 1e5 and of order 10 share one
    tolerance.  ``initial_theta`` overrides the default least-squares
    starting point.
    """

    max_iterations: int = 10000
    score_tol: float = 1e-6
    initial_theta: Theta | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.score_tol <= 0:
            raise ValueError("score_tol must be positive")


def gamma(beta: float, sigma_eps2: float, first: FirstStageData) -> np.ndarray:
    """Marginal response variance of each standard."""
    if sigma_eps2 <= 0:
        raise NonPositiveVariance(f"sigma_eps2 must be positive, got {sigma_eps2}")
    return sigma_eps2 + beta * beta * first.delta_var


def log_likelihood(theta: Theta, first: FirstStageData, second: SecondStageData) -> float:
    """Log-likelihood of the full parameter vector, up to an additive constant."""
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    r1 = first.y - theta.alpha - theta.beta * first.x_fixed
    r0 = second.y0 - theta.alpha - theta.beta * theta.x0
    k = second.k
    return float(
        -0.5 * np.sum(np.log(gam))
        - 0.5 * k * math.log(theta.sigma_eps2)
        - 0.5 * (np.sum(r1 * r1 / gam) + np.sum(r0 * r0) / theta.sigma_eps2)
    )


def profile_alpha_x0(beta: float, first: FirstStageData, second: SecondStageData):
    """Closed-form intercept and unknown concentration at a given slope.

    The intercept depends only on the slope and the data means; no iteration
    is involved.
    """
    if abs(beta) < slope_threshold(first):
        raise SlopeNearZero(f"slope {beta} is numerically zero")
    xbar, ybar, y0bar = means(first, second)
    alpha = ybar - beta * xbar
    return alpha, (y0bar - alpha) / beta


def score_residuals(theta: Theta, first: FirstStageData, second: SecondStageData):
    """Residuals of the two stationarity equations in (slope, variance).

    Both residuals vanish (to numerical precision) at any interior maximum of
    the profiled log-likelihood.  The slope equation is evaluated with the
    concentrations centered at their mean, which is the exact stationarity
    condition of the profiled objective; with the intercept at its profile
    value the centering term is the only difference from the raw form.
    """
    if theta.sigma_eps2 <= 0:
        raise NonPositiveVariance(f"sigma_eps2 must be positive, got {theta.sigma_eps2}")
    x, y, y0 = first.x_fixed, first.y, second.y0
    s2 = theta.sigma_eps2
    gam = s2 + theta.beta**2 * first.delta_var
    d = y - theta.alpha - theta.beta * x
    w = (gam - d * d) / (gam * gam)
    ss0 = float(np.sum((y0 - y0.mean()) ** 2))
    k = y0.size
    r_beta = theta.beta * float(np.sum(first.delta_var * w)) - float(
        np.sum((x - x.mean()) * d / gam)
    )
    r_sigma = float(np.sum(w)) - (ss0 / s2**2 - k / s2)
    return r_beta, r_sigma


def fisher_information(theta: Theta, first: FirstStageData, k: int) -> np.ndarray:
    """Expected information matrix, ordered (alpha, beta, x0, sigma_eps2)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    x = first.x_fixed
    dv = first.delta_var
    be, x0, s2 = theta.beta, theta.x0, theta.sigma_eps2
    s1 = np.sum(1.0 / gam)
    sx = np.sum(x / gam)
    sxx = np.sum(x * x / gam)
    t1 = np.sum(1.0 / gam**2)
    td = np.sum(dv / gam**2)
    tdd = np.sum(dv * dv / gam**2)
    info = np.empty((4, 4))
    info[0, 0] = s1 + k / s2
    info[0, 1] = info[1, 0] = sx + k * x0 / s2
    info[0, 2] = info[2, 0] = k * be / s2
    info[0, 3] = info[3, 0] = 0.0
    info[1, 1] = sxx + 2.0 * be * be * tdd + k * x0 * x0 / s2
    info[1, 2] = info[2, 1] = k * be * x0 / s2
    info[1, 3] = info[3, 1] = be * td
    info[2, 2] = k * be * be / s2
    info[2, 3] = info[3, 2] = 0.0
    info[3, 3] = 0.5 * t1 + 0.5 * k / s2**2
    return info


def variance_x0(theta: Theta, first: FirstStageData, k: int) -> float:
    """Closed-form large-sample variance of the estimated concentration.

    Algebraically this is the (x0, x0) entry of the inverse expected
    information; the expression below evaluates it without forming or
    inverting the matrix.  The two long alternating sums cancel heavily for
    steep slopes, so the terms are accumulated with exact summation.
    """
    if abs(theta.beta) < slope_threshold(first):
        raise SlopeNearZero(f"slope {theta.beta} is numerically zero")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    gam = gamma(theta.beta, theta.sigma_eps2, first)
    x = first.x_fixed
    dv = first.delta_var
    be, x0, s2 = theta.beta, theta.x0, theta.sigma_eps2
    n = first.n
    b2 = be * be
    s4 = s2 * s2
    s6 = s4 * s2
    s1 = float(np.sum(1.0 / gam))
    sx = float(np.sum(x / gam))
    sxx = float(np.sum(x * x / gam))
    t1 = float(np.sum(1.0 / gam**2))
    td = float(np.sum(dv / gam**2))
    tdd = float(np.sum(dv * dv / gam**2))

    e1_terms = (
        -n * x0 * x0 * s4 * s1 * t1,
        -n * k * x0 * x0 * s1,
        -n * s4 * sxx * t1,
        -n * k * sxx,
        -2.0 * n * b2 * s4 * tdd * t1,
        -2.0 * n * k * b2 * tdd,
        2.0 * n * b2 * s4 * td * td,
        2.0 * n * x0 * s4 * sx * t1,
        2.0 * n * k * x0 * sx,
        s6 * sxx * t1 * s1,
        k * s2 * sxx * s1,
        2.0 * b2 * s6 * tdd * t1 * s1,
        2.0 * k * b2 * s2 * s1 * tdd,
        -2.0 * b2 * s6 * td * td * s1,
        -s6 * sx * sx * t1,
        -k * s2 * sx * sx,
    )
    e2_terms = (
        s4 * sxx * t1 * s1,
        k * sxx * s1,
        2.0 * s4 * b2 * tdd * t1 * s1,
        2.0 * k * b2 * tdd * s1,
        -2.0 * b2 * s4 * td * td * s1,
        -s4 * sx * sx * t1,
        -k * sx * sx,
    )
    e1 = math.fsum(e1_terms)
    e2 = math.fsum(e2_terms)
    e2_scale = math.fsum(abs(t) for t in e2_terms)
    if abs(e2) <= 1e-12 * e2_scale:
        raise SingularInformation(
            "information matrix is numerically singular for this design"
        )
    return s2 / b2 * (1.0 / n + 1.0 / k - e1 / (n * s2 * e2))


class _ProfiledObjective:
    """Profiled log-likelihood over (slope, response variance) with the data
    sums precomputed; all evaluations share centered copies of the data."""

    def __init__(self, first: FirstStageData, second: SecondStageData):
        x, y, y0 = first.x_fixed, first.y, second.y0
        self.x = x
        self.xc = x - x.mean()
        self.yc = y - y.mean()
        self.dv = first.delta_var
        self.ss0 = float(np.sum((y0 - y0.mean()) ** 2))
        self.n = x.size
        self.k = y0.size

    def value(self, beta: float, s2: float) -> float:
        if s2 <= 0 or not np.isfinite(s2) or not np.isfinite(beta):
            return -math.inf
        gam = s2 + beta * beta * self.dv
        d = self.yc - beta * self.xc
        return float(
            -0.5 * np.sum(np.log(gam))
            - 0.5 * self.k * math.log(s2)
            - 0.5 * (np.sum(d * d / gam) + self.ss0 / s2)
        )

    def scores(self, beta: float, s2: float):
        gam = s2 + beta * beta * self.dv
        d = self.yc - beta * self.xc
        w = (gam - d * d) / (gam * gam)
        r_beta = beta * float(np.sum(self.dv * w)) - float(np.sum(self.xc * d / gam))
        r_sigma = float(np.sum(w)) - (self.ss0 / (s2 * s2) - self.k / s2)
        return r_beta, r_sigma

    def hessian(self, beta: float, s2: float):
        """Second derivatives (bb, bs, ss) of ``value`` in (slope, variance).

        ``scores`` is minus the gradient of ``value``, with the variance
        component doubled: (r_beta, r_sigma) = -(dl/dbeta, 2 dl/ds2).
        """
        gam = s2 + beta * beta * self.dv
        d = self.yc - beta * self.xc
        w = (gam - d * d) / (gam * gam)
        u = (gam - 2.0 * d * d) / gam**3
        xd = self.xc * d / (gam * gam)
        h_bb = (
            -float(np.sum(self.dv * w))
            + 2.0 * beta * beta * float(np.sum(self.dv * self.dv * u))
            - float(np.sum(self.xc * self.xc / gam))
            - 4.0 * beta * float(np.sum(self.dv * xd))
        )
        h_bs = beta * float(np.sum(self.dv * u)) - float(np.sum(xd))
        h_ss = 0.5 * float(np.sum(u)) + 0.5 * self.k / (s2 * s2) - self.ss0 / s2**3
        return h_bb, h_bs, h_ss

    def score_scale(self, beta: float, s2: float) -> float:
        # size of the slope-score terms: sum over |X_i * residual_i / gamma_i|
        gam = s2 + beta * beta * self.dv
        d = self.yc - beta * self.xc
        return float(np.sum(np.abs(self.x * d / gam))) + 1.0


def _newton(obj: _ProfiledObjective, beta: float, s2: float, beta_scale: float,
            max_iterations: int):
    """Safeguarded Newton ascent on the profiled log-likelihood, stepping in
    (beta / beta_scale, log s2).

    Where minus the Hessian is not positive definite it is shifted by a
    multiple of the identity (Levenberg).  Steps are capped at 0.5 in scaled
    slope and 3 in log variance, then halved until the objective does not
    fall by more than rounding.  Runs until the accepted step is below 1e-14
    or for ``max_iterations`` steps: the intercept amplifies any slope error
    by the ratio of the response scale to the intercept scale, so the
    solution is taken to rounding level.  Returns the iterate with the
    smallest scaled score as ``(beta, s2, scaled score, score norm,
    iterations)``.
    """
    value = obj.value(beta, s2)
    best = (beta, s2, math.inf, math.inf)
    iterations = 0
    while True:
        r_beta, r_sigma = obj.scores(beta, s2)
        norm = max(abs(r_beta), abs(r_sigma))
        scaled = norm / obj.score_scale(beta, s2)
        if scaled < best[2]:
            best = (beta, s2, scaled, norm)
        if iterations == max_iterations:
            break
        iterations += 1
        # gradient and minus the Hessian in (beta / beta_scale, log s2); the
        # log-variance curvature gains s2 * dl/ds2 from the chain rule
        g_u = -beta_scale * r_beta
        g_v = -0.5 * s2 * r_sigma
        h_bb, h_bs, h_ss = obj.hessian(beta, s2)
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
            value_new = obj.value(beta_new, s2_new)
            if value_new >= lowest or step < 1e-14:
                break
            t *= 0.5
        if value_new < lowest:
            break  # no step down to 1e-14 keeps the objective
        beta, s2, value = beta_new, s2_new, value_new
        if step < 1e-14:
            break
    return (*best, iterations)


def _exact_fit(obj: _ProfiledObjective, first, second):
    """Degenerate noiseless case: the data lie exactly on a line and the
    sample readings are identical, so the likelihood is unbounded at the
    perfect fit with zero response variance.  Return that limit directly
    when the least-squares residuals are at rounding level; otherwise the
    variance really is being driven to the boundary and the caller raises.
    """
    beta = float(np.sum(obj.xc * obj.yc) / np.sum(obj.xc * obj.xc))
    ssr = float(np.sum((obj.yc - beta * obj.xc) ** 2))
    yscale = max(float(np.max(np.abs(obj.yc), initial=0.0)), 1.0)
    rounding_ss = obj.n * (64.0 * np.finfo(float).eps * yscale) ** 2
    if ssr > rounding_ss or abs(beta) < slope_threshold(first):
        return None
    alpha, x0 = profile_alpha_x0(beta, first, second)
    return FitResult(
        theta_hat=Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=0.0),
        var_x0=0.0,
        ci_lower=x0,
        ci_upper=x0,
        expanded_uncertainty=0.0,
        log_likelihood=math.inf,
        converged=True,
        iterations=0,
        score_residual_norm=0.0,
    )


def _initial_point(obj: _ProfiledObjective, first, second, opts: FitOptions):
    if opts.initial_theta is not None:
        return float(opts.initial_theta.beta), float(opts.initial_theta.sigma_eps2)
    beta0 = float(np.sum(obj.xc * obj.yc) / np.sum(obj.xc * obj.xc))
    s20 = obj.ss0 / obj.k
    return beta0, s20


def fit_hetero(
    first: FirstStageData,
    second: SecondStageData,
    opts: FitOptions | None = None,
    level: float = 0.95,
) -> FitResult:
    """Fit the heteroscedastic controlled calibration model.

    Maximizes the profiled log-likelihood over (slope, log response-variance)
    with a safeguarded Newton iteration on its analytic gradient and Hessian,
    started at the first-stage least-squares slope and the second-stage
    sample variance (or at ``opts.initial_theta``).  ``converged`` means the
    scaled score residuals of the returned iterate are below
    ``opts.score_tol``; otherwise the iterate with the smallest scaled score
    is returned with ``converged=False``.  ``iterations`` counts Newton steps.
    """
    opts = opts or FitOptions()
    validate(first, second)
    obj = _ProfiledObjective(first, second)
    if obj.ss0 <= 0.0:
        exact = _exact_fit(obj, first, second)
        if exact is not None:
            return exact
        raise NonPositiveVariance(
            "second-stage responses are all identical; the response-error "
            "variance estimate would be driven to zero"
        )
    beta0, s20 = _initial_point(obj, first, second, opts)
    if s20 <= 0:
        raise NonPositiveVariance(f"initial variance {s20} is not positive")
    beta_scale = abs(beta0) if beta0 != 0 else slope_threshold(first) + 1.0
    beta, s2, scaled, score_norm, iters = _newton(
        obj, beta0, s20, beta_scale, opts.max_iterations
    )
    converged = scaled < opts.score_tol

    floor = 1e-12 * (obj.ss0 / obj.k + np.var(first.y) + 1e-300)
    if s2 <= floor:
        raise NonPositiveVariance(
            f"response-error variance was driven to the boundary ({s2})"
        )
    if abs(beta) < slope_threshold(first):
        raise SlopeNearZero(f"fitted slope {beta} is numerically zero")

    alpha, x0 = profile_alpha_x0(beta, first, second)
    theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=s2)
    var = variance_x0(theta, first, second.k)
    lo, hi = confidence_interval(x0, var, level)
    return FitResult(
        theta_hat=theta,
        var_x0=var,
        ci_lower=lo,
        ci_upper=hi,
        expanded_uncertainty=EXPANSION_FACTOR * math.sqrt(var),
        log_likelihood=obj.value(beta, s2),
        converged=converged,
        iterations=int(iters),
        score_residual_norm=float(score_norm),
    )
