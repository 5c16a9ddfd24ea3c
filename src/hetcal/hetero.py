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

Each formula is written once (``gamma``, ``_evaluate``,
``fisher_information``); the public functions of the full parameter vector
evaluate those same formulas.  Each point of the iteration is evaluated once,
by one call of ``_evaluate``, which gives the objective with its scores and
Hessian; the iteration carries those of the point it keeps.  The kernels
write every n-length intermediate into a ``workspace`` with ufunc ``out=``,
so an iteration allocates no vectors; the caller makes it, once per fit or
scenario, and it starts on a page boundary.  Each kernel writes the terms it
sums into rows of the workspace and sums them in one reduction
(``_variance_x0`` in two, before and after the means it centres on): on short
designs a reduction costs its call, not its additions, and a row sums to the
same bits in a block of rows as alone.  The kernels reduce over the last
axis, so they take one dataset or a ``DataStack`` of datasets on one design.
``_hetero`` fits either, picking the driver from the shape of its input: ``_newton`` on one
dataset (``_exact`` where its readings are identical) or ``_newton_lanes``
on a stack, one lane per dataset.  ``_start`` returns the drivers'
arguments; both drivers step and stop by one rule (``_direction``,
``_trial``) with the same elementary operations in the same order and
return the iterate they kept, and ``_hetero`` judges it once, so a lane's
fit, and whether it fails, equal ``fit_hetero`` bit for bit.
``variance_x0`` reads the concentration's entry of the inverse information
from the matrix's block structure (a delta method on the sample mean and a
Schur complement in the variance), so it needs no second copy of the matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .data import (FirstStageData, FitResult, SecondStageData, Theta, _alpha_x0, _col,
                   _finite_verdict, _raise_first, _require_finite, _require_parameters,
                   _require_slope, _slope_verdict, _sum, validate)
from .usual import _fit_result

MAX_ITERATIONS = 10000  # Newton steps before a fit is reported unconverged
# Newton steps without a new smallest scaled score after which a run stops.  In
# 250,000 random fits a run went at most 101 steps without a new best before
# it certified, and a certified run at most 850 before a last-bit better one
STALL_STEPS = 1024
# relative: each score is scaled by the size of its own terms, so that datasets
# with slopes of order 1e5 and of order 10, or with responses in any unit,
# share one convergence tolerance
SCORE_TOL = 1e-6


def gamma(beta: float, sigma_eps2: float, first: FirstStageData) -> np.ndarray:
    """Marginal response variance of each standard."""
    b, s2 = _require_parameters(beta=beta, sigma_eps2=sigma_eps2)
    with np.errstate(all="ignore"):
        g = _gamma(b, s2, first.delta_var)
    return _require_finite("gamma", g, beta=beta, sigma_eps2=sigma_eps2)


def _gamma(beta, s2, delta_var, out=None):
    """``gamma`` unchecked, for one dataset or stacked lanes, into ``out``
    if given."""
    b = _col(beta)
    return np.add(_col(s2), np.multiply(b * b, delta_var, out=out), out=out)


def log_likelihood(theta: Theta, first: FirstStageData, second: SecondStageData) -> float:
    """Log-likelihood of the full parameter vector, up to an additive constant.

    The readings' sum of squares is ss0 + k * (y0bar - alpha - beta * x0)**2,
    which keeps the digits of their spread when they sit far from zero."""
    alpha, beta, x0, s2 = _require_parameters(**vars(theta))
    with np.errstate(all="ignore"):
        r1 = first.y - alpha - beta * first.x_fixed
        m0 = second.y0bar - alpha - beta * x0
        value = _evaluate(first, beta, s2, second.ss0 + second.k * m0 * m0, second.k,
                          _rows(workspace(first.n)), r1)[0]
    return float(_require_finite("log_likelihood", value, **vars(theta)))


def score_residuals(theta: Theta, first: FirstStageData, second: SecondStageData):
    """Residuals of the two stationarity equations in (slope, variance).

    Both residuals vanish (to numerical precision) at any interior maximum of
    the profiled log-likelihood.  The slope equation is evaluated with the
    concentrations centered at their mean, which is the exact stationarity
    condition of the profiled objective; with the intercept at its profile
    value the centering term is the only difference from the raw form.
    """
    alpha, beta, _, s2 = _require_parameters(**vars(theta))
    with np.errstate(all="ignore"):
        scores = _evaluate(first, beta, s2, second.ss0, second.k, _rows(workspace(first.n)),
                           first.y - alpha - beta * first.x_fixed)[1][:2]
    return tuple(map(float, _require_finite("score_residuals", scores, **vars(theta))))


def fisher_information(theta: Theta, first: FirstStageData, k: int) -> np.ndarray:
    """Expected information matrix, ordered (alpha, beta, x0, sigma_eps2)."""
    _, be, x0, s2 = _require_parameters(k, **vars(theta))
    info = np.zeros((4, 4))
    with np.errstate(all="ignore"):
        gam = _gamma(be, s2, first.delta_var)
        x, dv, g2 = first.x_fixed, first.delta_var, gam * gam
        terms = (1.0 / gam, x / gam, x * x / gam, 1.0 / g2, dv / g2, dv * dv / g2)
        s1, sx, sxx, t1, td, tdd = _sum(np.stack(terms))
        info[0, 0] = s1 + k / s2
        info[0, 1] = info[1, 0] = sx + k * x0 / s2
        info[0, 2] = info[2, 0] = k * be / s2
        info[1, 1] = sxx + 2.0 * be * be * tdd + k * x0 * x0 / s2
        info[1, 2] = info[2, 1] = k * be * x0 / s2
        info[1, 3] = info[3, 1] = be * td
        info[2, 2] = k * be * be / s2
        info[3, 3] = 0.5 * t1 + 0.5 * k / (s2 * s2)
    return _require_finite("fisher_information", info, **vars(theta))


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
    _, beta, x0, s2 = _require_parameters(k, **vars(theta))
    _require_slope(theta.beta, first)
    var, verdict = _variance_x0(beta, x0, s2, first, k, workspace(first.n))
    _raise_first(verdict, beta=theta.beta)
    return float(_require_finite("variance_x0", var, **vars(theta)))


def _variance_x0(be, x0, s2, first, k, work):
    """The body of ``variance_x0`` over the last axis, for one dataset or
    stacked lanes, in ``work`` (one lane per dataset of a stack): ``var_x0``
    and its verdict, which fails where every weight vanished (``beta *
    beta`` overflowed) or the information is singular."""
    x, dv = first.x_fixed, first.delta_var
    w, xw, w2, dvw2, xdw, ddw2 = work[:6]
    with np.errstate(all="ignore"):
        np.divide(1.0, _gamma(be, s2, dv, out=w), out=w)
        np.multiply(x, w, out=xw)
        np.multiply(w, w, out=w2)
        np.multiply(dv, w2, out=dvw2)
        s1, sxw, t1, td = _sum(work[:4])
        xbar, dbar = sxw / s1, td / t1
        np.subtract(x, _col(xbar), out=xdw)
        np.multiply(np.multiply(xdw, xdw, out=xdw), w, out=xdw)
        np.subtract(dv, _col(dbar), out=ddw2)
        np.multiply(np.multiply(ddw2, ddw2, out=ddw2), w2, out=ddw2)
        sxd, sdd = _sum(work[4:6])
        # the last term is what eliminating sigma_eps2 leaves of the slope's
        # information through the preparation-error variances
        b = sxd + 2.0 * be * be * (sdd + td * dbar * k / (k + s2 * s2 * t1))
        m = xbar - x0
        var = (s2 / k + (b + s1 * m * m) / (s1 * b)) / (be * be)
        return var, (("weights", ~(s1 > 0.0)), ("singular", b <= 1e-12 * (b + s1 * xbar * xbar)))


# rows of a workspace: the point's 1 / gamma and d / gamma, then the rows of
# the terms that each kernel sums in one reduction (13 in ``_evaluate``: log
# gamma, d^2 / gamma and the 11 of the scores and Hessian), and one scratch row
_ROWS = 16
_PAGE = 4096  # bytes; a workspace starts on a page boundary


def workspace(*shape: int) -> np.ndarray:
    """Scratch space for the kernels: ``workspace(n)`` for one dataset of n
    standards, ``workspace(m, n)`` for a stack of m, with ``_ROWS`` rows of
    each.  ``_evaluate`` and ``_variance_x0`` write every n-length
    intermediate into it, so an iteration allocates no vectors; one
    workspace serves any number of fits in turn.

    It starts on a page boundary, so the speed of the kernels on long
    designs does not depend on where the allocator put it."""
    size = _ROWS * math.prod(shape)
    raw = np.empty(size + _PAGE // 8)
    skip = (-raw.ctypes.data % _PAGE) // 8
    return raw[skip:skip + size].reshape(_ROWS, *shape)


def _rows(work):
    """``_evaluate``'s views of ``work``: the block of the 13 rows it sums, then each row."""
    return (work[2:15], *work)


def _evaluate(first, beta, s2, ss0, k, rows, d=None):
    """Profiled log-likelihood at (beta, s2) from the sum of squares ``ss0``
    of k readings, with its scores, scaled score and Hessian there, in the
    workspace ``rows`` (``_rows``); beta and s2 are numpy floats, or arrays
    for a stack.

    Returns ``(value, (r_beta, r_sigma, scaled, h_bb, h_bs, h_ss))``.  The
    value is minus infinity where the variance is not positive and finite or
    the slope is not finite.  The scores are -(dl/dbeta, 2 dl/ds2); the
    scaled score is the larger of the two each over the size of its own
    terms (sum |X_i d_i / gamma_i| + 1 for the slope; sum |w_i| + ss0 /
    s2**2 + k / s2 for the variance, which is in units of 1 / s2); the
    second derivatives are in (slope, variance).  ``d`` are the first-stage
    residuals; by default the centered ones at the profiled intercept.
    """
    (summed, ig, e, log_gamma, de, w, abs_w, dvw, u, dvu, dv2u, xe, xd, dvxd, abs_xe, xxig,
     scratch) = rows
    xc, dv = first.xc, first.delta_var
    np.divide(1.0, _gamma(beta, s2, dv, out=log_gamma), out=ig)
    np.log(log_gamma, out=log_gamma)
    if d is None:
        d = np.subtract(first.yc, np.multiply(_col(beta), xc, out=scratch), out=scratch)
    np.multiply(d, np.multiply(d, ig, out=e), out=de)
    # w = (gamma - d^2) / gamma^2 and u = (gamma - 2 d^2) / gamma^3, with
    # ee = d^2 / gamma^2 in the scratch row that d is done with
    ee = np.multiply(e, e, out=scratch)
    np.subtract(ig, ee, out=w)
    np.abs(w, out=abs_w)
    np.multiply(dv, w, out=dvw)
    np.multiply(np.subtract(w, ee, out=u), ig, out=u)
    np.multiply(dv, u, out=dvu)
    np.multiply(dv, dvu, out=dv2u)
    # xc d / gamma, then xd = xc d / gamma^2
    np.multiply(xc, e, out=xe)
    np.multiply(xe, ig, out=xd)
    np.multiply(dv, xd, out=dvxd)
    np.abs(np.multiply(first.x_fixed, e, out=abs_xe), out=abs_xe)
    np.multiply(np.multiply(xc, ig, out=xxig), xc, out=xxig)
    (logdet, sum_de, sum_w, sum_abs_w, sum_dvw, sum_u, sum_dvu, sum_dv2u, sum_xe, sum_xd,
     sum_dvxd, sum_abs_xe, sum_xxig) = _sum(summed)
    value = -0.5 * logdet - 0.5 * k * np.log(s2) - 0.5 * (sum_de + ss0 / s2)
    valid = (s2 > 0.0) & (s2 < math.inf) & (abs(beta) < math.inf)
    # np.True_ is one valid point, without the price of a scalar's .all()
    if not (valid is np.True_ or valid.all()):
        value = np.where(valid, value, -math.inf)[()]  # [()]: one dataset's value as a scalar
    s22 = s2 * s2
    r_beta = beta * sum_dvw - sum_xe
    r_sigma = sum_w - (ss0 / s22 - k / s2)
    scaled = np.maximum(abs(r_beta) / (sum_abs_xe + 1.0),
                        abs(r_sigma) / (sum_abs_w + ss0 / s22 + k / s2))
    h_bb = -sum_dvw + 2.0 * beta * beta * sum_dv2u - sum_xxig - 4.0 * beta * sum_dvxd
    h_bs = beta * sum_dvu - sum_xd
    h_ss = 0.5 * sum_u + 0.5 * k / s22 - ss0 / (s22 * s2)
    return value, (r_beta, r_sigma, scaled, h_bb, h_bs, h_ss)


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


def _newton(first, second, beta: float, s2: float, beta_scale: float, work):
    """Safeguarded Newton ascent on the profiled log-likelihood, stepping in
    (beta / beta_scale, log s2) by ``_direction``.

    Each step is halved until the objective does not fall by more than
    rounding.  Runs until the step is below 1e-14, until ``STALL_STEPS``
    steps in a row have not lowered the smallest scaled score, or for
    ``MAX_ITERATIONS`` steps: the intercept amplifies any slope error by the
    ratio of the response scale to the intercept scale, so the solution is
    taken to rounding level, where a near-flat profile can keep the steps
    just above the stop.  A step below 1e-14 ends the iteration whether or
    not it would be kept, so the objective is not evaluated there.  Returns
    the iterate it kept, the one with the smallest scaled score, as ``(beta,
    s2, scaled, r_beta, r_sigma, value, iterations)``, or stops at an iterate
    whose variance cubed leaves the float range and returns that one.  The kernels
    run with floating-point warnings off: a non-finite value is judged by
    the fit's verdict, not reported.

    Each point is evaluated once, into the caller's ``work``: the start and
    every trial, whose scores and Hessian are carried on where it is kept.
    """
    beta, s2, inf = np.float64(beta), np.float64(s2), np.float64(math.inf)  # numpy semantics
    ss0, k, rows = second.ss0, second.k, _rows(work)
    with np.errstate(all="ignore"):
        value, derivatives = _evaluate(first, beta, s2, ss0, k, rows)
        best, best_at = (beta, s2, inf, inf, inf, value), 0
        iterations = 0
        while True:
            r_beta, r_sigma, scaled, h_bb, h_bs, h_ss = derivatives
            representable = _representable(s2)
            if scaled < best[2] or not representable:
                best, best_at = (beta, s2, scaled, r_beta, r_sigma, value), iterations
            if (iterations == MAX_ITERATIONS or iterations - best_at == STALL_STEPS
                    or not representable):
                break
            iterations += 1
            du, dv, t, ok = _direction(beta, s2, beta_scale, r_beta, r_sigma, h_bb, h_bs, h_ss)
            if not ok:
                break
            lowest = value - 1e-12 * (abs(value) + 1.0)
            while True:
                step, beta_new, s2_new = _trial(beta, s2, beta_scale, t, du, dv)
                if step < 1e-14:
                    break
                value_new, derivatives = _evaluate(first, beta_new, s2_new, ss0, k, rows)
                if value_new >= lowest:
                    break
                t *= 0.5
            if step < 1e-14:
                break  # converged to rounding, or no longer step keeps the objective
            beta, s2, value = beta_new, s2_new, value_new
    return (*best, iterations)


def _newton_lanes(first, second, beta, s2, beta_scale, work):
    """``_newton`` on every dataset of a ``DataStack`` at once, one lane per
    dataset, from arrays of starts; ``first`` and ``second`` are the stack.

    Each lane takes the steps ``_newton`` takes on its dataset alone: the
    running lanes share one iteration count, and a lane that stops is frozen
    and dropped from the stack.  Every line search round evaluates all the
    running lanes, into the leading lanes of the caller's ``work``; a lane
    that has stopped halving evaluates its same trial point again, to the
    same bits, so the last round holds every lane's scores and Hessian at
    its kept trial.  Returns ``_newton``'s kept iterate and iterations as arrays.
    """
    data, m, rows = first, beta.size, _rows(work)
    with np.errstate(all="ignore"):
        value, derivatives = _evaluate(data, beta, s2, data.ss0, data.k, rows)
        best = [beta.copy(), s2.copy(), *np.full((3, m), math.inf), value.copy()]
        iterations, best_at = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
        lanes = np.arange(m)  # the running lanes; their data, iterate and value follow
        for count in range(MAX_ITERATIONS + 1):
            r_beta, r_sigma, scaled, h_bb, h_bs, h_ss = derivatives
            fine = _representable(s2)
            better = (scaled < best[2][lanes]) | ~fine
            improved = lanes[better]
            for field, new in zip(best, (beta, s2, scaled, r_beta, r_sigma, value)):
                field[improved] = new[better]
            best_at[improved] = count
            if count == MAX_ITERATIONS:
                break
            if count >= STALL_STEPS:  # no lane can have stalled before
                fine &= count - best_at[lanes] < STALL_STEPS
            iterations[lanes[fine]] += 1
            du, dv, t, ok = _direction(beta, s2, beta_scale, r_beta, r_sigma, h_bb, h_bs, h_ss)
            lowest = value - 1e-12 * (abs(value) + 1.0)
            halve = fine & ok
            while True:
                step, beta_new, s2_new = _trial(beta, s2, beta_scale, t, du, dv)
                value_new, derivatives = _evaluate(data, beta_new, s2_new, data.ss0, data.k, rows)
                halve &= ~((value_new >= lowest) | (step < 1e-14))
                if not halve.any():
                    break
                t = np.where(halve, 0.5 * t, t)
            # a lane stops where no step was found or kept, or after a step below 1e-14
            keep = fine & ok & ~(value_new < lowest) & ~(step < 1e-14)
            if not keep.any():
                break
            beta, s2, value = beta_new, s2_new, value_new
            if not keep.all():
                lanes, data = lanes[keep], data.take(keep)
                beta, s2, value, beta_scale = beta[keep], s2[keep], value[keep], beta_scale[keep]
                derivatives = tuple(v[keep] for v in derivatives)
                rows = _rows(work[:, :lanes.size])
    return (*best, iterations)


def _exact(first, second):
    """The fit to identical readings, returned as ``_hetero`` returns a fit.
    Only a noiseless dataset has one: its data lie exactly on a line, so the
    likelihood is unbounded at the perfect fit with zero response variance,
    which is returned.  The line counts as exact when the least-squares
    residuals are at rounding level, relative to the size of the responses in
    whatever unit they come; otherwise the variance really is driven to the
    boundary."""
    with np.errstate(all="ignore"):  # an overflowed slope fails the verdict
        beta = first.sxy / first.sxx
        r = (first.yc - beta * first.xc) / np.max(np.abs(first.y))
        alpha, x0 = _alpha_x0(beta, first, second)
        # a zero slope also covers all-zero responses, which have no size
        inexact = (_slope_verdict(beta, first)[1]
                   or float(np.sum(r * r)) > first.n * (64.0 * np.finfo(float).eps) ** 2)
    return ((alpha, beta, x0, 0.0, 0.0, np.True_, 0.0, math.inf, 0),
            (("identical", inexact), _finite_verdict(alpha, beta, x0)))


def _start(first, second):
    """Where the Newton iteration starts, for one dataset or a stack, as the
    drivers take it: ``(beta0, s2_0, beta_scale)``.  ``beta0`` is the
    first-stage least-squares slope, ``s2_0`` the readings' variance and
    ``beta_scale`` the slope's size."""
    with np.errstate(all="ignore"):  # the fit's verdict judges an overflowed slope
        beta0 = first.sxy / first.sxx
        beta_scale = np.where(beta0 != 0, abs(beta0), first.slope_threshold + 1.0)[()]
        return beta0, second.ss0 / second.k, beta_scale


def _hetero(first, second, work):
    """The proposed fit over the last axis of one dataset, or of a
    ``DataStack`` given as both stages whose readings all differ: the record
    that ``_fit_result`` reads, converged where its scaled score is below
    ``SCORE_TOL``, and its verdict, in the order it is judged.  A stack runs
    ``_newton_lanes`` in ``work``, one lane per dataset, one dataset
    ``_newton`` in ``work``, or ``_exact`` where its readings are identical;
    the variance is read in the same ``work``.  The score norm is the larger
    of the kept iterate's two scores in size."""
    if first.y.ndim == 1 and second.ss0 <= 0.0:
        return _exact(first, second)
    newton = _newton_lanes if first.y.ndim > 1 else _newton
    with np.errstate(all="ignore"):  # judged by the verdict, not reported
        _, s2_0, _ = start = _start(first, second)
        beta, s2, scaled, r_beta, r_sigma, loglik, iterations = newton(first, second, *start, work)
        alpha, x0 = _alpha_x0(beta, first, second)
        var, variance_verdict = _variance_x0(beta, x0, s2, first, second.k, work)
        # a fitted variance at or below 1e-12 of the data's variances (s2_0
        # and np.var(y)) is driven to the boundary
        floor = 1e-12 * (s2_0 + _sum(first.yc * first.yc) / first.n + 1e-300)
        # a driver stops at the first iterate whose variance is not representable
        verdict = (("overflow", ~_representable(s2)), ("boundary", s2 <= floor),
                   _slope_verdict(beta, first), *variance_verdict,
                   _finite_verdict(alpha, beta, x0, s2, var))
        norm = np.maximum(abs(r_beta), abs(r_sigma))
    return (alpha, beta, x0, s2, var, scaled < SCORE_TOL, norm, loglik, iterations), verdict


def fit_hetero(first: FirstStageData, second: SecondStageData, level: float = 0.95) -> FitResult:
    """Fit the heteroscedastic controlled calibration model.

    Maximizes the profiled log-likelihood over (slope, log response-variance)
    with a safeguarded Newton iteration on its analytic gradient and Hessian,
    started at the first-stage least-squares slope and the second-stage
    sample variance, until the step reaches rounding level or the smallest
    scaled score has not fallen for ``STALL_STEPS`` steps.  ``converged``
    means the scaled score residuals of the returned iterate are below
    ``SCORE_TOL``; otherwise the iterate with the smallest scaled score is
    returned with ``converged=False``.  ``iterations`` counts Newton steps,
    at most ``MAX_ITERATIONS``.
    """
    validate(first, second)
    return _fit_result(*_hetero(first, second, workspace(first.n)), level)
