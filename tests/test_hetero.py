import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hetcal import (
    CalibrationError,
    FirstStageData,
    InvalidLevel,
    NonFiniteValue,
    NonPositiveVariance,
    SecondStageData,
    SlopeNearZero,
    Theta,
    fisher_information,
    fit_hetero,
    fit_usual,
    gamma,
    log_likelihood,
    profile_alpha_x0,
    score_residuals,
    variance_usual,
    variance_x0,
)
from hetcal import hetero
from hetcal.data import DataStack
from hetcal.hetero import SCORE_TOL, _evaluate, _newton, _rows, workspace

from conftest import fit_or_reject, make_model_dataset, model_datasets, rel_diff


def least_squares_slope(first):
    """The first-stage least-squares slope, where ``fit_hetero`` starts."""
    return float(np.sum(first.xc * first.yc) / np.sum(first.xc * first.xc))


def linear_grid_design(n=5):
    x = np.linspace(0, 2, n)
    dv = np.linspace(0.1 / n, 0.1, n)
    return FirstStageData(x_fixed=x, y=0.1 + 2 * x, delta_var=dv)


# ---------------------------------------------------------------- gamma


def test_gamma_linear_variance_rule():
    first = linear_grid_design()
    g = gamma(2.0, 0.04, first)
    assert g == pytest.approx([0.12, 0.20, 0.28, 0.36, 0.44], rel=1e-12)


def test_gamma_is_constant_without_preparation_error():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[0, 1, 2], delta_var=[0, 0, 0])
    assert np.all(gamma(3.0, 0.05, first) == 0.05)


def test_gamma_is_constant_at_zero_slope():
    first = linear_grid_design()
    assert np.all(gamma(0.0, 0.05, first) == 0.05)


def test_gamma_rejects_nonpositive_variance():
    with pytest.raises(NonPositiveVariance):
        gamma(1.0, 0.0, linear_grid_design())


# ------------------------------------------------------- log_likelihood


def test_loglik_identity_case_is_zero():
    first = FirstStageData(x_fixed=[1, 2], y=[1, 2], delta_var=[0, 0])
    second = SecondStageData(y0=[0, 0])
    theta = Theta(alpha=0.0, beta=1.0, x0=0.0, sigma_eps2=1.0)
    assert log_likelihood(theta, first, second) == 0.0


def test_loglik_matches_termwise_summation(analytes):
    first, second = analytes["chromium"]
    theta = Theta(alpha=124.2801, beta=123027.3, x0=0.08309769, sigma_eps2=95899.0)
    total = 0.0
    for xi, yi, dvi in zip(first.x_fixed, first.y, first.delta_var):
        g = theta.sigma_eps2 + theta.beta**2 * dvi
        total -= 0.5 * math.log(g)
        total -= 0.5 * (yi - theta.alpha - theta.beta * xi) ** 2 / g
    for y0i in second.y0:
        total -= 0.5 * (y0i - theta.alpha - theta.beta * theta.x0) ** 2 / theta.sigma_eps2
    total -= 0.5 * second.k * math.log(theta.sigma_eps2)
    assert log_likelihood(theta, first, second) == pytest.approx(total, rel=1e-12)


def test_loglik_reduces_to_plain_gaussian_without_preparation_error():
    rng = np.random.default_rng(21)
    first, second, _ = make_model_dataset(rng, heteroscedastic=False)
    res = fit_usual(first, second)
    t = res.theta_hat
    # independently coded homoscedastic Gaussian log-likelihood (constant dropped)
    r1 = first.y - t.alpha - t.beta * first.x_fixed
    r0 = second.y0 - t.alpha - t.beta * t.x0
    expected = -0.5 * (first.n + second.k) * math.log(t.sigma_eps2) - 0.5 * (
        np.sum(r1**2) + np.sum(r0**2)
    ) / t.sigma_eps2
    assert log_likelihood(t, first, second) == pytest.approx(expected, rel=1e-12)


def test_loglik_rejects_nonpositive_variance():
    first, second, _ = make_model_dataset(np.random.default_rng(0))
    with pytest.raises(NonPositiveVariance):
        log_likelihood(Theta(0, 1, 0, -0.1), first, second)


def test_functions_of_theta_reject_a_nan_variance(analytes):
    # NaN fails no comparison with zero, so a positivity test alone lets it
    # through to a log-likelihood of -inf and a NaN information matrix
    first, second = analytes["chromium"]
    theta = Theta(alpha=124.3, beta=123027.3, x0=0.083, sigma_eps2=math.nan)
    with pytest.raises(NonFiniteValue, match="sigma_eps2"):
        log_likelihood(theta, first, second)
    with pytest.raises(NonFiniteValue, match="sigma_eps2"):
        hetero.fisher_information(theta, first, second.k)


def test_loglik_rejects_an_infinite_slope():
    # an infinite slope has no likelihood; evaluating one warns
    first, second, _ = make_model_dataset(np.random.default_rng(0))
    with pytest.raises(NonFiniteValue, match="beta"):
        log_likelihood(Theta(0.0, math.inf, 0.0, 0.1), first, second)


def test_functions_of_theta_give_finite_values_or_a_typed_error(analytes):
    # on finite parameters from below the smallest normal float to near the
    # largest, each public function of theta returns finite values or raises
    # a CalibrationError: no NaN or inf, no warning, no untyped error
    first, second = analytes["cadmium"]
    functions = {
        "gamma": lambda t: gamma(t.beta, t.sigma_eps2, first),
        "log_likelihood": lambda t: log_likelihood(t, first, second),
        "score_residuals": lambda t: score_residuals(t, first, second),
        "fisher_information": lambda t: fisher_information(t, first, 2),
        "variance_x0": lambda t: variance_x0(t, first, 2),
        "variance_usual": lambda t: variance_usual(t, first, 2),
        "profile_alpha_x0": lambda t: profile_alpha_x0(t.beta, first, second),
    }
    betas = (0.0, 1.0, -1.0, 1e-320, 1e-160, 1e160, 1e300, -1e300)
    variances = (1e-320, 1e-160, 1e-30, 1.0, 1e30, 1e160, 1e300)
    for alpha, x0, beta, s2 in itertools.product((0.0, 1e300), (0.0, 1e300), betas, variances):
        theta = Theta(alpha=alpha, beta=beta, x0=x0, sigma_eps2=s2)
        for name, function in functions.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = function(theta)
                except CalibrationError:
                    continue
            assert np.isfinite(value).all(), (name, theta, value)


@pytest.mark.parametrize("function", [fisher_information, variance_x0, variance_usual])
@pytest.mark.parametrize("k, match", [(2.5, "k must be an integer"), (2.0, "k must be an integer"),
                                      (0, "k must be >= 1"), (np.int64(2), None)])
def test_functions_of_theta_take_an_integer_count_of_readings(analytes, function, k, match):
    first, _ = analytes["cadmium"]
    theta = Theta(alpha=0.45, beta=10.5, x0=0.08, sigma_eps2=1e-4)
    if match is None:  # numpy integers are counts too
        assert np.array_equal(function(theta, first, k), function(theta, first, int(k)))
    else:
        with pytest.raises(ValueError, match=match):
            function(theta, first, k)


# ---------------------------------------------------- profile_alpha_x0


def test_profile_closed_form_values():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[1.1, 2.1, 3.1], delta_var=[0] * 3)
    second = SecondStageData(y0=[3.6, 3.8])
    alpha, x0 = profile_alpha_x0(2.0, first, second)
    assert alpha == pytest.approx(0.1, abs=1e-12)
    assert x0 == pytest.approx(1.8, abs=1e-12)


def test_profile_unit_slope_identity():
    first = FirstStageData(x_fixed=[0.5, 1.0, 2.5], y=[0.5, 1.0, 2.5], delta_var=[0] * 3)
    second = SecondStageData(y0=[1.0, 1.0])
    alpha, x0 = profile_alpha_x0(1.0, first, second)
    assert alpha == pytest.approx(0.0, abs=1e-14)
    assert x0 == pytest.approx(1.0, abs=1e-14)


def test_profile_consistent_with_fit(analytes):
    first, second = analytes["chromium"]
    res = fit_hetero(first, second)
    alpha, x0 = profile_alpha_x0(res.theta_hat.beta, first, second)
    assert alpha == res.theta_hat.alpha
    assert x0 == res.theta_hat.x0
    assert alpha == pytest.approx(124.2801, rel=5e-5)
    assert x0 == pytest.approx(0.08309769, rel=5e-5)


def test_profile_rejects_zero_slope():
    first = linear_grid_design()
    with pytest.raises(SlopeNearZero):
        profile_alpha_x0(0.0, first, SecondStageData(y0=[1.0, 2.0]))


def test_profile_rejects_a_nan_slope():
    # NaN is not numerically zero, so the slope check alone lets it through
    with pytest.raises(NonFiniteValue, match="beta"):
        profile_alpha_x0(math.nan, linear_grid_design(), SecondStageData(y0=[1.0, 2.0]))


# ----------------------------------------------------- score_residuals


@pytest.mark.parametrize("sigma_eps2, error", [(-0.1, NonPositiveVariance),
                                               (math.inf, NonFiniteValue)])
def test_scores_reject_a_variance_that_is_not_positive_and_finite(analytes, sigma_eps2, error):
    # unchecked, a negative variance gives finite scores and an infinite one
    # gives (0, 0), which would certify it
    first, second = analytes["cadmium"]
    with pytest.raises(error, match="sigma_eps2"):
        score_residuals(Theta(0.45, 10.5, 0.08, sigma_eps2), first, second)


def test_scores_vanish_at_converged_fit(analytes):
    first, second = analytes["chromium"]
    res = fit_hetero(first, second)
    rb, rs = score_residuals(res.theta_hat, first, second)
    gam = gamma(res.theta_hat.beta, res.theta_hat.sigma_eps2, first)
    d = first.y - res.theta_hat.alpha - res.theta_hat.beta * first.x_fixed
    scale = float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0
    assert max(abs(rb), abs(rs)) < 1e-6 * scale
    assert res.score_residual_norm < 1e-6 * scale


def test_scores_reduce_to_normal_equation_residual():
    rng = np.random.default_rng(22)
    first, second, _ = make_model_dataset(rng, heteroscedastic=False)
    beta = 1.7
    alpha, _ = profile_alpha_x0(beta, first, second)
    s2 = 0.09
    rb, _ = score_residuals(Theta(alpha, beta, 1.0, s2), first, second)
    d = first.y - alpha - beta * first.x_fixed
    assert rb == pytest.approx(-float(np.sum(first.x_fixed * d)) / s2, rel=1e-10)
    # and it vanishes at the least-squares slope
    ls = fit_usual(first, second).theta_hat
    rb_ls, _ = score_residuals(ls, first, second)
    assert abs(rb_ls) < 1e-9 * (float(np.sum(np.abs(first.x_fixed * d))) + 1.0)


def test_scores_nonzero_away_from_optimum(analytes):
    first, second = analytes["chromium"]
    res = fit_hetero(first, second)
    t = res.theta_hat
    bumped_beta = 1.1 * t.beta
    alpha, x0 = profile_alpha_x0(bumped_beta, first, second)
    rb, _ = score_residuals(Theta(alpha, bumped_beta, x0, t.sigma_eps2), first, second)
    gam = gamma(bumped_beta, t.sigma_eps2, first)
    d = first.y - alpha - bumped_beta * first.x_fixed
    scale = float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0
    assert abs(rb) > 1e-3 * scale


def _derivatives_at(first, second, beta, s2):
    """The scores, scaled score and Hessian that ``_evaluate`` gives at
    (beta, s2)."""
    return _evaluate(first, np.float64(beta), np.float64(s2), second.ss0, second.k,
                     _rows(workspace(first.n)))[1]


def test_hessian_matches_central_differences_of_scores(analytes):
    rng = np.random.default_rng(28)
    datasets = list(analytes.values())
    datasets += [make_model_dataset(rng)[:2] for _ in range(4)]
    for first, second in datasets:
        beta0, s20 = least_squares_slope(first), second.ss0 / second.k
        for beta, s2 in ((beta0, s20), (1.1 * beta0, 3.0 * s20)):
            h_bb, h_bs, h_ss = _derivatives_at(first, second, beta, s2)[3:]
            hb, hs = 1e-6 * abs(beta), 1e-6 * s2
            # scores are -(dl/dbeta, 2 dl/ds2)
            up_b = _derivatives_at(first, second, beta + hb, s2)
            down_b = _derivatives_at(first, second, beta - hb, s2)
            up_s = _derivatives_at(first, second, beta, s2 + hs)
            down_s = _derivatives_at(first, second, beta, s2 - hs)
            assert h_bb == pytest.approx(-(up_b[0] - down_b[0]) / (2 * hb), rel=1e-6)
            assert h_bs == pytest.approx(-(up_s[0] - down_s[0]) / (2 * hs), rel=1e-6)
            assert h_bs == pytest.approx(-(up_b[1] - down_b[1]) / (4 * hb), rel=1e-6)
            assert h_ss == pytest.approx(-(up_s[1] - down_s[1]) / (4 * hs), rel=1e-6)


def test_log_variance_hessian_is_indefinite_at_lead_start(analytes):
    # The solver steps in (beta, log s2), where d2l/dv2 = s2^2 h_ss + s2 dl/ds2.
    # An indefinite Hessian there is what the Levenberg shift handles.
    first, second = analytes["lead"]
    beta, s2 = least_squares_slope(first), second.ss0 / second.k
    _, r_sigma, _, h_bb, h_bs, h_ss = _derivatives_at(first, second, beta, s2)
    h_bv = s2 * h_bs
    h_vv = s2 * s2 * h_ss - 0.5 * s2 * r_sigma
    assert h_bb * h_vv - h_bv * h_bv < 0.0
    assert fit_hetero(first, second).converged


# ---------------------------------------------------------- fit_hetero


def test_reduction_to_usual_model_on_random_data():
    rng = np.random.default_rng(23)
    for _ in range(8):
        first, second, _ = make_model_dataset(rng, heteroscedastic=False)
        res_h = fit_hetero(first, second)
        res_u = fit_usual(first, second)
        assert res_h.converged
        for attr in ("alpha", "beta", "x0", "sigma_eps2"):
            assert rel_diff(
                getattr(res_h.theta_hat, attr), getattr(res_u.theta_hat, attr)
            ) < 1e-8
        assert rel_diff(res_h.var_x0, res_u.var_x0) < 1e-8


def test_reduction_chain_monotone_in_preparation_variance():
    rng = np.random.default_rng(24)
    first, second, _ = make_model_dataset(rng, n=6, heteroscedastic=False)
    res_u = fit_usual(first, second)
    ref = np.array(
        [res_u.theta_hat.alpha, res_u.theta_hat.beta, res_u.theta_hat.x0,
         res_u.theta_hat.sigma_eps2, res_u.var_x0]
    )
    dists = []
    for c in (1e-2, 1e-4, 1e-6, 0.0):
        fc = FirstStageData(first.x_fixed, first.y, np.full(first.n, c))
        res = fit_hetero(fc, second)
        cur = np.array(
            [res.theta_hat.alpha, res.theta_hat.beta, res.theta_hat.x0,
             res.theta_hat.sigma_eps2, res.var_x0]
        )
        dists.append(float(np.linalg.norm((cur - ref) / np.maximum(np.abs(ref), 1e-12))))
    assert dists[0] >= dists[1] >= dists[2] >= dists[3]
    assert dists[3] < 1e-8


def test_scale_equivariance_of_stationary_point():
    rng = np.random.default_rng(25)
    first, second, _ = make_model_dataset(rng)
    res = fit_hetero(first, second)
    assert res.converged
    c = 7.5
    t = res.theta_hat
    mapped = Theta(c * t.alpha, c * t.beta, t.x0, c**2 * t.sigma_eps2)
    scaled_first = FirstStageData(first.x_fixed, c * first.y, first.delta_var)
    scaled_second = SecondStageData(c * second.y0)
    rb, rs = score_residuals(mapped, scaled_first, scaled_second)
    gam = gamma(mapped.beta, mapped.sigma_eps2, scaled_first)
    d = scaled_first.y - mapped.alpha - mapped.beta * scaled_first.x_fixed
    scale = float(np.sum(np.abs(scaled_first.x_fixed * d / gam))) + 1.0
    assert max(abs(rb), abs(rs) * mapped.sigma_eps2) < 1e-6 * scale


def test_fit_improves_on_initial_point():
    rng = np.random.default_rng(26)
    for _ in range(5):
        first, second, _ = make_model_dataset(rng)
        res = fit_hetero(first, second)
        beta0 = float(
            np.sum(
                (first.x_fixed - first.x_fixed.mean()) * (first.y - first.y.mean())
            )
            / np.sum((first.x_fixed - first.x_fixed.mean()) ** 2)
        )
        s20 = float(np.sum((second.y0 - second.y0.mean()) ** 2)) / second.k
        alpha0, x00 = profile_alpha_x0(beta0, first, second)
        ll_init = log_likelihood(Theta(alpha0, beta0, x00, s20), first, second)
        assert res.log_likelihood >= ll_init - 1e-12 * (abs(ll_init) + 1)


def test_fit_matches_profiled_likelihood_value(analytes):
    first, second = analytes["cadmium"]
    res = fit_hetero(first, second)
    assert res.log_likelihood == pytest.approx(
        log_likelihood(res.theta_hat, first, second), rel=1e-12
    )


def test_fit_result_interval_brackets_estimate(analytes):
    for first, second in analytes.values():
        res = fit_hetero(first, second)
        assert res.var_x0 >= 0.0
        assert res.ci_lower <= res.theta_hat.x0 <= res.ci_upper
        assert res.expanded_uncertainty == 1.96 * math.sqrt(res.var_x0)


def test_profiled_gradient_vanishes_at_fit():
    rng = np.random.default_rng(27)
    first, second, _ = make_model_dataset(rng)
    res = fit_hetero(first, second)
    assert res.converged
    t = res.theta_hat

    def profiled(beta, s2):
        a, x0 = profile_alpha_x0(beta, first, second)
        return log_likelihood(Theta(a, beta, x0, s2), first, second)

    ll = profiled(t.beta, t.sigma_eps2)
    hb = 1e-6 * max(1.0, abs(t.beta))
    hs = 1e-6 * max(1.0, t.sigma_eps2)
    g_beta = (profiled(t.beta + hb, t.sigma_eps2) - profiled(t.beta - hb, t.sigma_eps2)) / (2 * hb)
    g_s2 = (profiled(t.beta, t.sigma_eps2 + hs) - profiled(t.beta, t.sigma_eps2 - hs)) / (2 * hs)
    bound = 1e-4 * max(1.0, abs(ll))
    assert abs(g_beta) < bound
    assert abs(g_s2) < bound


def test_grid_search_oracle_small_dataset():
    # brute-force maximization of the profiled objective on a refined log grid
    first = FirstStageData(
        x_fixed=[0.2, 1.0, 1.9],
        y=[0.93, 2.61, 4.35],
        delta_var=[0.02, 0.08, 0.13],
    )
    second = SecondStageData(y0=[2.1, 2.4, 2.0])
    res = fit_hetero(first, second)
    assert res.converged

    xc = first.x_fixed - first.x_fixed.mean()
    yc = first.y - first.y.mean()
    ss0 = float(np.sum((second.y0 - second.y0.mean()) ** 2))
    k = second.k

    def objective(beta_col, s2_row):
        gam = s2_row[:, None] + beta_col**2 * first.delta_var[None, :]
        d = yc[None, :] - beta_col * xc[None, :]
        return (
            -0.5 * np.sum(np.log(gam), axis=1)
            - 0.5 * k * np.log(s2_row)
            - 0.5 * (np.sum(d * d / gam, axis=1) + ss0 / s2_row)
        )

    beta_ls = float(np.sum(xc * yc) / np.sum(xc * xc))
    s2_init = ss0 / k
    betas = beta_ls * np.exp(np.linspace(np.log(0.3), np.log(3.0), 400))
    s2s = s2_init * np.exp(np.linspace(np.log(1e-2), np.log(1e2), 400))
    for _ in range(2):
        vals = np.array([objective(np.full(1, b), s2s).ravel() for b in betas])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        db = math.log(betas[1] / betas[0])
        ds = math.log(s2s[1] / s2s[0])
        betas = betas[i] * np.exp(np.linspace(-2 * db, 2 * db, 400))
        s2s = s2s[j] * np.exp(np.linspace(-2 * ds, 2 * ds, 400))
    vals = np.array([objective(np.full(1, b), s2s).ravel() for b in betas])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    spacing_beta = math.log(betas[1] / betas[0])
    spacing_s2 = math.log(s2s[1] / s2s[0])
    assert abs(math.log(res.theta_hat.beta / betas[i])) < 3 * spacing_beta
    assert abs(math.log(res.theta_hat.sigma_eps2 / s2s[j])) < 3 * spacing_s2


def test_constant_sample_readings_raise():
    base = linear_grid_design()
    scatter = np.array([0.0, 0.05, -0.04, 0.03, -0.02])
    noisy = FirstStageData(base.x_fixed, base.y + scatter, base.delta_var)
    with pytest.raises(NonPositiveVariance):
        fit_hetero(noisy, SecondStageData(y0=[4.0, 4.0, 4.0]))


def test_noiseless_line_returns_exact_fit():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[1, 3, 5], delta_var=[0, 0, 0])
    second = SecondStageData(y0=[3, 3])
    res = fit_hetero(first, second)
    assert res.converged
    assert res.theta_hat.alpha == pytest.approx(1.0, abs=1e-12)
    assert res.theta_hat.beta == pytest.approx(2.0, abs=1e-12)
    assert res.theta_hat.x0 == pytest.approx(1.0, abs=1e-12)
    assert res.theta_hat.sigma_eps2 == 0.0
    assert res.var_x0 == 0.0
    assert res.ci_lower == res.ci_upper == res.theta_hat.x0


@pytest.mark.parametrize("scale", [1.0, 1e-14, 2.0**-60, 2.0**60])
def test_exact_line_is_recognised_in_any_response_unit(scale):
    # noisy standards with identical sample readings drive the variance to
    # the boundary, an exact line is the noiseless limit, whatever the unit
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    dv = np.full(5, 1e-3)
    second = SecondStageData(y0=np.full(3, scale * 1.7))
    scatter = np.array([0.03, -0.05, 0.02, 0.04, -0.03])
    with pytest.raises(NonPositiveVariance):
        fit_hetero(FirstStageData(x, scale * (0.1 + 2.0 * x + scatter), dv), second)
    res = fit_hetero(FirstStageData(x, scale * (0.1 + 2.0 * x), dv), second)
    assert res.converged and res.theta_hat.sigma_eps2 == 0.0 and res.var_x0 == 0.0
    assert res.theta_hat.x0 == pytest.approx(0.8, rel=1e-14)


@pytest.mark.parametrize("fit", [fit_usual, fit_hetero])
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_invalid_level_raises_for_both_estimators(analytes, fit, level):
    exact = (FirstStageData(x_fixed=[0, 1, 2], y=[1, 3, 5], delta_var=[0, 0, 0]),
             SecondStageData(y0=[3, 3]))
    for first, second in (exact, analytes["chromium"]):
        with pytest.raises(InvalidLevel):
            fit(first, second, level=level)


def test_distant_start_reaches_same_optimum(analytes):
    first, second = analytes["chromium"]
    base = fit_hetero(first, second)
    beta, s2, scaled, _, _, loglik, _ = _newton(first, second, 1.1e5, 5e4, 1.1e5,
                                                workspace(first.n))
    assert scaled < SCORE_TOL
    assert rel_diff(beta, base.theta_hat.beta) < 1e-9
    assert rel_diff(s2, base.theta_hat.sigma_eps2) < 1e-7
    assert loglik == _evaluate(first, beta, s2, second.ss0, second.k,
                               _rows(workspace(first.n)))[0]


@pytest.mark.parametrize("name, start", [("lead", None), ("chromium", (1.1e5, 5e4, 1.1e5))])
def test_newton_evaluates_each_point_once(analytes, monkeypatch, name, start):
    # the kernel runs at the start and at every trial, accepted or halved,
    # and not at the final step below 1e-14, which ends the iteration
    # whether or not it would be kept, nor again at an accepted point, whose
    # scores and Hessian its trial gave; the distant start halves
    first, second = analytes[name]
    events = []
    evaluate, trial = hetero._evaluate, hetero._trial

    def counted_trial(*args):
        out = trial(*args)
        events.append("step" if out[0] >= 1e-14 else "tiny")
        return out

    monkeypatch.setattr(hetero, "_evaluate", lambda *a: events.append("point") or evaluate(*a))
    monkeypatch.setattr(hetero, "_trial", counted_trial)
    if start is None:
        iterations = fit_hetero(first, second).iterations
        assert iterations == 12
    else:
        iterations = _newton(first, second, *start, workspace(first.n))[-1]
    points, steps = events.count("point"), events.count("step")
    halvings = steps + 1 - iterations  # each iteration's last trial is not halved
    assert (events[0], events[-1], events.count("tiny")) == ("point", "tiny", 1)
    assert points == 1 + steps
    # each trial of at least 1e-14 is evaluated once, and nothing else is
    assert all((a == "step") == (b == "point") for a, b in zip(events, events[1:]))
    if start is not None:
        assert halvings > 0


def test_lanes_evaluate_once_per_line_search_round(monkeypatch):
    # _newton_lanes evaluates the running lanes once at the start and once
    # per round of its line search, and carries the kept trial's scores and
    # Hessian on: no evaluation between the last round and the next step.
    # The lanes stop after different numbers of steps, and one round halves
    rng = np.random.default_rng(5)
    first, _, _ = make_model_dataset(rng, n=5, k=2)
    y = first.y + 0.3 * rng.standard_normal((6, 5))
    data = DataStack(first.x_fixed, first.delta_var, y, rng.standard_normal((6, 2)))
    events = []
    evaluate, trial = hetero._evaluate, hetero._trial

    def counted_trial(*args):
        events.append("round")
        return trial(*args)

    monkeypatch.setattr(hetero, "_evaluate", lambda *a: events.append("point") or evaluate(*a))
    monkeypatch.setattr(hetero, "_trial", counted_trial)
    iterations = hetero._newton_lanes(data, data, *hetero._start(data, data),
                                      workspace(6, data.n))[-1]
    assert events[0] == "point" and events.count("round") > iterations.max() > iterations.min()
    assert events[1:] == ["round", "point"] * events.count("round")


def test_newton_in_a_caller_workspace_allocates_no_vector():
    tracemalloc = pytest.importorskip("tracemalloc")
    rng = np.random.default_rng(5)
    first, second, _ = make_model_dataset(rng, n=5000, k=500)
    start = hetero._start(first, second)
    work = workspace(first.n)
    _newton(first, second, *start, work)  # warm every code path
    tracemalloc.start()
    try:
        beta, s2, scaled, *_ = _newton(first, second, *start, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scaled < SCORE_TOL
    assert peak < first.n * 8  # less than one n-vector of float64


# design lengths about numpy's 8-way unrolled sum and its 128-element pairwise block
REDUCE_LENGTHS = [1, 2, 7, 8, 9, 127, 128, 129, 5000]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(REDUCE_LENGTHS), rows=st.integers(1, hetero._ROWS),
       m=st.integers(1, 5), spare=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_a_row_sums_to_the_same_bits_in_a_block_of_rows(n, rows, m, spare, seed):
    # the kernels sum all their terms in one reduction over rows of the
    # workspace, and the lanes sum in a view of its leading lanes: each row
    # must sum as the vector alone, bit for bit.  The terms span 16 decades,
    # so the order of the additions shows in the last bits
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((hetero._ROWS, m, n)) * 10.0 ** rng.uniform(-8, 8, (1, 1, n))
    alone = [[np.add.reduce(np.array(values[j, i])).tobytes() for i in range(m)]
             for j in range(hetero._ROWS)]
    block = values[:rows, 0]
    assert [s.tobytes() for s in hetero._sum(block)] == [a[0] for a in alone[:rows]]
    lanes = workspace(m + spare, n)[:, :m]
    lanes[...] = values
    summed = hetero._sum(lanes[hetero._ROWS - rows:])
    assert [[s.tobytes() for s in row] for row in summed] == alone[hetero._ROWS - rows:]
    one = workspace(n)
    one[...] = values[:, 0]
    assert [s.tobytes() for s in hetero._sum(one[:rows])] == [a[0] for a in alone[:rows]]


@pytest.mark.parametrize("shape", [(n,) for n in REDUCE_LENGTHS] + [(3, 5), (81, 100),
                                                                     (1, 5000)])
def test_a_workspace_starts_on_a_page(shape):
    work = workspace(*shape)
    assert work.shape == (hetero._ROWS, *shape) and work.flags.c_contiguous
    assert work.ctypes.data % 4096 == 0


def test_each_kernel_sums_its_terms_in_one_reduction(analytes, monkeypatch):
    # _evaluate reduces once, over a (13, n) block of rows, _variance_x0
    # before and after the means it centres on, fisher_information once
    first, second = analytes["cadmium"]
    t = fit_hetero(first, second).theta_hat
    calls, reduce = [], hetero._sum

    def counted(v):
        calls.append(v.shape)
        return reduce(v)

    monkeypatch.setattr(hetero, "_sum", counted)
    work, n = workspace(first.n), first.n
    beta, s2 = np.float64(t.beta), np.float64(t.sigma_eps2)
    for kernel, blocks in (
        (lambda: _evaluate(first, beta, s2, second.ss0, second.k, _rows(work)), [(13, n)]),
        (lambda: hetero._variance_x0(t.beta, t.x0, t.sigma_eps2, first, second.k, work),
         [(4, n), (2, n)]),
        (lambda: fisher_information(t, first, second.k), [(6, n)]),
    ):
        calls.clear()
        kernel()
        assert calls == blocks  # each reduction over a block of rows


# runs that made no new smallest scaled score after their 5th and 82nd Newton
# steps: (x, delta_var, y, y0, that step, the fit as float.hex of alpha, beta,
# x0, sigma_eps2, var_x0, log-likelihood and score norm).  Without the stall
# stop each runs all MAX_ITERATIONS steps, the first alternating between two
# slopes with steps just above the 1e-14 stop, for that same fit
STALLED = [
    (np.linspace(0.0, 2.0, 12), np.zeros(12),
     [0.7562708165046255, 0.8640716413049765, 1.6382947445023672, 3.0820063131005293,
      3.117854817944447, 2.494761061961759, 1.5402427394257825, 2.3006251406291485,
      2.9021959512959525, 1.70454152674194, 0.9431932717056626, 1.018925163274364],
     [0.48585956144151177, 2.2415618364110586, 1.5352800232320454, -0.5792359454947147], 5,
     ["0x1.de427b17bd369p+0", "-0x1.2ec67acf91ccep-8", "0x1.9a1a74287136ep+7",
      "0x1.a81b8fd8fcea0p-1", "0x1.45fec82e9af66p+28", "-0x1.9f92419aa8b4cp+2",
      "0x1.0000000000000p-51"]),
    (np.linspace(0.0, 2.0, 4),
     [0.040049764853121304, 0.022492899231076807, 0.044941608395386606, 0.0857771826806104],
     [2.7572995639437288, -0.17344980725977233, 1.8220085613373187, 2.418429735834192],
     [2.130381287187088, 2.1033647894141416], 82,
     ["-0x1.fdae3a023cfe5p+1", "0x1.6c0765acbb2e2p+2", "0x1.127d352dfb90cp+0",
      "0x1.7facf7f3c486ap-13", "0x1.701f6a00bba4ap-7", "-0x1.021e45840005ap+4",
      "0x1.1800000000000p-40"]),
]


@pytest.mark.parametrize("x, delta_var, y, y0, best_at, record", STALLED)
def test_a_run_that_stopped_improving_ends_with_the_same_fit(x, delta_var, y, y0, best_at,
                                                              record):
    res = fit_hetero(FirstStageData(x, y, delta_var), SecondStageData(y0))
    t = res.theta_hat
    assert [v.hex() for v in (t.alpha, t.beta, t.x0, t.sigma_eps2, res.var_x0,
                              res.log_likelihood, res.score_residual_norm)] == record
    assert res.converged
    assert res.iterations == best_at + hetero.STALL_STEPS


def test_lanes_stop_a_stalled_run_where_newton_does():
    # the 82-step run stops while a lane of the stack runs on
    x, dv, y, y0, best_at, _ = STALLED[1]
    rng = np.random.default_rng(2)
    data = DataStack(x, np.array(dv), np.vstack([y, y + 0.2 * rng.standard_normal((3, 4))]),
                     np.vstack([y0, y0 + 0.2 * rng.standard_normal((3, 2))]))
    beta0, s2_0, beta_scale = hetero._start(data, data)
    lanes = hetero._newton_lanes(data, data, beta0, s2_0, beta_scale, workspace(4, data.n))
    for i in range(4):
        one = data.take(i)
        alone = _newton(one, one, beta0[i], s2_0[i], beta_scale[i], workspace(data.n))
        assert [np.float64(v).tobytes() for v in alone] == [np.float64(v[i]).tobytes()
                                                            for v in lanes]
    assert lanes[-1][0] == best_at + hetero.STALL_STEPS < lanes[-1].max()


def test_iteration_cap_reports_nonconvergence(analytes, monkeypatch):
    monkeypatch.setattr(hetero, "MAX_ITERATIONS", 1)
    res = fit_hetero(*analytes["lead"])
    assert not res.converged
    assert res.iterations == 1
    t = res.theta_hat
    assert all(math.isfinite(v) for v in (t.alpha, t.beta, t.x0, t.sigma_eps2, res.var_x0))


@settings(max_examples=100, deadline=None)
@given(data=model_datasets())
def test_converged_fit_is_certified_by_public_functions(data):
    first, second = data
    res = fit_or_reject(fit_hetero, first, second)
    assume(res.converged)
    t = res.theta_hat
    values = (t.alpha, t.beta, t.x0, t.sigma_eps2, res.var_x0, res.ci_lower, res.ci_upper,
              res.expanded_uncertainty, res.log_likelihood, res.score_residual_norm)
    assert all(math.isfinite(v) for v in values)
    rb, rs = score_residuals(t, first, second)
    d = first.y - t.alpha - t.beta * first.x_fixed
    scale = float(np.sum(np.abs(first.x_fixed * d / gamma(t.beta, t.sigma_eps2, first)))) + 1.0
    assert max(abs(rb), abs(rs)) < SCORE_TOL * scale
    assert log_likelihood(t, first, second) == pytest.approx(res.log_likelihood, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(data=model_datasets())
def test_converged_fit_has_each_score_small_against_its_own_terms(data):
    # the variance score r_sigma = sum(w) - ss0 / s2**2 + k / s2 is judged
    # against the sum of the sizes of those terms, the slope score against
    # its own; public functions only
    first, second = data
    res = fit_or_reject(fit_hetero, first, second)
    assume(res.converged)
    t = res.theta_hat
    s2 = t.sigma_eps2
    rb, rs = score_residuals(t, first, second)
    gam = gamma(t.beta, s2, first)
    d = first.y - t.alpha - t.beta * first.x_fixed
    w = (gam - d * d) / (gam * gam)
    assert abs(rb) < SCORE_TOL * (float(np.sum(np.abs(first.x_fixed * d / gam))) + 1.0)
    assert abs(rs) < SCORE_TOL * (float(np.sum(np.abs(w))) + second.ss0 / (s2 * s2) + second.k / s2)


def test_log_likelihood_keeps_the_spread_of_readings_far_from_zero():
    # two readings near 41 that differ by 0.004: summing the squares of
    # y0 - alpha - beta * x0 lost digits of their spread, and the public
    # log-likelihood sat 1.1e-12 relative off the fit's own value
    y = [-2.87021000553735, -3.0221006607288694, 9.338415978308303, 18.46630216345157,
         18.19820746632998, 22.92232645030932, 38.29211273110577, 38.37643562069407]
    dv = [0.04087153457569509, 0.12340960541724069, 0.03983885481068959, 0.09856861697750362,
          0.10873706396202701, 0.04888560081739925, 0.05473523414034985, 0.04659361288616913]
    first = FirstStageData(np.linspace(0.0, 2.0, 8), y, dv)
    second = SecondStageData([40.996252773720364, 40.99241850732396])
    res = fit_hetero(first, second)
    assert res.converged
    assert log_likelihood(res.theta_hat, first, second) == pytest.approx(res.log_likelihood,
                                                                         rel=1e-13)


@pytest.mark.parametrize("unit", [1e60, 1e-60])
def test_fit_whose_variance_leaves_the_float_range_raises_non_finite_value(analytes, unit):
    # s2**3 in the variance curvature overflows or underflows to zero; no
    # floating-point warning escapes on the way to the error
    first, second = analytes["cadmium"]
    scaled = (FirstStageData(first.x_fixed, unit * first.y, first.delta_var),
              SecondStageData(unit * second.y0))
    with pytest.raises(NonFiniteValue, match="not representable"):
        fit_hetero(*scaled)


def test_exact_line_whose_slope_overflows_raises_non_finite_value():
    # identical readings send the fit to the exact-line case, whose
    # least-squares slope overflows to inf; it fails as fit_usual does,
    # with no floating-point warning on the way
    first = FirstStageData([0.0, 1.0, 2.0], [-1.7e308, 0.0, 1.7e308], [0.0, 0.0, 0.0])
    second = SecondStageData([1.0, 1.0])
    for fit in (fit_usual, fit_hetero):
        with pytest.raises(NonFiniteValue, match="not representable"):
            fit(first, second)


@settings(max_examples=100, deadline=None)
@given(data=model_datasets(), order_seed=st.integers(0, 2**32 - 1))
# a slope of -7.6e-5 puts x0 at -8367, where the permutation moves it by 2.8e-9
@example(data=(FirstStageData(np.linspace(0.0, 2.0, 4),
                              [1.54012779, 0.06450824, 1.94282307, 0.91385491], np.zeros(4)),
               SecondStageData([2.73602544, 0.75944049])), order_seed=0)
def test_fits_are_invariant_to_the_order_of_standards_and_readings(data, order_seed):
    # Only the summation order changes, so the fits agree to rounding, not
    # bitwise.  Where the preparation errors dominate the response variance
    # the profile is flat in the slope and the maximizer moves by up to 2e-11
    # relative (worst of 20,000 datasets of this generator at sigma_eps2 =
    # 1e-3), hence 1e-10.  x0 is compared as ``_assert_maps_to`` compares it.
    first, second = data
    rng = np.random.default_rng(order_seed)
    p, q = rng.permutation(first.n), rng.permutation(second.k)
    shuffled = (FirstStageData(first.x_fixed[p], first.y[p], first.delta_var[p]),
                SecondStageData(second.y0[q]))
    for fit in (fit_usual, fit_hetero):
        res, moved = fit_or_reject(fit, first, second), fit_or_reject(fit, *shuffled)
        assume(res.converged)
        assert moved.converged
        t, u = res.theta_hat, moved.theta_hat
        assert rel_diff(t.beta, u.beta) < 1e-10
        assert rel_diff(t.sigma_eps2, u.sigma_eps2) < 1e-10
        assert rel_diff(res.var_x0, moved.var_x0) < 1e-10
        assert abs(t.x0 - u.x0) < 1e-10 * (np.ptp(first.x_fixed) + abs(t.x0))


def _assert_maps_to(moved, beta, sigma_eps2, x0, var_x0, span):
    """``moved`` equals the mapped estimates to rounding: 1e-10 relative, as
    in the permutation test.  x0 is a location: it is compared on the
    standards' span plus its own size, since near 0 a relative test measures
    cancellation and far outside the standards x0 inherits the slope's
    relative error."""
    t = moved.theta_hat
    assert rel_diff(t.beta, beta) < 1e-10
    assert rel_diff(t.sigma_eps2, sigma_eps2) < 1e-10
    assert rel_diff(moved.var_x0, var_x0) < 1e-10
    assert abs(t.x0 - x0) < 1e-10 * (span + abs(x0))


# a change of unit: sign, log2 of the factor, and an offset in the old unit
unit_changes = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 12.0),
                         st.floats(-100.0, 100.0))


@settings(max_examples=100, deadline=None)
@given(data=model_datasets(), unit=unit_changes)
def test_fits_follow_an_affine_change_of_response_unit(data, unit):
    # y -> a + b*y: the slope scales by b and the variance by b**2, x0 and
    # var_x0 stay.  The moved fit's converged flag is not compared here;
    # test_small_response_units_leave_the_fit_converged checks it under a
    # change of response unit.
    first, second = data
    sign, log2_b, shift = unit
    b = sign * 2.0**log2_b
    a = b * shift
    moved = (FirstStageData(first.x_fixed, a + b * first.y, first.delta_var),
             SecondStageData(a + b * second.y0))
    for fit in (fit_usual, fit_hetero):
        res = fit_or_reject(fit, first, second)
        assume(res.converged)
        t = res.theta_hat
        _assert_maps_to(fit_or_reject(fit, *moved), b * t.beta, b * b * t.sigma_eps2, t.x0,
                        res.var_x0, np.ptp(first.x_fixed))


@settings(max_examples=100, deadline=None)
@given(data=model_datasets(), unit=unit_changes)
def test_fits_follow_a_change_of_concentration_origin_and_unit(data, unit):
    # x -> c + s*x with delta_var -> s**2 * delta_var: the slope scales by
    # 1/s, x0 maps to c + s*x0 and var_x0 scales by s**2
    first, second = data
    sign, log2_s, shift = unit
    s = sign * 2.0**log2_s
    c = s * shift
    moved = (FirstStageData(c + s * first.x_fixed, first.y, s * s * first.delta_var), second)
    for fit in (fit_usual, fit_hetero):
        res = fit_or_reject(fit, first, second)
        assume(res.converged)
        t = res.theta_hat
        mapped = fit_or_reject(fit, *moved)
        assert mapped.converged
        _assert_maps_to(mapped, t.beta / s, t.sigma_eps2, c + s * t.x0, s * s * res.var_x0,
                        abs(s) * np.ptp(first.x_fixed))


@settings(max_examples=100, deadline=None)
@given(data=model_datasets())
def test_fit_without_preparation_error_reduces_to_fit_usual(data):
    first, second = data
    first = FirstStageData(first.x_fixed, first.y, np.zeros(first.n))
    res = fit_or_reject(fit_hetero, first, second)
    assume(res.converged)
    usual = fit_usual(first, second)
    u = usual.theta_hat
    _assert_maps_to(res, u.beta, u.sigma_eps2, u.x0, usual.var_x0, np.ptp(first.x_fixed))


@pytest.mark.parametrize("name, unit", [("cadmium", 1e-8), ("chromium", 1e-12),
                                        ("lead", 1e-10)])
def test_small_response_units_leave_the_fit_converged(analytes, name, unit):
    # the variance score has units of 1 / sigma_eps2, so it is judged against
    # its own terms; against the slope score's it read unconverged here
    first, second = analytes[name]
    base = fit_hetero(first, second)
    res = fit_hetero(FirstStageData(first.x_fixed, unit * first.y, first.delta_var),
                     SecondStageData(unit * second.y0))
    assert base.converged
    assert res.converged
