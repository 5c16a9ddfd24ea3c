import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetcal import (
    FirstStageData,
    InvalidLevel,
    NonFiniteValue,
    NonPositiveVariance,
    SecondStageData,
    SlopeNearZero,
    Theta,
    fit_hetero,
    fit_usual,
    gamma,
    log_likelihood,
    profile_alpha_x0,
    score_residuals,
)
from hetcal import hetero
from hetcal.hetero import SCORE_TOL, _derivatives, _newton, _value

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


# ----------------------------------------------------- score_residuals


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


def test_hessian_matches_central_differences_of_scores(analytes):
    rng = np.random.default_rng(28)
    datasets = list(analytes.values())
    datasets += [make_model_dataset(rng)[:2] for _ in range(4)]
    for first, second in datasets:
        beta0, s20 = least_squares_slope(first), second.ss0 / second.k
        for beta, s2 in ((beta0, s20), (1.1 * beta0, 3.0 * s20)):
            h_bb, h_bs, h_ss = _derivatives(first, second, beta, s2)[3:]
            hb, hs = 1e-6 * abs(beta), 1e-6 * s2
            # scores are -(dl/dbeta, 2 dl/ds2)
            up_b = _derivatives(first, second, beta + hb, s2)
            down_b = _derivatives(first, second, beta - hb, s2)
            up_s = _derivatives(first, second, beta, s2 + hs)
            down_s = _derivatives(first, second, beta, s2 - hs)
            assert h_bb == pytest.approx(-(up_b[0] - down_b[0]) / (2 * hb), rel=1e-6)
            assert h_bs == pytest.approx(-(up_s[0] - down_s[0]) / (2 * hs), rel=1e-6)
            assert h_bs == pytest.approx(-(up_b[1] - down_b[1]) / (4 * hb), rel=1e-6)
            assert h_ss == pytest.approx(-(up_s[1] - down_s[1]) / (4 * hs), rel=1e-6)


def test_log_variance_hessian_is_indefinite_at_lead_start(analytes):
    # The solver steps in (beta, log s2), where d2l/dv2 = s2^2 h_ss + s2 dl/ds2.
    # An indefinite Hessian there is what the Levenberg shift handles.
    first, second = analytes["lead"]
    beta, s2 = least_squares_slope(first), second.ss0 / second.k
    _, r_sigma, _, h_bb, h_bs, h_ss = _derivatives(first, second, beta, s2)
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
    beta, s2, scaled, _, loglik, _ = _newton(first, second, 1.1e5, 5e4, 1.1e5)
    assert scaled < SCORE_TOL
    assert rel_diff(beta, base.theta_hat.beta) < 1e-9
    assert rel_diff(s2, base.theta_hat.sigma_eps2) < 1e-7
    assert loglik == _value(first, second, beta, s2)


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


@settings(max_examples=100, deadline=None)
@given(data=model_datasets(), order_seed=st.integers(0, 2**32 - 1))
def test_fits_are_invariant_to_the_order_of_standards_and_readings(data, order_seed):
    # Only the summation order changes, so the fits agree to rounding, not
    # bitwise.  Where the preparation errors dominate the response variance
    # the profile is flat in the slope and the maximizer moves by up to 2e-11
    # relative (worst of 20,000 datasets of this generator at sigma_eps2 =
    # 1e-3), hence 1e-10.  x0 is a location, so it is compared on the scale
    # of the standards' span.
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
        assert abs(t.x0 - u.x0) < 1e-10 * np.ptp(first.x_fixed)


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
