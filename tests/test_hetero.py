import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetcal import (
    FirstStageData,
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
from hetcal.hetero import SCORE_TOL, _newton, _ProfiledObjective

from conftest import make_model_dataset, rel_diff


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
        obj = _ProfiledObjective(first, second)
        beta0, s20 = obj.beta_ls, obj.ss0 / obj.k
        for beta, s2 in ((beta0, s20), (1.1 * beta0, 3.0 * s20)):
            h_bb, h_bs, h_ss = obj.derivatives(beta, s2)[3:]
            hb, hs = 1e-6 * abs(beta), 1e-6 * s2
            # scores are -(dl/dbeta, 2 dl/ds2)
            up_b, down_b = obj.derivatives(beta + hb, s2), obj.derivatives(beta - hb, s2)
            up_s, down_s = obj.derivatives(beta, s2 + hs), obj.derivatives(beta, s2 - hs)
            assert h_bb == pytest.approx(-(up_b[0] - down_b[0]) / (2 * hb), rel=1e-6)
            assert h_bs == pytest.approx(-(up_s[0] - down_s[0]) / (2 * hs), rel=1e-6)
            assert h_bs == pytest.approx(-(up_b[1] - down_b[1]) / (4 * hb), rel=1e-6)
            assert h_ss == pytest.approx(-(up_s[1] - down_s[1]) / (4 * hs), rel=1e-6)


def test_log_variance_hessian_is_indefinite_at_lead_start(analytes):
    # The solver steps in (beta, log s2), where d2l/dv2 = s2^2 h_ss + s2 dl/ds2.
    # An indefinite Hessian there is what the Levenberg shift handles.
    first, second = analytes["lead"]
    obj = _ProfiledObjective(first, second)
    beta, s2 = obj.beta_ls, obj.ss0 / obj.k
    _, r_sigma, _, h_bb, h_bs, h_ss = obj.derivatives(beta, s2)
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


def test_distant_start_reaches_same_optimum(analytes):
    first, second = analytes["chromium"]
    base = fit_hetero(first, second)
    obj = _ProfiledObjective(first, second)
    beta, s2, scaled, _, _ = _newton(obj, 1.1e5, 5e4, 1.1e5)
    assert scaled < SCORE_TOL
    assert rel_diff(beta, base.theta_hat.beta) < 1e-9
    assert rel_diff(s2, base.theta_hat.sigma_eps2) < 1e-7


def test_iteration_cap_reports_nonconvergence(analytes, monkeypatch):
    monkeypatch.setattr(hetero, "MAX_ITERATIONS", 1)
    res = fit_hetero(*analytes["lead"])
    assert not res.converged
    assert res.iterations == 1
    t = res.theta_hat
    assert all(math.isfinite(v) for v in (t.alpha, t.beta, t.x0, t.sigma_eps2, res.var_x0))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    k=st.integers(2, 8),
    beta=st.floats(0.5, 50.0) | st.floats(-50.0, -0.5),
    x0=st.floats(0.0, 2.0),
    sigma_eps2=st.floats(1e-3, 1.0),
    dv_max=st.floats(0.0, 0.2),
)
def test_converged_fit_is_certified_by_public_functions(seed, n, k, beta, x0, sigma_eps2,
                                                        dv_max):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0, n)
    dv = rng.uniform(0.0, dv_max, n)
    noise = math.sqrt(sigma_eps2)
    y = 1.0 + beta * (x - rng.standard_normal(n) * np.sqrt(dv)) + rng.standard_normal(n) * noise
    y0 = 1.0 + beta * x0 + rng.standard_normal(k) * noise
    first, second = FirstStageData(x, y, dv), SecondStageData(y0)
    res = fit_hetero(first, second)
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
