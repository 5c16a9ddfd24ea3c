import math

import numpy as np
import pytest

from hetcal import (
    FirstStageData,
    InvalidLevel,
    NonFiniteValue,
    NonPositiveVariance,
    SecondStageData,
    SlopeNearZero,
    Theta,
    confidence_interval,
    fit_usual,
    variance_usual,
)

from conftest import make_model_dataset

# published reference estimates for the bundled datasets, classical model
REFERENCE = {
    "chromium": (134.9469, 123003.7, 0.08302691, 4.357870e-06, 0.004091601),
    "cadmium": (0.454801, 10.54381, 0.08123556, 7.898643e-05, 0.01741936),
    "lead": (-0.3822126, 94.29881, 0.05770535, 1.181068e-04, 0.02130068),
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_reference_estimates(analytes, name):
    first, second = analytes[name]
    res = fit_usual(first, second)
    alpha, beta, x0, var, expanded = REFERENCE[name]
    assert res.theta_hat.alpha == pytest.approx(alpha, rel=1e-6)
    assert res.theta_hat.beta == pytest.approx(beta, rel=1e-6)
    assert res.theta_hat.x0 == pytest.approx(x0, rel=1e-6)
    assert res.var_x0 == pytest.approx(var, rel=1e-6)
    assert res.expanded_uncertainty == pytest.approx(expanded, rel=1e-6)
    assert res.converged and res.iterations == 0


def test_noiseless_exact_recovery():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[1, 3, 5], delta_var=[0, 0, 0])
    second = SecondStageData(y0=[3, 3])
    res = fit_usual(first, second)
    assert res.theta_hat.alpha == pytest.approx(1.0, abs=1e-14)
    assert res.theta_hat.beta == pytest.approx(2.0, abs=1e-14)
    assert res.theta_hat.x0 == pytest.approx(1.0, abs=1e-14)
    assert res.theta_hat.sigma_eps2 == pytest.approx(0.0, abs=1e-28)
    assert res.var_x0 == pytest.approx(0.0, abs=1e-28)
    assert res.ci_lower == pytest.approx(res.ci_upper)


def grid_design():
    return FirstStageData(
        x_fixed=[0, 0.5, 1.0, 1.5, 2.0], y=[0, 1, 2, 3, 4], delta_var=[0] * 5
    )


def test_variance_hand_value():
    # sigma^2/beta^2 * (1/k + 1/n + (xbar-x0)^2/(n*Sxx)) with Sxx = 0.5
    theta = Theta(alpha=0.0, beta=2.0, x0=0.8, sigma_eps2=0.04)
    v = variance_usual(theta, grid_design(), k=2)
    assert v == pytest.approx(0.01 * (1 / 2 + 1 / 5 + 0.04 / (5 * 0.5)), rel=1e-14)


def test_variance_at_design_center_drops_quadratic_term():
    theta = Theta(alpha=0.0, beta=2.0, x0=1.0, sigma_eps2=0.04)
    v = variance_usual(theta, grid_design(), k=2)
    assert v == pytest.approx(0.04 / 4 * (1 / 2 + 1 / 5), rel=1e-14)


def test_variance_zero_when_no_response_error():
    theta = Theta(alpha=0.0, beta=2.0, x0=0.3, sigma_eps2=0.0)
    assert variance_usual(theta, grid_design(), k=2) == 0.0


def test_variance_rejects_negative_response_variance():
    # the formula alone returns a negative variance
    theta = Theta(alpha=0.0, beta=2.0, x0=0.3, sigma_eps2=-0.1)
    with pytest.raises(NonPositiveVariance, match="nonnegative"):
        variance_usual(theta, grid_design(), k=2)


def test_variance_rejects_zero_slope():
    theta = Theta(alpha=0.0, beta=0.0, x0=0.3, sigma_eps2=0.04)
    with pytest.raises(SlopeNearZero):
        variance_usual(theta, grid_design(), k=2)


def test_confidence_interval_zero_variance_degenerates():
    assert confidence_interval(0.8, 0.0, 0.95) == (0.8, 0.8)


def test_confidence_interval_standard_normal_quantile():
    lo, hi = confidence_interval(0.0, 1.0, 0.95)
    assert hi == pytest.approx(1.959964, abs=5e-7)
    assert lo == -hi


def test_confidence_interval_rejects_bad_level():
    for level in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidLevel):
            confidence_interval(0.0, 1.0, level)


@pytest.mark.parametrize("x0_hat, var_x0, error, match", [
    (1.0, math.nan, NonFiniteValue, "var_x0"),
    (math.inf, 1.0, NonFiniteValue, "x0_hat"),
    (math.nan, 1.0, NonFiniteValue, "x0_hat"),
    (1.0, math.inf, NonFiniteValue, "var_x0"),
    (1.0, -1.0, ValueError, "var_x0 must be nonnegative"),
])
def test_confidence_interval_rejects_a_non_finite_or_negative_input(x0_hat, var_x0, error,
                                                                    match):
    # unchecked, these gave (nan, nan), (inf, inf) and (-inf, inf)
    with pytest.raises(error, match=match):
        confidence_interval(x0_hat, var_x0)


def test_expanded_uncertainty_uses_fixed_factor(analytes):
    res = fit_usual(*analytes["chromium"])
    assert res.expanded_uncertainty == 1.96 * math.sqrt(res.var_x0)
    # at the 95% level the expansion factor and the exact quantile agree to 5 decimals
    half = res.ci_upper - res.theta_hat.x0
    assert res.expanded_uncertainty == pytest.approx(half, rel=1e-4)


def test_fitted_line_passes_through_sample_mean(analytes):
    for first, second in analytes.values():
        res = fit_usual(first, second)
        t = res.theta_hat
        assert t.alpha + t.beta * t.x0 == pytest.approx(second.y0.mean(), rel=1e-13)


def test_response_affine_equivariance():
    rng = np.random.default_rng(11)
    first, second, _ = make_model_dataset(rng)
    base = fit_usual(first, second)
    c, d = 3.75, -12.0
    scaled = fit_usual(
        FirstStageData(first.x_fixed, c * first.y + d, first.delta_var),
        SecondStageData(c * second.y0 + d),
    )
    assert scaled.theta_hat.alpha == pytest.approx(c * base.theta_hat.alpha + d, rel=1e-11, abs=1e-11)
    assert scaled.theta_hat.beta == pytest.approx(c * base.theta_hat.beta, rel=1e-12)
    assert scaled.theta_hat.x0 == pytest.approx(base.theta_hat.x0, rel=1e-11)
    assert scaled.theta_hat.sigma_eps2 == pytest.approx(
        c**2 * base.theta_hat.sigma_eps2, rel=1e-11
    )


def test_residual_orthogonality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        first, second, _ = make_model_dataset(rng)
        res = fit_usual(first, second)
        r = first.y - res.theta_hat.alpha - res.theta_hat.beta * first.x_fixed
        scale = float(np.sum(np.abs(first.y))) + 1.0
        assert abs(np.sum(r)) < 1e-10 * scale
        assert abs(np.sum(first.x_fixed * r)) < 1e-10 * scale * float(np.max(np.abs(first.x_fixed)))


def test_matches_independent_normal_equations_solve():
    rng = np.random.default_rng(13)
    for _ in range(25):
        first, second, _ = make_model_dataset(rng)
        res = fit_usual(first, second)
        x, y = first.x_fixed, first.y
        n = x.size
        lhs = np.array([[n, x.sum()], [x.sum(), np.sum(x * x)]])
        rhs = np.array([y.sum(), np.sum(x * y)])
        alpha_ls, beta_ls = np.linalg.solve(lhs, rhs)
        assert res.theta_hat.alpha == pytest.approx(alpha_ls, rel=1e-9, abs=1e-9)
        assert res.theta_hat.beta == pytest.approx(beta_ls, rel=1e-9)


def test_flat_responses_raise_slope_near_zero():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[5.0, 5.0, 5.0], delta_var=[0] * 3)
    with pytest.raises(SlopeNearZero):
        fit_usual(first, SecondStageData(y0=[5.0, 5.0]))


def test_huge_slope_variance_does_not_overflow():
    # the slope is squared by multiplication: a float power raised
    # OverflowError above |beta| of about 1e154
    first = FirstStageData(x_fixed=[0, 1, 2], y=[0.0, 1e200, 2e200], delta_var=[0] * 3)
    assert 0.0 <= variance_usual(Theta(0.1, 1e200, 0.8, 0.04), first, 2) < math.inf


def test_unrepresentable_fit_raises_non_finite_value():
    # responses near 1e160: the residual sum of squares overflows to inf
    x = np.linspace(0.0, 2.0, 5)
    scatter = np.array([0.03, -0.05, 0.02, 0.04, -0.03])
    first = FirstStageData(x, 1e160 * (0.1 + 2.0 * x + scatter), np.full(5, 1e-4))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
        fit_usual(first, SecondStageData([3e160, 3.2e160]))
