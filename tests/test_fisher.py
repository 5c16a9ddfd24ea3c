from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcal import (
    FirstStageData,
    NonPositiveVariance,
    SingularInformation,
    SlopeNearZero,
    Theta,
    fisher_information,
    variance_usual,
    variance_x0,
)

from conftest import rel_diff


def random_instance(rng, n_max=40):
    n = int(rng.integers(3, n_max))
    k = int(rng.integers(1, 50))
    first = FirstStageData(
        x_fixed=rng.uniform(-2, 5, n),
        y=rng.normal(size=n),
        delta_var=rng.uniform(0, 0.5, n),
    )
    theta = Theta(
        alpha=float(rng.uniform(-3, 3)),
        beta=float(rng.uniform(0.2, 8)) * float(rng.choice([-1.0, 1.0])),
        x0=float(rng.uniform(-2, 4)),
        sigma_eps2=float(rng.uniform(0.01, 2.0)),
    )
    return theta, first, k


def test_matrix_is_exactly_symmetric():
    theta, first, k = random_instance(np.random.default_rng(1))
    info = fisher_information(theta, first, k)
    assert np.array_equal(info, info.T)


def test_zero_cross_information_without_preparation_error():
    rng = np.random.default_rng(2)
    n, k = 6, 4
    first = FirstStageData(
        x_fixed=rng.uniform(0, 2, n), y=np.zeros(n), delta_var=np.zeros(n)
    )
    theta = Theta(alpha=0.3, beta=1.7, x0=0.9, sigma_eps2=0.05)
    info = fisher_information(theta, first, k)
    assert info[1, 3] == 0.0
    # top-left block equals the standard linear-model information
    x, s2, be, x0 = first.x_fixed, theta.sigma_eps2, theta.beta, theta.x0
    expected = np.array(
        [
            [(n + k) / s2, (np.sum(x) + k * x0) / s2, k * be / s2],
            [(np.sum(x) + k * x0) / s2, (np.sum(x**2) + k * x0**2) / s2, k * be * x0 / s2],
            [k * be / s2, k * be * x0 / s2, k * be**2 / s2],
        ]
    )
    assert np.allclose(info[:3, :3], expected, rtol=1e-13)


def test_leading_entry_hand_sum():
    first = FirstStageData(x_fixed=[0.5, 1.5], y=[0, 0], delta_var=[0.04, 0.09])
    theta = Theta(alpha=0.0, beta=2.0, x0=1.0, sigma_eps2=0.25)
    k = 3
    info = fisher_information(theta, first, k)
    g1 = 0.25 + 4 * 0.04
    g2 = 0.25 + 4 * 0.09
    assert info[0, 0] == pytest.approx(1 / g1 + 1 / g2 + k / 0.25, rel=1e-14)


def test_closed_form_variance_matches_matrix_inverse():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        theta, first, k = random_instance(rng)
        v_closed = variance_x0(theta, first, k)
        v_inverse = float(np.linalg.inv(fisher_information(theta, first, k))[2, 2])
        worst = max(worst, rel_diff(v_closed, v_inverse))
    assert worst < 1e-8


def exact_variance_x0(theta, first, k):
    """(x0, x0) entry of the inverse expected information, in exact rational
    arithmetic on the float inputs: the matrix is built entry by entry and
    solved by Gaussian elimination."""
    be, x0, s2 = (Fraction(float(v)) for v in (theta.beta, theta.x0, theta.sigma_eps2))
    x = [Fraction(float(v)) for v in first.x_fixed]
    dv = [Fraction(float(v)) for v in first.delta_var]
    w = [1 / (s2 + be * be * d) for d in dv]
    s1, sx, sxx = sum(w), sum(a * b for a, b in zip(x, w)), sum(a * a * b for a, b in zip(x, w))
    t1 = sum(b * b for b in w)
    td = sum(d * b * b for d, b in zip(dv, w))
    tdd = sum(d * d * b * b for d, b in zip(dv, w))
    info = [
        [s1 + k / s2, sx + k * x0 / s2, k * be / s2, 0],
        [sx + k * x0 / s2, sxx + 2 * be * be * tdd + k * x0 * x0 / s2, k * be * x0 / s2, be * td],
        [k * be / s2, k * be * x0 / s2, k * be * be / s2, 0],
        [0, be * td, 0, t1 / 2 + k / (2 * s2 * s2)],
    ]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == 2))] for i, row in enumerate(info)]
    for i in range(4):  # positive definite: no pivoting needed
        for j in range(i + 1, 4):
            f = rows[j][i] / rows[i][i]
            rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    v = [Fraction(0)] * 4
    for i in reversed(range(4)):
        v[i] = (rows[i][4] - sum(rows[i][j] * v[j] for j in range(i + 1, 4))) / rows[i][i]
    return float(v[2])


def test_closed_form_variance_matches_exact_inverse():
    rng = np.random.default_rng(5)
    cases = [random_instance(rng, n_max=21) for _ in range(40)]
    x = np.array([0.05, 0.11, 0.26, 0.79, 1.05])  # chromium-like steep calibration
    cases.append((
        Theta(alpha=124.0, beta=1e5, x0=0.083, sigma_eps2=9.6e4),
        FirstStageData(x_fixed=x, y=1e5 * x, delta_var=(0.0016 * (1 + 0.5 * x)) ** 2),
        3,
    ))
    # constant concentrations: only the preparation errors identify the slope
    cases.append((
        Theta(alpha=0.1, beta=2.0, x0=0.8, sigma_eps2=0.04),
        FirstStageData(x_fixed=[1.0] * 4, y=[2.1] * 4, delta_var=[0.01] * 4),
        2,
    ))
    for theta, first, k in cases:
        exact = exact_variance_x0(theta, first, k)
        assert np.isfinite(exact) and exact > 0
        assert rel_diff(variance_x0(theta, first, k), exact) < 1e-14


nonzero = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=st.floats(-10.0, 10.0), b=nonzero)
def test_variance_is_invariant_under_affine_response(seed, a, b):
    theta, first, k = random_instance(np.random.default_rng(seed), n_max=21)
    moved = Theta(a + b * theta.alpha, b * theta.beta, theta.x0, b * b * theta.sigma_eps2)
    first_moved = FirstStageData(first.x_fixed, a + b * first.y, first.delta_var)
    v = variance_x0(theta, first, k)
    assert rel_diff(variance_x0(moved, first_moved, k), v) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-10.0, 10.0), s=nonzero)
def test_variance_scales_under_concentration_shift_and_scale(seed, c, s):
    theta, first, k = random_instance(np.random.default_rng(seed), n_max=21)
    moved = Theta(theta.alpha - theta.beta * c / s, theta.beta / s, c + s * theta.x0,
                  theta.sigma_eps2)
    first_moved = FirstStageData(c + s * first.x_fixed, first.y, s * s * first.delta_var)
    v = variance_x0(theta, first, k)
    assert rel_diff(variance_x0(moved, first_moved, k), s * s * v) < 1e-12


def test_variance_reduces_to_usual_without_preparation_error():
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta, first, k = random_instance(rng)
        stripped = FirstStageData(first.x_fixed, first.y, np.zeros(first.n))
        assert rel_diff(
            variance_x0(theta, stripped, k), variance_usual(theta, stripped, k)
        ) < 1e-10


def test_large_design_variance_matches_tabulated_rounding():
    # the large-sample scenario rounds to 0.0000 / 0.0001 at four decimals
    n, k = 5000, 500
    first = FirstStageData(
        x_fixed=np.linspace(0, 2, n),
        y=np.zeros(n),
        delta_var=np.linspace(0.1 / n, 0.1, n),
    )
    for x0, expected in ((0.01, 0.0000), (0.8, 0.0000), (1.9, 0.0001)):
        v = variance_x0(Theta(0.1, 2.0, x0, 0.04), first, k)
        assert abs(v - expected) <= 5e-5


def test_degenerate_design_raises_singular_information():
    first = FirstStageData(x_fixed=[1.0, 1.0, 1.0], y=[0, 0, 0], delta_var=[0, 0, 0])
    with pytest.raises(SingularInformation):
        variance_x0(Theta(0.0, 2.0, 1.0, 0.04), first, 2)


def test_variance_rejects_zero_slope_and_bad_variance():
    first = FirstStageData(x_fixed=[0, 1, 2], y=[0, 1, 2], delta_var=[0.1, 0.1, 0.1])
    with pytest.raises(SlopeNearZero):
        variance_x0(Theta(0.0, 0.0, 1.0, 0.04), first, 2)
    with pytest.raises(NonPositiveVariance):
        variance_x0(Theta(0.0, 2.0, 1.0, 0.0), first, 2)
    with pytest.raises(NonPositiveVariance):
        fisher_information(Theta(0.0, 2.0, 1.0, -0.5), first, 2)
