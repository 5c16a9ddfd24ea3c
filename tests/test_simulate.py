import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetcal import (
    AllReplicatesFailed,
    FirstStageData,
    NonFiniteValue,
    ReplicateTable,
    SecondStageData,
    default_delta_vars,
    default_grid,
    fit_hetero,
    fit_usual,
    generate_dataset,
    make_scenario,
    replicate_rng,
    run_scenario,
    simulate_replicates,
    theoretical_variances,
)
from hetcal import hetero, simulate
from hetcal.data import DataStack


# ------------------------------------------------------- design rules


def test_default_grid_five_points():
    assert np.array_equal(default_grid(5), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_default_grid_two_points():
    assert np.array_equal(default_grid(2), [0.0, 2.0])


def test_default_grid_endpoint_is_exact():
    g = default_grid(20)
    assert g[-1] == 2.0
    assert np.allclose(np.diff(g), 2.0 / 19.0, rtol=1e-15)
    with pytest.raises(ValueError):
        default_grid(1)


def test_default_delta_vars_five():
    assert default_delta_vars(5) == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.10], rel=1e-15)


def test_default_delta_vars_single():
    assert np.array_equal(default_delta_vars(1), [0.1])


@pytest.mark.parametrize("n", [1, 2, 5, 17, 100])
def test_default_delta_vars_maximum_exact(n):
    assert default_delta_vars(n)[-1] == 0.1
    assert default_delta_vars(n).max() == 0.1


# --------------------------------------------------------- generation


def test_generate_noiseless_is_exact_line():
    cfg = make_scenario(n=5, k=3, x0=0.8, sigma_eps2=0.0, delta_vars=np.zeros(5),
                        n_reps=1, seed=1)
    first, second = generate_dataset(cfg, replicate_rng(cfg.seed, 0))
    assert np.array_equal(first.y, cfg.alpha_true + cfg.beta_true * cfg.x_grid)
    assert np.all(second.y0 == cfg.alpha_true + cfg.beta_true * 0.8)


def test_generate_is_deterministic_per_seed_and_replicate():
    cfg = make_scenario(n=8, k=4, x0=1.2, n_reps=10, seed=99)
    a1, b1 = generate_dataset(cfg, replicate_rng(cfg.seed, 3))
    a2, b2 = generate_dataset(cfg, replicate_rng(cfg.seed, 3))
    assert np.array_equal(a1.y, a2.y) and np.array_equal(b1.y0, b2.y0)
    a3, _ = generate_dataset(cfg, replicate_rng(cfg.seed, 4))
    assert not np.array_equal(a1.y, a3.y)


def test_generate_moments_of_preparation_error():
    # with zero response error the residual against the recorded value is
    # -beta * delta, so the preparation error is observable; its first two
    # moments must match the configured variances at three standard errors
    dv = np.array([0.05, 0.1, 0.02])
    cfg = make_scenario(n=3, k=2, x0=0.5, sigma_eps2=0.0, delta_vars=dv,
                        x_grid=np.array([0.0, 2.0, 1.0]), n_reps=1, seed=5)
    reps = 100_000
    rng = replicate_rng(cfg.seed, 0)
    deltas = np.empty((reps, 3))
    for r in range(reps):
        first, _ = generate_dataset(cfg, rng)
        resid = first.y - cfg.alpha_true - cfg.beta_true * cfg.x_grid
        deltas[r] = -resid / cfg.beta_true
    mean = deltas.mean(axis=0)
    var = deltas.var(axis=0)
    assert np.all(np.abs(mean) < 3 * np.sqrt(dv / reps))
    assert np.all(np.abs(var - dv) < 3 * dv * np.sqrt(2.0 / reps))


# --------------------------------------------------------- scenarios


def test_config_validation():
    with pytest.raises(ValueError):
        make_scenario(n=5, k=2, x0=0.5, x_grid=np.zeros(4))
    with pytest.raises(ValueError):
        make_scenario(n=5, k=2, x0=0.5, n_reps=0)
    with pytest.raises(ValueError):
        make_scenario(n=5, k=2, x0=0.5, ci_level=1.0)
    # scenarios that cannot produce a fittable dataset
    nan, inf = float("nan"), float("inf")
    bad = [dict(sigma_eps2=-0.04), dict(sigma_eps2=nan), dict(sigma_eps2=inf),
           dict(x0=nan), dict(x0=inf), dict(alpha=nan), dict(beta=-inf), dict(k=1),
           dict(n=2, x_grid=[0.0, 2.0], delta_vars=[0.0, 0.1]),
           dict(delta_vars=[0.1, -0.1, 0.1, 0.1, 0.1]),
           dict(delta_vars=[0.1, nan, 0.1, 0.1, 0.1]),
           dict(x_grid=[0.0, 0.5, inf, 1.5, 2.0]), dict(x_grid=[1.0] * 5),
           dict(beta=0.0), dict(beta=-0.0), dict(alpha=0.1, beta=1e-20)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            make_scenario(**{**dict(n=5, k=2, x0=0.5), **kwargs})
    make_scenario(n=5, k=2, x0=0.5, sigma_eps2=0.0)  # noiseless stays valid


def test_noiseless_scenario_recovers_exactly():
    cfg = make_scenario(n=5, k=2, x0=0.8, sigma_eps2=0.0, delta_vars=np.zeros(5),
                        n_reps=4, seed=2)
    s = run_scenario(cfg)
    for agg in (s.usual, s.proposed):
        assert agg.bias == 0.0
        assert agg.mse == 0.0
        assert agg.coverage_pct == 100.0
    assert s.n_failed == 0


def test_single_replicate_noiseless():
    cfg = make_scenario(n=5, k=2, x0=1.1, sigma_eps2=0.0, delta_vars=np.zeros(5),
                        n_reps=1, seed=3)
    s = run_scenario(cfg)
    assert s.proposed.bias == 0.0 and s.proposed.mse == 0.0


def test_mse_dominates_squared_bias():
    cfg = make_scenario(n=5, k=2, x0=0.8, n_reps=300, seed=17)
    s = run_scenario(cfg)
    for agg in (s.usual, s.proposed):
        assert agg.mse >= agg.bias**2 - 1e-12


def test_summary_is_deterministic_and_thread_invariant():
    cfg = make_scenario(n=5, k=2, x0=1.9, n_reps=60, seed=31)
    assert run_scenario(cfg) == run_scenario(cfg)


def test_theoretical_variances_are_plugin_formulas():
    cfg = make_scenario(n=5, k=2, x0=0.8, n_reps=1, seed=0)
    v_u, v_p = theoretical_variances(cfg)
    assert v_u == pytest.approx(0.00716, rel=1e-10)
    assert v_p == pytest.approx(0.0167, abs=5e-5)


def test_all_replicates_failed_raises():
    # zero response error with nonzero preparation error: the sample readings
    # are identical, so every heteroscedastic fit hits the variance boundary
    cfg = make_scenario(n=5, k=3, x0=0.8, sigma_eps2=0.0, n_reps=5, seed=8)
    with pytest.raises(AllReplicatesFailed):
        run_scenario(cfg)


def test_failures_are_counted_and_excluded():
    cfg = make_scenario(n=5, k=3, x0=0.8, sigma_eps2=0.0, n_reps=5, seed=8)
    table = simulate_replicates(cfg)
    assert np.all(table.failed)
    assert np.all(np.isnan(table.err_proposed))


@pytest.mark.parametrize("n, k, n_reps, lanes", [(5, 2, 60, True), (20, 20, 60, True),
                                                 (100, 2, 60, True), (5000, 20, 8, False)])
def test_each_replicate_reports_the_interval_of_its_own_fits(n, k, n_reps, lanes):
    # the table reads every replicate's half-width and coverage from the
    # interval its fits report, not from a second derivation of it; fitted
    # as lanes or replicate by replicate, it equals fit_usual and fit_hetero
    # on each replicate's dataset exactly
    assert (simulate.LANE_ELEMENTS // (2 * n + k) >= 2) == lanes
    cfg = make_scenario(n=n, k=k, x0=0.8, n_reps=n_reps, seed=7)
    table = simulate_replicates(cfg)
    assert not table.failed.any()
    for rep in range(cfg.n_reps):
        first, second = generate_dataset(cfg, replicate_rng(cfg.seed, rep))
        for fit, err, var, half, covered in (
            (fit_usual, table.err_usual, table.var_usual, table.halfwidth_usual,
             table.covered_usual),
            (fit_hetero, table.err_proposed, table.var_proposed, table.halfwidth_proposed,
             table.covered_proposed),
        ):
            res = fit(first, second, level=cfg.ci_level)
            assert err[rep] == res.theta_hat.x0 - cfg.x0_true
            assert var[rep] == res.var_x0
            assert half[rep] == (res.ci_upper - res.ci_lower) / 2.0
            assert covered[rep] == (res.ci_lower <= cfg.x0_true <= res.ci_upper)


def test_huge_slope_theoretical_variance_raises_non_finite_value():
    # beta * beta overflows, so every weight 1 / gamma of variance_x0 vanishes
    with pytest.raises(NonFiniteValue, match="not representable"):
        theoretical_variances(make_scenario(n=5, k=2, x0=0.8, beta=1e200, n_reps=1))


def test_small_response_unit_scenario_fits_every_replicate():
    # beta = 1e-11 with sigma = 0.2 beta: the variance score, in units of
    # 1 / sigma_eps2, is judged against its own terms, so no replicate reads
    # unconverged from rounding
    cfg = make_scenario(5, 2, 0.8, beta=1e-11, sigma_eps2=(0.2e-11) ** 2, n_reps=50, seed=1)
    assert not simulate_replicates(cfg).failed.any()


def test_tiny_slope_gets_finite_theoretical_variances():
    # the design the variances are evaluated on carries the scenario's own
    # responses, so the slope is judged against their spread
    v_u, v_p = theoretical_variances(make_scenario(n=5, k=2, x0=0.8, beta=1e-13, n_reps=1))
    assert 0.0 < v_u < math.inf and 0.0 < v_p < math.inf


def test_accuracy_ladder_trend():
    # growing both stages shrinks the error and moves coverage toward nominal
    mses = []
    coverages = []
    for n, k, seed in ((5, 2, 41), (20, 20, 42), (100, 100, 43)):
        s = run_scenario(make_scenario(n=n, k=k, x0=1.9, n_reps=250, seed=seed))
        mses.append(s.proposed.mse)
        coverages.append(s.proposed.coverage_pct)
    assert mses[0] > mses[1] > mses[2]
    assert abs(coverages[2] - 95.0) <= abs(coverages[0] - 95.0) + 1.0


def test_mean_estimated_variance_tracks_theoretical_at_scale():
    cfg = make_scenario(n=100, k=100, x0=0.8, n_reps=200, seed=44)
    s = run_scenario(cfg)
    assert s.proposed.mean_est_var == pytest.approx(
        s.theoretical_var_proposed, rel=0.15
    )


def _assert_same_table(a: ReplicateTable, b: ReplicateTable):
    for f in dataclasses.fields(ReplicateTable):
        u, v = getattr(a, f.name), getattr(b, f.name)
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), f.name  # bit for bit


@pytest.mark.parametrize("max_iterations", [hetero.MAX_ITERATIONS, 3])
def test_chunked_lanes_give_the_table_of_one_chunk(monkeypatch, max_iterations):
    # with at most 3 Newton steps some replicates fail unconverged, in
    # whichever chunk they fall
    monkeypatch.setattr(hetero, "MAX_ITERATIONS", max_iterations)
    cfg = make_scenario(n=5, k=2, x0=0.8, n_reps=50, seed=7)
    whole = simulate_replicates(cfg)
    assert simulate.LANE_ELEMENTS // 12 >= cfg.n_reps  # one chunk
    # chunks of 7 lanes, and a last chunk of one replicate fitted alone
    monkeypatch.setattr(simulate, "LANE_ELEMENTS", 7 * 12 + 11)
    chunked = simulate_replicates(cfg)
    _assert_same_table(whole, chunked)
    assert whole.failed.any() == (max_iterations == 3)


@st.composite
def design_stacks(draw):
    """m datasets on one design drawn from the heteroscedastic model, one
    per row, from the ranges of ``model_datasets``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k, m = draw(st.integers(3, 12)), draw(st.integers(2, 8)), draw(st.integers(1, 12))
    beta = draw(st.floats(0.5, 50.0) | st.floats(-50.0, -0.5))
    x0, sigma_eps2 = draw(st.floats(0.0, 2.0)), draw(st.floats(1e-3, 1.0))
    x = np.linspace(0.0, 2.0, n)
    dv = rng.uniform(0.0, draw(st.floats(0.0, 0.2)), n)
    noise = math.sqrt(sigma_eps2)
    y = (1.0 + beta * (x - rng.standard_normal((m, n)) * np.sqrt(dv))
         + rng.standard_normal((m, n)) * noise)
    y0 = 1.0 + beta * x0 + rng.standard_normal((m, k)) * noise
    return x, dv, y, y0


@settings(max_examples=100, deadline=None)
@given(stack=design_stacks(), max_iterations=st.sampled_from([hetero.MAX_ITERATIONS, 1, 2, 4]),
       order_seed=st.integers(0, 2**32 - 1))
def test_a_lane_reports_its_own_fits_in_any_stack(stack, max_iterations, order_seed):
    # each lane's (x0, var_x0, ci) of both fits, and whether it fails, are
    # those of its dataset fitted alone, bit for bit, whatever the stack's
    # size and order; capping the Newton steps makes some lanes fail
    x, dv, y, y0 = stack
    data = DataStack(x, dv, y, y0)
    assume(np.all(data.ss0 > 0.0))  # identical readings are fitted alone
    m = y.shape[0]
    rng = np.random.default_rng(order_seed)
    order, part = rng.permutation(m), rng.choice(m, size=rng.integers(1, m + 1), replace=False)
    with patch.object(hetero, "MAX_ITERATIONS", max_iterations):
        whole = simulate._fit_stack(data, 0.95)
        alone = np.array([simulate._fit_replicate(0.95, lambda: (
            FirstStageData(x, y[i], dv), SecondStageData(y0[i]))) * np.ones((2, 4))
            for i in range(m)])
        shuffled = simulate._fit_stack(data.take(order), 0.95)
        subset = simulate._fit_stack(DataStack(x, dv, y[part], y0[part]), 0.95)
    assert np.array_equal(whole.view(np.uint64), alone.view(np.uint64))
    assert np.array_equal(shuffled.view(np.uint64), whole[order].view(np.uint64))
    assert np.array_equal(subset.view(np.uint64), whole[part].view(np.uint64))
