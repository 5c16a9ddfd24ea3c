import numpy as np
import pytest

from hetcal import (
    AllReplicatesFailed,
    default_delta_vars,
    default_grid,
    generate_dataset,
    make_scenario,
    replicate_rng,
    run_scenario,
    simulate_replicates,
    theoretical_variances,
)


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
           dict(x_grid=[0.0, 0.5, inf, 1.5, 2.0])]
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
