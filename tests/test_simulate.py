import dataclasses
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcal import (
    AllReplicatesFailed,
    CalibrationError,
    FirstStageData,
    NonFiniteValue,
    NonPositiveVariance,
    ReplicateTable,
    SecondStageData,
    SingularInformation,
    SlopeNearZero,
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
    # one block draw of the replicates that generate_dataset draws one by one
    z = replicate_rng(cfg.seed, 0).standard_normal((reps, 2 * cfg.n + cfg.k))
    y, y0 = simulate._responses(cfg, z)
    rng = replicate_rng(cfg.seed, 0)
    for r in range(3):
        first, second = generate_dataset(cfg, rng)
        assert np.array_equal(first.y, y[r]) and np.array_equal(second.y0, y0[r])
    deltas = -(y - cfg.alpha_true - cfg.beta_true * cfg.x_grid) / cfg.beta_true
    mean = deltas.mean(axis=0)
    var = deltas.var(axis=0)
    assert np.all(np.abs(mean) < 3 * np.sqrt(dv / reps))
    assert np.all(np.abs(var - dv) < 3 * dv * np.sqrt(2.0 / reps))


# --------------------------------------------------------- scenarios


NAN, INF = float("nan"), float("inf")


def rejected(match, **kwargs):
    """A scenario of (5, 2, x0 0.5) with ``kwargs``, and what its error says."""
    return pytest.param(kwargs, match, id=",".join(f"{k}={v}" for k, v in kwargs.items()))


@pytest.mark.parametrize("kwargs, match", [
    rejected("x_grid has 4 entries, n is 5", x_grid=np.zeros(4)),
    rejected("delta_vars has 4 entries, n is 5", delta_vars=[0.1] * 4),
    rejected("n_reps must be >= 1, got 0", n_reps=0),
    rejected("confidence level must be in (0, 1), got 1.0", ci_level=1.0),
    rejected("confidence level must be in (0, 1), got nan", ci_level=NAN),
    rejected("confidence level 0.9999999999999999 is too close to 1",
             ci_level=0.9999999999999999),
    rejected("sigma_eps2 must be nonnegative, got -0.04", sigma_eps2=-0.04),
    rejected("sigma_eps2 must be finite, got nan", sigma_eps2=NAN),
    rejected("sigma_eps2 must be finite, got inf", sigma_eps2=INF),
    rejected("x0 must be finite, got nan", x0=NAN),
    rejected("x0 must be finite, got inf", x0=INF),
    rejected("alpha must be finite, got nan", alpha=NAN),
    rejected("beta must be finite, got -inf", beta=-INF),
    rejected("k must be >= 2, got 1", k=1),
    rejected("n must be >= 3, got 2", n=2, x_grid=[0.0, 2.0], delta_vars=[0.0, 0.1]),
    # the default design is not built of an n too small for a fit
    rejected("n must be >= 3, got 1", n=1),
    rejected("delta_vars[1] = -0.1 is not", delta_vars=[0.1, -0.1, 0.1, 0.1, 0.1]),
    rejected("delta_vars[1] = nan is not", delta_vars=[0.1, NAN, 0.1, 0.1, 0.1]),
    rejected("x_grid[2] = inf is not", x_grid=[0.0, 0.5, INF, 1.5, 2.0]),
    rejected("all standard concentrations are identical", x_grid=[1.0] * 5),
    rejected("slope 0.0 is numerically zero", beta=0.0),
    rejected("slope -0.0 is numerically zero", beta=-0.0),
    rejected("slope 1e-20 is numerically zero", alpha=0.1, beta=1e-20),
    rejected("seed must be >= 0, got -1", seed=-1),
    pytest.param(dict(x_grid=default_grid(4), delta_vars=default_delta_vars(4)),
                 "x_grid has 4 entries, n is 5", id="x_grid=default_grid(4)"),
])
def test_a_rejected_scenario_names_its_field(kwargs, match):
    # scenarios that cannot produce a fittable dataset, each rejected by the
    # package's own rule for its field
    with pytest.raises(ValueError, match=re.escape(match)):
        make_scenario(**{**dict(n=5, k=2, x0=0.5), **kwargs})


def test_config_validation():
    make_scenario(n=5, k=2, x0=0.5, sigma_eps2=0.0)  # noiseless stays valid
    # a rejected parameter is reported as the scenario's, with the package's error as cause
    with pytest.raises(ValueError, match="^scenario: sigma_eps2 must be nonnegative") as info:
        make_scenario(n=5, k=2, x0=0.5, sigma_eps2=-0.04)
    assert isinstance(info.value.__cause__, NonPositiveVariance)


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: make_scenario(5, 2, 0.8, seed=1.5), "seed must be an integer, got 1.5",
                 id="seed=1.5"),
    pytest.param(lambda: make_scenario(5, 2, 0.8, n_reps=2.5), "n_reps must be an integer",
                 id="n_reps=2.5"),
    pytest.param(lambda: make_scenario(5, 2.5, 0.8), "k must be an integer", id="k=2.5"),
    pytest.param(lambda: make_scenario(5.0, 2, 0.8), "n must be an integer", id="n=5.0"),
    pytest.param(lambda: make_scenario(5.0, 2, 0.8, x_grid=default_grid(5),
                                       delta_vars=default_delta_vars(5)),
                 "n must be an integer", id="n=5.0-own-grid"),
    pytest.param(lambda: make_scenario(5, 0, 0.8), "k must be >= 2", id="k=0"),
    # a bool is an int to Python: n_reps=True failed inside numpy, seed=True ran as seed 1
    pytest.param(lambda: make_scenario(5, 2, 0.8, n_reps=True), "n_reps must be an integer, "
                 "got True", id="n_reps=True"),
    pytest.param(lambda: make_scenario(5, 2, 0.8, seed=True), "seed must be an integer, got True",
                 id="seed=True"),
    pytest.param(lambda: default_grid(2.0), "n must be an integer", id="grid-n=2.0"),
    pytest.param(lambda: default_grid(1), "n must be >= 2", id="grid-n=1"),
    pytest.param(lambda: default_delta_vars(2.5), "n must be an integer", id="delta-vars-n=2.5"),
    pytest.param(lambda: default_delta_vars(0), "n must be >= 1, got 0", id="delta-vars-n=0"),
])
def test_counts_must_be_integers(build, match):
    # seed=1.5 ran as seed 1; the other non-integers failed inside numpy
    with pytest.raises(ValueError, match=match):
        build()


def test_replicate_rng_takes_integers_only():
    # int(seed) ran a float seed as its truncation
    draws = replicate_rng(1, 0).standard_normal(3)
    assert np.array_equal(replicate_rng(np.int64(1), np.uint8(0)).standard_normal(3), draws)
    for seed in (1.5, 1.0, "1", True):  # a bool is an int to Python: True ran as seed 1
        with pytest.raises(TypeError):
            replicate_rng(seed, 0)
    for rep in (0.0, False):
        with pytest.raises(TypeError):
            replicate_rng(1, rep)


def test_numpy_integer_counts_are_counts():
    cfg = make_scenario(np.int64(5), np.int32(2), 0.8, n_reps=np.int64(3), seed=np.uint8(1))
    assert (cfg.n, cfg.k, cfg.n_reps, cfg.seed) == (5, 2, 3, 1)


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
    # a failed replicate is NaN in every field of both fits, and covers nothing
    for values in (table.err_usual, table.err_proposed, table.var_usual, table.var_proposed,
                   table.halfwidth_usual, table.halfwidth_proposed):
        assert np.all(np.isnan(values))
    assert not table.covered_usual.any() and not table.covered_proposed.any()


@pytest.mark.parametrize("n, k, n_reps, lanes, noise", [
    pytest.param(*case, {}, id="-".join(map(str, case)))
    for case in ((5, 2, 60, True), (20, 20, 60, True), (100, 2, 60, True), (5000, 20, 8, False),
                 (100, 2, 84, True))  # chunks of 81 and 3, the 3 too few for lanes
] + [
    # an exact line with identical readings, whose replicates are fitted alone
    pytest.param(5, 2, 4, True, dict(sigma_eps2=0.0, delta_vars=np.zeros(5)), id="noiseless"),
])
@pytest.mark.bitwise
def test_each_replicate_reports_the_interval_of_its_own_fits(n, k, n_reps, lanes, noise):
    # the table forms every replicate's interval, and reads its half-width
    # and coverage from it; fitted as lanes or replicate by replicate, that
    # interval is the one fit_usual and fit_hetero report on each
    # replicate's dataset, bit for bit
    assert (simulate.LANE_ELEMENTS // (2 * n + k) >= simulate.LANE_MIN) == lanes
    cfg = make_scenario(n=n, k=k, x0=0.8, n_reps=n_reps, seed=7, **noise)
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
            _assert_same_bits(np.array([err[rep], var[rep], half[rep]]),
                              np.array([res.theta_hat.x0 - cfg.x0_true, res.var_x0,
                                        (res.ci_upper - res.ci_lower) / 2.0]))
            assert covered[rep] == (res.ci_lower <= cfg.x0_true <= res.ci_upper)


def test_huge_slope_theoretical_variance_raises_non_finite_value():
    # beta * beta overflows, so every weight 1 / gamma of variance_x0 vanishes.
    # At 1e308 beta * x overflows too: the variances are read on the design
    # the scenario built, whose noiseless responses are capped, so no
    # RuntimeWarning (an error under pyproject.toml) comes first
    for beta in (1e200, 1e308):
        with pytest.raises(NonFiniteValue, match="variance is not representable"):
            theoretical_variances(make_scenario(n=5, k=2, x0=0.8, beta=beta, n_reps=1))


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
@pytest.mark.bitwise
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


@pytest.mark.bitwise
def test_a_scenario_makes_one_workspace():
    # chunks of 81, 81 and 3 replicates: the lanes of the first two and the
    # replicates of the last, fitted alone, all run in the scenario's workspace.
    # n = 3000, k = 2 gives chunks of 2, too short for lanes: every replicate
    # is fitted alone, so the workspace has one lane
    short = make_scenario(n=3000, k=2, x0=0.8, n_reps=5, seed=7)
    assert simulate.LANE_ELEMENTS // (2 * short.n + short.k) == 2 < simulate.LANE_MIN
    cfg = make_scenario(n=100, k=2, x0=0.8, n_reps=165, seed=7)
    assert simulate.LANE_ELEMENTS // (2 * cfg.n + cfg.k) == 81
    assert cfg.n_reps - 2 * 81 < simulate.LANE_MIN
    workspace = hetero.workspace
    for scenario, lanes in ((cfg, 81), (short, 1)):
        shapes = []

        def counted(*shape):
            shapes.append(shape)
            return workspace(*shape)

        with patch.object(hetero, "workspace", counted), patch.object(simulate, "workspace",
                                                                      counted):
            table = simulate_replicates(scenario)
        assert shapes == [(lanes, scenario.n)]
        assert not table.failed.any()


@st.composite
def design_stacks(draw):
    """m datasets on one design drawn from the heteroscedastic model, one
    per row, from the ranges of ``model_datasets``.  In some stacks, rows
    get identical readings, on their noisy responses (the exact fit fails)
    or on an exact line (it holds)."""
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
    kind = rng.integers(0, 3, m) if draw(st.booleans()) else np.zeros(m)
    y0[kind > 0] = round(1.0 + beta * x0)  # an integer, so the readings' mean is exact
    y[kind == 2] = 1.0 + beta * x
    return x, dv, y, y0


def _own_fits(x, dv, y, y0):
    """What ``fit_usual`` and ``fit_hetero`` report on each dataset
    ``(x, y[i], dv)``, ``y0[i]`` built as containers, as (m, usual/proposed,
    x0/var_x0); NaN where either fit raises or the proposed fit does not
    converge."""
    out = np.full((len(y), 2, 2), np.nan)
    for i in range(len(y)):
        first, second = FirstStageData(x, y[i], dv), SecondStageData(y0[i])
        try:
            fits = fit_usual(first, second), fit_hetero(first, second)
        except CalibrationError:
            continue
        if fits[1].converged:
            out[i] = [(f.theta_hat.x0, f.var_x0) for f in fits]
    return out


def _assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(stack=design_stacks(), max_iterations=st.sampled_from([hetero.MAX_ITERATIONS, 1, 2, 4]),
       order_seed=st.integers(0, 2**32 - 1))
@pytest.mark.bitwise
def test_a_lane_reports_its_own_fits_in_any_stack(stack, max_iterations, order_seed):
    # each dataset's (x0, var_x0) of both fits, and whether it fails, are
    # what fit_usual and fit_hetero report on it, bit for bit: fitted alone
    # as one dataset of the stack, in a shared workspace, or as a lane of a
    # stack of any size and order.  Identical readings are fitted alone;
    # capping the Newton steps makes some fits fail
    x, dv, y, y0 = stack
    data = DataStack(x, dv, y, y0)
    lanes = np.flatnonzero(data.ss0 > 0.0)
    rng = np.random.default_rng(order_seed)
    order = rng.permutation(lanes)
    part = rng.choice(lanes, size=rng.integers(0, lanes.size + 1), replace=False)
    work = hetero.workspace(len(y), data.n)  # shared by every fit, as in simulate_replicates
    with patch.object(hetero, "MAX_ITERATIONS", max_iterations):
        own = _own_fits(x, dv, y, y0)
        alone = np.array([simulate._fit(data.take(i), work[:, 0]) for i in range(len(y))])
        whole = simulate._fit(data.take(lanes), work[:, :lanes.size])
        shuffled = simulate._fit(data.take(order), work[:, :order.size])
        subset = simulate._fit(DataStack(x, dv, y[part], y0[part]), work[:, :part.size])
    _assert_same_bits(alone, own)
    _assert_same_bits(whole, own[lanes])
    _assert_same_bits(shuffled, own[order])
    _assert_same_bits(subset, own[part])


def _failing_datasets(reason, cadmium):
    """Datasets whose proposed fit fails for ``reason`` (a key of
    ``hetcal.data._FAILURES``), on a design where others fit: ``(x,
    delta_var)``, the line ``(alpha, beta, x0)`` and the noise of responses
    and readings of the datasets that fit, and the ``(y, y0)`` that fail."""
    first, second = cadmium
    x, dv, y, y0 = first.x_fixed, first.delta_var, first.y, second.y0
    fits = (0.45, 10.5, 0.08), (0.1, 0.1)  # about the bundled cadmium
    noise = np.random.default_rng(8).standard_normal((2, x.size))
    if reason == "overflow":  # powers of the variance leave the float range
        return (x, dv), *fits, [(1e60 * y, 1e60 * y0), (1e-60 * y, 1e-60 * y0)]
    if reason == "boundary":  # an exact line and near-identical readings
        return (x, dv), *fits, [(0.45 + 10.5 * x, [1.0, 1.0 + 1e-15])]
    if reason == "slope":  # flat responses
        return (x, dv), *fits, [(np.full(x.size, 3.0), y0)]
    if reason == "weights":  # concentrations in a unit where beta * beta overflows
        x, dv = 1e-100 * x, 1e-200 * dv
        return ((x, dv), (0.45, 10.5e100, 0.08e-100), (0.1, 0.1),
                [(1e55 * (0.45 + 10.5e100 * x) + 3e50 * noise[0],
                  1e55 * 1.3 + 3e50 * noise[1, :2])])
    if reason == "singular":  # concentrations 1e-9 apart, preparation errors 1e-5
        x, dv = 1.0 + 1e-9 * x, np.full(x.size, 1e-10)
        return ((x, dv), (0.1, 2.0, 1.0), (1e-5, 1e-7),
                [(0.1 + 2.0 * x + 1e-8 * noise[0], 2.1 + 1e-7 * noise[1, :2])])
    if reason == "finite":  # x0 overflows: readings far off a tiny slope
        return (x, dv), *fits, [(1e-300 * x, [1e10, 1e10 + 1.0])]
    raise ValueError(reason)


@pytest.mark.parametrize("reason, usual_error, proposed_error", [
    ("overflow", None, NonFiniteValue),
    ("boundary", None, NonPositiveVariance),
    ("slope", SlopeNearZero, SlopeNearZero),
    ("weights", None, NonFiniteValue),
    ("singular", None, SingularInformation),
    ("finite", NonFiniteValue, NonFiniteValue),
])
@pytest.mark.bitwise
def test_every_failure_reason_fails_the_same_lane(analytes, reason, usual_error,
                                                  proposed_error):
    # a dataset failing for any reason is NaN, as a lane and fitted alone,
    # exactly where fit_usual or fit_hetero on it fails, and there each fit
    # raises that reason's error
    (x, dv), (alpha, beta, x0), (sd_y, sd_y0), failing = _failing_datasets(
        reason, analytes["cadmium"])
    rng, k = np.random.default_rng(9), len(failing[0][1])
    y = alpha + beta * x + sd_y * rng.standard_normal((5, x.size))
    y0 = alpha + beta * x0 + sd_y0 * rng.standard_normal((5, k))
    bad = [1 + 2 * i for i in range(len(failing))]
    for i, (y_bad, y0_bad) in zip(bad, failing):
        y, y0 = np.insert(y, i, y_bad, axis=0), np.insert(y0, i, y0_bad, axis=0)
    data = DataStack(x, dv, y, y0)
    assert np.all(data.ss0 > 0.0)
    own = _own_fits(x, dv, y, y0)
    work = hetero.workspace(len(y), x.size)
    lanes = simulate._fit(data, work)
    _assert_same_bits(lanes, own)
    _assert_same_bits(np.array([simulate._fit(data.take(i), work[:, 0])
                                for i in range(len(y))]), own)
    assert np.flatnonzero(np.isnan(lanes).all(axis=(1, 2))).tolist() == bad
    # the two Newton drivers return the same kept iterate, failed lanes too
    driven = hetero._newton_lanes(data, data, *hetero._start(data, data), work)
    for i in range(len(y)):
        first, second = FirstStageData(x, y[i], dv), SecondStageData(y0[i])
        one = hetero._newton(first, second, *hetero._start(first, second), work[:, 0])
        assert [np.float64(v).tobytes() for v in one] == [np.float64(v[i]).tobytes()
                                                          for v in driven]
    for i in bad:
        first, second = FirstStageData(x, y[i], dv), SecondStageData(y0[i])
        _, verdict = hetero._hetero(first, second, work[:, 0])
        assert [name for name, failed in verdict if failed][0] == reason
        with pytest.raises(proposed_error):
            fit_hetero(first, second)
        if usual_error is None:
            assert fit_usual(first, second).converged
        else:
            with pytest.raises(usual_error):
                fit_usual(first, second)


@pytest.mark.bitwise
def test_lanes_that_halve_and_lanes_that_do_not_share_a_line_search():
    # distant starts make some lanes halve their first trial while the others
    # keep it and evaluate it again in the same round; each lane still
    # returns _newton's kept iterate on its own dataset from its own start
    x, dv, m = default_grid(5), default_delta_vars(5), 12
    rng = np.random.default_rng(3)
    y = 0.1 + 2.0 * (x - rng.standard_normal((m, 5)) * np.sqrt(dv)) + 0.2 * rng.standard_normal(
        (m, 5))
    data = DataStack(x, dv, y, 1.7 + 0.2 * rng.standard_normal((m, 2)))
    beta0, s2_0, beta_scale = hetero._start(data, data)
    far = np.arange(m) % 3 == 0
    beta0, s2_0 = np.where(far, 50.0 * beta0, beta0), np.where(far, 1e4 * s2_0, s2_0)
    rounds = []  # each line search's trial lengths, one array per trial
    trial, direction = hetero._trial, hetero._direction

    def record_direction(*args):
        rounds.append([])
        return direction(*args)

    def record_trial(beta, s2, beta_scale, t, du, dv):
        rounds[-1].append(np.array(t))
        return trial(beta, s2, beta_scale, t, du, dv)

    with patch.object(hetero, "_direction", record_direction), \
            patch.object(hetero, "_trial", record_trial):
        lanes = hetero._newton_lanes(data, data, beta0, s2_0, beta_scale,
                                     hetero.workspace(m, 5))
    assert any(len(t) > 1 and (t[1] == t[0]).any() and (t[1] < t[0]).any() for t in rounds)
    for i in range(m):
        one = data.take(i)
        alone = hetero._newton(one, one, beta0[i], s2_0[i], beta_scale[i],
                               hetero.workspace(5))
        assert [np.float64(v).tobytes() for v in alone] == [np.float64(v[i]).tobytes()
                                                            for v in lanes]
