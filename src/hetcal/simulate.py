"""Monte Carlo engine: generate controlled-calibration data, fit both models
per replicate, and aggregate bias, MSE, variance, coverage, and interval
half-width.

Replicates are independent; replicate ``r`` of a scenario draws from its own
generator seeded by ``(seed, r)``, so results are bit-identical for a fixed
seed.  Aggregation runs over index-ordered arrays after all replicates
finish, which keeps the reduction order fixed as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FirstStageData, SecondStageData, Theta
from .errors import AllReplicatesFailed, CalibrationError
from .hetero import fit_hetero, variance_x0
from .usual import fit_usual, normal_quantile, variance_usual


def default_grid(n: int) -> np.ndarray:
    """Arithmetic grid of n controlled concentrations from 0 to 2 inclusive."""
    if n < 2:
        raise ValueError(f"grid needs n >= 2, got {n}")
    return np.linspace(0.0, 2.0, n)


def default_delta_vars(n: int) -> np.ndarray:
    """Preparation-error variances growing linearly to a maximum of 0.1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.linspace(0.1 / n, 0.1, n)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: true parameters, design, and replication."""

    n: int
    k: int
    x0_true: float
    alpha_true: float
    beta_true: float
    sigma_eps2_true: float
    delta_var_rule: np.ndarray
    x_grid: np.ndarray
    n_reps: int
    ci_level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x_grid", np.asarray(self.x_grid, dtype=float))
        object.__setattr__(self, "delta_var_rule", np.asarray(self.delta_var_rule, dtype=float))
        if self.x_grid.size != self.n or self.delta_var_rule.size != self.n:
            raise ValueError(
                f"n={self.n} but x_grid has {self.x_grid.size} and "
                f"delta_var_rule has {self.delta_var_rule.size} entries"
            )
        if self.n < 3 or self.k < 2:
            raise ValueError(f"need n >= 3 and k >= 2, got n={self.n}, k={self.k}")
        if not all(map(math.isfinite, (self.x0_true, self.alpha_true, self.beta_true))):
            raise ValueError("x0, alpha and beta must be finite")
        dv = self.delta_var_rule
        if not (0.0 <= self.sigma_eps2_true < math.inf and np.all((0.0 <= dv) & (dv < math.inf))):
            raise ValueError("sigma_eps2 and delta_var_rule must be nonnegative and finite")
        if not np.all(np.isfinite(self.x_grid)):
            raise ValueError("x_grid entries must be finite")
        if self.n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


def make_scenario(
    n: int,
    k: int,
    x0: float,
    alpha: float = 0.1,
    beta: float = 2.0,
    sigma_eps2: float = 0.04,
    n_reps: int = 3000,
    seed: int = 0,
    ci_level: float = 0.95,
    x_grid: np.ndarray | None = None,
    delta_vars: np.ndarray | None = None,
) -> ScenarioConfig:
    """Scenario with the study defaults: 0..2 grid and linear variance rule."""
    return ScenarioConfig(
        n=n,
        k=k,
        x0_true=x0,
        alpha_true=alpha,
        beta_true=beta,
        sigma_eps2_true=sigma_eps2,
        delta_var_rule=default_delta_vars(n) if delta_vars is None else delta_vars,
        x_grid=default_grid(n) if x_grid is None else x_grid,
        n_reps=n_reps,
        ci_level=ci_level,
        seed=seed,
    )


def replicate_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent substream for one replicate, a pure function of (seed, rep)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(rep))))


def generate_dataset(cfg: ScenarioConfig, rng: np.random.Generator):
    """Draw one dataset from the controlled-variable model.

    The recorded concentration is the controlled grid value; the latent
    realized concentration is grid minus a preparation error.  Draw order is
    fixed: preparation errors, first-stage response errors, second-stage
    response errors.  The latent values are discarded.
    """
    delta = rng.standard_normal(cfg.n) * np.sqrt(cfg.delta_var_rule)
    eps1 = rng.standard_normal(cfg.n) * math.sqrt(cfg.sigma_eps2_true)
    eps0 = rng.standard_normal(cfg.k) * math.sqrt(cfg.sigma_eps2_true)
    x_latent = cfg.x_grid - delta
    y = cfg.alpha_true + cfg.beta_true * x_latent + eps1
    y0 = cfg.alpha_true + cfg.beta_true * cfg.x0_true + eps0
    first = FirstStageData(x_fixed=cfg.x_grid, y=y, delta_var=cfg.delta_var_rule)
    return first, SecondStageData(y0=y0)


@dataclass
class ReplicateTable:
    """Per-replicate fit outcomes; failed replicates carry NaN entries."""

    err_usual: np.ndarray
    err_proposed: np.ndarray
    var_usual: np.ndarray
    var_proposed: np.ndarray
    halfwidth_usual: np.ndarray
    halfwidth_proposed: np.ndarray
    covered_usual: np.ndarray
    covered_proposed: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True)
class ModelAggregates:
    """Monte Carlo summary for one estimator."""

    bias: float
    mse: float
    mean_est_var: float
    coverage_pct: float
    mean_amplitude: float


@dataclass(frozen=True)
class ScenarioSummary:
    """Aggregates for both estimators plus the deterministic variance columns."""

    usual: ModelAggregates
    proposed: ModelAggregates
    theoretical_var_usual: float
    theoretical_var_proposed: float
    n_failed: int
    n_used: int


def simulate_replicates(cfg: ScenarioConfig) -> ReplicateTable:
    """Run every replicate of a scenario and collect per-replicate metrics."""
    m = cfg.n_reps
    table = ReplicateTable(
        err_usual=np.full(m, np.nan),
        err_proposed=np.full(m, np.nan),
        var_usual=np.full(m, np.nan),
        var_proposed=np.full(m, np.nan),
        halfwidth_usual=np.full(m, np.nan),
        halfwidth_proposed=np.full(m, np.nan),
        covered_usual=np.zeros(m, dtype=bool),
        covered_proposed=np.zeros(m, dtype=bool),
        failed=np.zeros(m, dtype=bool),
    )
    z = normal_quantile(cfg.ci_level)
    for rep in range(m):
        rng = replicate_rng(cfg.seed, rep)
        first, second = generate_dataset(cfg, rng)
        try:
            res_u = fit_usual(first, second, level=cfg.ci_level)
            res_p = fit_hetero(first, second, level=cfg.ci_level)
            if not res_p.converged:
                raise CalibrationError("no convergence")
        except CalibrationError:
            table.failed[rep] = True
            continue
        table.err_usual[rep] = res_u.theta_hat.x0 - cfg.x0_true
        table.err_proposed[rep] = res_p.theta_hat.x0 - cfg.x0_true
        table.var_usual[rep] = res_u.var_x0
        table.var_proposed[rep] = res_p.var_x0
        hw_u = z * math.sqrt(res_u.var_x0)
        hw_p = z * math.sqrt(res_p.var_x0)
        table.halfwidth_usual[rep] = hw_u
        table.halfwidth_proposed[rep] = hw_p
        table.covered_usual[rep] = abs(table.err_usual[rep]) <= hw_u
        table.covered_proposed[rep] = abs(table.err_proposed[rep]) <= hw_p
    return table


def _aggregate(err, est_var, halfwidth, covered, ok) -> ModelAggregates:
    return ModelAggregates(
        bias=float(np.mean(err[ok])),
        mse=float(np.mean(err[ok] ** 2)),
        mean_est_var=float(np.mean(est_var[ok])),
        coverage_pct=100.0 * float(np.mean(covered[ok])),
        mean_amplitude=float(np.mean(halfwidth[ok])),
    )


def theoretical_variances(cfg: ScenarioConfig):
    """Large-sample variances of both estimators at the true parameters."""
    if cfg.sigma_eps2_true == 0.0 and np.all(cfg.delta_var_rule == 0.0):
        return 0.0, 0.0  # noiseless limit: both estimators are exact
    first = FirstStageData(
        x_fixed=cfg.x_grid, y=np.zeros(cfg.n), delta_var=cfg.delta_var_rule
    )
    theta = Theta(
        alpha=cfg.alpha_true,
        beta=cfg.beta_true,
        x0=cfg.x0_true,
        sigma_eps2=cfg.sigma_eps2_true,
    )
    return (
        variance_usual(theta, first, cfg.k),
        variance_x0(theta, first, cfg.k),
    )


def summarize(cfg: ScenarioConfig, table: ReplicateTable) -> ScenarioSummary:
    """Aggregate a replicate table; failed replicates are excluded from every
    aggregate and only counted in ``n_failed``."""
    ok = ~table.failed
    n_used = int(np.sum(ok))
    if n_used == 0:
        raise AllReplicatesFailed(
            f"all {cfg.n_reps} replicates failed for scenario "
            f"(n={cfg.n}, k={cfg.k}, x0={cfg.x0_true})"
        )
    theo_u, theo_p = theoretical_variances(cfg)
    return ScenarioSummary(
        usual=_aggregate(
            table.err_usual, table.var_usual, table.halfwidth_usual,
            table.covered_usual, ok,
        ),
        proposed=_aggregate(
            table.err_proposed, table.var_proposed, table.halfwidth_proposed,
            table.covered_proposed, ok,
        ),
        theoretical_var_usual=theo_u,
        theoretical_var_proposed=theo_p,
        n_failed=int(np.sum(table.failed)),
        n_used=n_used,
    )


def run_scenario(cfg: ScenarioConfig) -> ScenarioSummary:
    """Simulate one scenario and summarize both estimators."""
    return summarize(cfg, simulate_replicates(cfg))
