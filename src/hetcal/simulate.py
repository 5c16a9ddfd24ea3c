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
from dataclasses import dataclass, field
from operator import index

import numpy as np

from .data import (_LEAST_K, _LEAST_N, DataStack, FirstStageData, SecondStageData, Theta,
                   _quantile, _require_count, _require_entries, _require_parameters,
                   _require_slope, _set, _vector, validate)
from .errors import AllReplicatesFailed, CalibrationError
from .hetero import _hetero, variance_x0, workspace
from .usual import _usual, variance_usual

# array elements of one chunk of replicates (2n + k per replicate).  A design
# too long for ``LANE_MIN`` replicates in a chunk (every n = 5000) is fitted
# one by one: chunks of 4 and 8 took 1.23-1.27x its time at n = 5000, k = 2
LANE_ELEMENTS = 2**14
# the fewest replicates fitted as lanes: shorter chunks run one by one.  As
# lanes, chunks of 2 took 1.56x and chunks of 3 1.35x the time of fitting
# alone, at (n, k) = (3000, 2) and (2500, 2) (medians of 8 pairs, bit-identical
# tables; ROADMAP, aim 2)
LANE_MIN = 4


def default_grid(n: int) -> np.ndarray:
    """Arithmetic grid of n controlled concentrations from 0 to 2 inclusive."""
    _require_count("n", n, 2)
    return np.linspace(0.0, 2.0, n)


def default_delta_vars(n: int) -> np.ndarray:
    """Preparation-error variances growing linearly to a maximum of 0.1."""
    _require_count("n", n, 1)
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
    _design: FirstStageData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the counts, before any array is built from them: n and k as a fit
        # needs them (the replicate substreams are seeded with (seed, rep))
        for name, least in (("n", _LEAST_N), ("k", _LEAST_K), ("n_reps", 1), ("seed", 0)):
            _require_count(name, getattr(self, name), least)
        x, dv = _vector(self.x_grid), _vector(self.delta_var_rule)
        for name, vec in (("x_grid", x), ("delta_vars", dv)):
            if vec.size != self.n:
                raise ValueError(f"scenario: {name} has {vec.size} entries, n is {self.n}")
        # the noiseless responses of ``_design``, kept for theoretical_variances;
        # overflowed ones are capped, and such a scenario's draws fail one by one
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.nan_to_num(self.alpha_true + self.beta_true * x)
        try:  # the package's own rules, for the parameters, the level and the design
            _require_parameters(zero_variance=True, x0=self.x0_true, alpha=self.alpha_true,
                                beta=self.beta_true, sigma_eps2=self.sigma_eps2_true)
            _quantile(self.ci_level)
            _require_entries(x, y, dv, names=("x_grid", "y", "delta_vars"))
            first, _ = validate(FirstStageData(x, y, dv), SecondStageData(np.zeros(self.k)))
            _require_slope(self.beta_true, first)
        except CalibrationError as exc:
            raise ValueError(f"scenario: {exc}") from exc
        _set(self, x_grid=first.x_fixed, delta_var_rule=first.delta_var, _design=first)


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
    _require_count("n", n, _LEAST_N)  # ScenarioConfig's rule, before a default design of n
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
    """Independent substream for one replicate, a pure function of the
    integers (seed, rep); anything else, a bool too, is a ``TypeError``."""
    if isinstance(seed, bool) or isinstance(rep, bool):
        raise TypeError(f"replicate_rng takes integers, got seed={seed!r}, rep={rep!r}")
    return np.random.default_rng(np.random.SeedSequence((index(seed), index(rep))))


def _responses(cfg: ScenarioConfig, z: np.ndarray):
    """First- and second-stage responses ``(y, y0)`` from standard normal
    draws ``z`` over the last axis: preparation errors, first-stage response
    errors, then second-stage response errors (n, n and k entries).  The
    recorded concentration is the controlled grid value; the latent realized
    concentration, grid minus the preparation error, is discarded."""
    n = cfg.n
    delta = z[..., :n] * np.sqrt(cfg.delta_var_rule)
    eps1 = z[..., n:2 * n] * math.sqrt(cfg.sigma_eps2_true)
    eps0 = z[..., 2 * n:] * math.sqrt(cfg.sigma_eps2_true)
    x_latent = cfg.x_grid - delta
    y = cfg.alpha_true + cfg.beta_true * x_latent + eps1
    y0 = cfg.alpha_true + cfg.beta_true * cfg.x0_true + eps0
    return y, y0


def generate_dataset(cfg: ScenarioConfig, rng: np.random.Generator):
    """Draw one dataset from the controlled-variable model.

    One draw of 2n + k standard normals, which equals the preparation
    errors, first-stage and second-stage response errors drawn one after
    another; see ``_responses``.
    """
    y, y0 = _responses(cfg, rng.standard_normal(2 * cfg.n + cfg.k))
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
    """Run every replicate of a scenario and collect per-replicate metrics.

    Each replicate keeps what its two fits give: the estimate and its
    variance.  The table forms every interval once, at the scenario's level,
    as ``fit_usual`` and ``fit_hetero`` do, and reads errors, half-widths
    and coverage from it; a failed replicate is a row left NaN.

    Replicates run in chunks of ``LANE_ELEMENTS // (2n + k)`` (``_fit_chunk``),
    and ``_fit`` fits a chunk's lanes at once and every other replicate
    alone, in one workspace per scenario.  Each replicate gets the estimates
    ``fit_usual`` and ``fit_hetero`` give its dataset, bit for bit, so the
    table does not depend on the chunking.
    """
    # (replicate, usual/proposed, x0/var_x0)
    fits = np.full((cfg.n_reps, 2, 2), np.nan)
    chunk = max(1, LANE_ELEMENTS // (2 * cfg.n + cfg.k))
    # one workspace for the largest chunk: a workspace per fit of a long
    # design would be allocated and returned to the system by every fit.
    # Chunks too short for lanes fit every replicate alone, in lane 0
    lanes = min(chunk, cfg.n_reps)
    work = workspace(lanes if lanes >= LANE_MIN else 1, cfg.n)
    for start in range(0, cfg.n_reps, chunk):
        _fit_chunk(cfg, np.arange(start, min(start + chunk, cfg.n_reps)), fits, work)
    x0, var = np.moveaxis(fits, 2, 0)
    quantile = _quantile(cfg.ci_level)
    half = quantile * np.sqrt(var)
    lo, hi = x0 - half, x0 + half
    err, halfwidth = x0 - cfg.x0_true, (hi - lo) / 2.0
    covered = (lo <= cfg.x0_true) & (cfg.x0_true <= hi)
    return ReplicateTable(
        err_usual=err[:, 0], err_proposed=err[:, 1],
        var_usual=var[:, 0], var_proposed=var[:, 1],
        halfwidth_usual=halfwidth[:, 0], halfwidth_proposed=halfwidth[:, 1],
        covered_usual=covered[:, 0], covered_proposed=covered[:, 1],
        failed=np.isnan(fits).any(axis=(1, 2)),
    )


def _fit_chunk(cfg: ScenarioConfig, reps: np.ndarray, fits: np.ndarray, work: np.ndarray):
    """Draw the replicates ``reps`` and fit them into ``fits``: as lanes, in
    a chunk of at least ``LANE_MIN``, the finite draws whose readings differ
    (``ss0 > 0``), in the leading lanes of ``work``; alone, in its lane 0,
    every other finite draw.  A non-finite draw stays NaN."""
    z = np.empty((reps.size, 2 * cfg.n + cfg.k))
    for row, rep in zip(z, reps):
        replicate_rng(cfg.seed, rep).standard_normal(out=row)
    with np.errstate(all="ignore"):  # an overflowed draw is left out below
        y, y0 = _responses(cfg, z)
    data = DataStack(cfg.x_grid, cfg.delta_var_rule, y, y0)
    finite = np.isfinite(y).all(axis=-1) & np.isfinite(y0).all(axis=-1)
    lanes = finite & (data.ss0 > 0.0) & (reps.size >= LANE_MIN)
    if lanes.any():
        fits[reps[lanes]] = _fit(data.take(lanes), work[:, :lanes.sum()])
    for i in np.flatnonzero(finite & ~lanes):
        fits[reps[i]] = _fit(data.take(i), work[:, 0])


def _fit(data: DataStack, work: np.ndarray) -> np.ndarray:
    """What both estimators give over the last axis of a stack whose
    readings differ, or of one dataset (``data.take(i)``), as (...,
    usual/proposed, x0/var_x0); NaN where either fit's verdict fails or the
    proposed fit does not converge.  A dataset's block is the x0 and var_x0
    that ``fit_usual`` and ``fit_hetero`` report on it, bit for bit,
    whatever else the stack holds.  ``work`` is the proposed fit's
    workspace, with a lane per dataset of a stack."""
    (_, _, x0_u, _, var_u, *_), usual = _usual(data, data)
    (_, _, x0_p, _, var_p, converged, *_), proposed = _hetero(data, data, work)
    x0, var = np.stack((x0_u, x0_p), axis=-1), np.stack((var_u, var_p), axis=-1)
    out = np.stack((x0, var), axis=-1)
    failed = np.logical_or.reduce([lanes for _, lanes in usual + proposed])
    out[failed | ~converged] = np.nan
    return out


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
    # on the scenario's design, whose noiseless responses give the slope check its scale
    theta = Theta(cfg.alpha_true, cfg.beta_true, cfg.x0_true, cfg.sigma_eps2_true)
    return variance_usual(theta, cfg._design, cfg.k), variance_x0(theta, cfg._design, cfg.k)


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
