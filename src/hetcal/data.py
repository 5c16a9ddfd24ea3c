"""Domain containers and validation shared by both calibration estimators.

The two-stage data model: the first stage holds the calibration standards
(nominal concentrations, instrument responses, and the known variance of the
concentration-preparation error for each standard); the second stage holds
the replicate responses measured on the unknown sample.  All containers are
immutable: they keep read-only copies of their vectors, check them when
built (one length, finite values, nonnegative finite ``delta_var``) and
summarise them once for both estimators.  ``validate`` adds what a fit
needs: n >= 3, k >= 2 and distinct concentrations.  Both estimators read the
intercept and the unknown concentration at their fitted slope from
``profile_alpha_x0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDesign,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    SlopeNearZero,
    TooFewReplicates,
    TooFewStandards,
)


def _vector(values) -> np.ndarray:
    """A read-only private copy: the container's summaries must stay true."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _set(container, **fields):
    for name, value in fields.items():
        object.__setattr__(container, name, value)


def _require(ok: np.ndarray, name: str, vec: np.ndarray, error: type, what: str):
    """Raise ``error`` naming the first entry of ``vec`` where ``ok`` is false."""
    if not np.all(ok):
        bad = int(np.flatnonzero(~ok)[0])
        raise error(f"{name}[{bad}] = {vec[bad]} is not a {what}")


@dataclass(frozen=True, eq=False)
class FirstStageData:
    """Calibration standards: nominal concentrations ``x_fixed`` (set by the
    analyst), instrument responses ``y``, and the known preparation-error
    variances ``delta_var`` (one per standard, in squared concentration units).

    Also holds the means ``xbar``, ``ybar``, the centred ``xc``, ``yc`` and
    ``slope_threshold``, the smallest slope magnitude taken as nonzero; it is
    relative to the response/concentration spread, so it holds in any unit.
    """

    x_fixed: np.ndarray
    y: np.ndarray
    delta_var: np.ndarray
    xbar: float = field(init=False, repr=False)
    ybar: float = field(init=False, repr=False)
    xc: np.ndarray = field(init=False, repr=False)
    yc: np.ndarray = field(init=False, repr=False)
    slope_threshold: float = field(init=False, repr=False)

    def __post_init__(self):
        x, y, dv = _vector(self.x_fixed), _vector(self.y), _vector(self.delta_var)
        _set(self, x_fixed=x, y=y, delta_var=dv)
        if y.size != x.size or dv.size != x.size:
            raise MismatchedLengths(f"first-stage vectors have lengths {x.size}, {y.size}, "
                                    f"{dv.size}; they must match")
        _require((dv >= 0) & (dv < np.inf), "delta_var", dv, NegativeVariance,
                 "nonnegative finite number")
        _require(np.isfinite(x), "x_fixed", x, NonFiniteValue, "finite number")
        _require(np.isfinite(y), "y", y, NonFiniteValue, "finite number")
        # finite data near the largest float can still overflow a sum or a spread
        with np.errstate(all="ignore"):
            xbar, ybar = float(np.sum(x) / x.size), float(np.sum(y) / y.size)
            xc, yc = x - xbar, y - ybar
            rscale, cscale = (float(np.ptp(y)), float(np.ptp(x))) if x.size else (0.0, 0.0)
        xc.flags.writeable = yc.flags.writeable = False
        _set(self, xbar=xbar, ybar=ybar, xc=xc, yc=yc,
             slope_threshold=1e-12 * rscale / cscale if rscale and cscale else 1e-12)

    @property
    def n(self) -> int:
        return self.x_fixed.size


@dataclass(frozen=True, eq=False)
class SecondStageData:
    """Replicate instrument responses measured on the unknown sample, with
    their mean ``y0bar`` and their sum of squares about it, ``ss0``."""

    y0: np.ndarray
    y0bar: float = field(init=False, repr=False)
    ss0: float = field(init=False, repr=False)

    def __post_init__(self):
        y0 = _vector(self.y0)
        _require(np.isfinite(y0), "y0", y0, NonFiniteValue, "finite number")
        with np.errstate(all="ignore"):
            y0bar = float(np.sum(y0) / y0.size)
            _set(self, y0=y0, y0bar=y0bar, ss0=float(np.sum((y0 - y0bar) ** 2)))

    @property
    def k(self) -> int:
        return self.y0.size


@dataclass(frozen=True)
class Theta:
    """Full parameter vector: intercept, slope, unknown concentration, and
    response-error variance."""

    alpha: float
    beta: float
    x0: float
    sigma_eps2: float


@dataclass(frozen=True)
class FitResult:
    """Point estimates plus the uncertainty summary for the unknown
    concentration.

    ``expanded_uncertainty`` is always ``1.96 * sqrt(var_x0)`` (the metrology
    convention), while the confidence interval uses the exact normal quantile
    for the requested level.
    """

    theta_hat: Theta
    var_x0: float
    ci_lower: float
    ci_upper: float
    expanded_uncertainty: float
    log_likelihood: float
    converged: bool
    iterations: int
    score_residual_norm: float


def validate(first: FirstStageData, second: SecondStageData):
    """Check what a fit needs beyond the containers' own checks: n >= 3,
    k >= 2 and distinct concentrations.  Returns the pair unchanged or raises
    a typed error naming the first violated condition."""
    if first.n < 3:
        raise TooFewStandards(f"need at least 3 standards, got {first.n}")
    if second.k < 2:
        raise TooFewReplicates(f"need at least 2 sample readings, got {second.k}")
    if np.ptp(first.x_fixed) == 0.0:
        raise DegenerateDesign("all standard concentrations are identical")
    return first, second


def means(first: FirstStageData, second: SecondStageData):
    """Arithmetic means (x-bar, y-bar, y0-bar) of the three data vectors."""
    return first.xbar, first.ybar, second.y0bar


def profile_alpha_x0(beta: float, first: FirstStageData, second: SecondStageData):
    """Closed-form intercept and unknown concentration at a given slope.

    The intercept depends only on the slope and the data means; no iteration
    is involved.  Both estimators invert their fitted line through it.
    """
    if abs(beta) < first.slope_threshold:
        raise SlopeNearZero(f"slope {beta} is numerically zero")
    alpha = first.ybar - beta * first.xbar
    return alpha, (second.y0bar - alpha) / beta
