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
``profile_alpha_x0``.  ``DataStack`` holds many datasets on one design, one
per row, for the simulator's lanes; it is summarised by the same functions,
which reduce over the last axis.
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


def _sum(v):
    """Sum over the last axis: of one vector, or of each row of a stack, by
    the same pairwise summation (row i sums as the vector alone, bit for
    bit).  ``np.sum`` with its dispatch layers costs several times more per
    call on short vectors."""
    return np.add.reduce(v, axis=-1)


def _col(v):
    """A per-dataset value set against the vector axis: a stack's (m,) array
    becomes an (m, 1) column, one dataset's scalar stays as it is."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _first_summaries(x: np.ndarray, y: np.ndarray):
    """``(xbar, ybar, xc, yc, slope_threshold)`` over the last axis, of one
    dataset or of a stack of responses ``y`` (m, n) on one design ``x``."""
    # finite data near the largest float can still overflow a sum or a spread
    with np.errstate(all="ignore"):
        xbar, ybar = _sum(x) / x.shape[-1], _sum(y) / y.shape[-1]
        rscale, cscale = (np.ptp(y, axis=-1), np.ptp(x, axis=-1)) if x.size else (0.0, 0.0)
        threshold = np.where((rscale != 0) & (cscale != 0), 1e-12 * rscale / cscale, 1e-12)
        return xbar, ybar, x - _col(xbar), y - _col(ybar), threshold


def _second_summaries(y0: np.ndarray):
    """``(y0bar, ss0)`` over the last axis: the readings' mean and their sum
    of squares about it."""
    with np.errstate(all="ignore"):
        y0bar = _sum(y0) / y0.shape[-1]
        c = y0 - _col(y0bar)
        return y0bar, _sum(c * c)


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
        xbar, ybar, xc, yc, threshold = _first_summaries(x, y)
        xc.flags.writeable = yc.flags.writeable = False
        _set(self, xbar=float(xbar), ybar=float(ybar), xc=xc, yc=yc,
             slope_threshold=float(threshold))

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
        y0bar, ss0 = _second_summaries(y0)
        _set(self, y0=y0, y0bar=float(y0bar), ss0=float(ss0))

    @property
    def k(self) -> int:
        return self.y0.size


@dataclass(frozen=True, eq=False)
class DataStack:
    """m datasets on one design, one per row of ``y`` (m, n) and ``y0``
    (m, k), for the simulator's lanes.

    Carries the fields of both ``FirstStageData`` and ``SecondStageData``,
    per-row ones with a leading axis of m, summarised by the same functions
    as the containers, so an estimator kernel takes a stack as both stages
    and row i equals the containers built from row i bit for bit.  The rows
    are not checked: a caller keeps non-finite rows out of the fits.
    """

    x_fixed: np.ndarray
    delta_var: np.ndarray
    y: np.ndarray
    y0: np.ndarray
    xbar: float = field(init=False, repr=False)
    ybar: np.ndarray = field(init=False, repr=False)
    xc: np.ndarray = field(init=False, repr=False)
    yc: np.ndarray = field(init=False, repr=False)
    slope_threshold: np.ndarray = field(init=False, repr=False)
    y0bar: np.ndarray = field(init=False, repr=False)
    ss0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xbar, ybar, xc, yc, threshold = _first_summaries(self.x_fixed, self.y)
        y0bar, ss0 = _second_summaries(self.y0)
        _set(self, xbar=xbar, ybar=ybar, xc=xc, yc=yc, slope_threshold=threshold,
             y0bar=y0bar, ss0=ss0)

    def take(self, rows) -> DataStack:
        """The stack of the datasets in ``rows`` (indices or a mask)."""
        part = object.__new__(DataStack)
        _set(part, x_fixed=self.x_fixed, delta_var=self.delta_var, xbar=self.xbar,
             xc=self.xc, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})
        return part

    @property
    def n(self) -> int:
        return self.x_fixed.size

    @property
    def k(self) -> int:
        return self.y0.shape[-1]


_ROW_FIELDS = ("y", "y0", "ybar", "yc", "slope_threshold", "y0bar", "ss0")


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
    return _alpha_x0(beta, first, second)


def _alpha_x0(beta, first, second):
    """``profile_alpha_x0`` without the slope check, for one dataset or a
    stack: the caller masks the lanes whose slope is numerically zero."""
    alpha = first.ybar - beta * first.xbar
    return alpha, (second.y0bar - alpha) / beta
