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
per row, for the simulator's replicates; it is summarised by the same
functions, which reduce over the last axis.  ``_FAILURES`` holds why a fit
can fail: one dataset raises the first failed reason of its verdict, a lane
fails on any.  ``_require_parameters`` is the one check of the parameters
that the public functions of theta take, and ``_require_finite`` the one
check of what they give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDesign,
    MismatchedLengths,
    NegativeVariance,
    NonFiniteValue,
    NonPositiveVariance,
    SingularInformation,
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
    if not ok.all():
        bad = int(ok.argmin())
        raise error(f"{name}[{bad}] = {vec[bad]} is not a {what}")


def _sum(v):
    """Sum over the last axis: of one vector, or of each row of a stack or
    of a block of rows, by the same pairwise summation (row i sums as the
    vector alone, bit for bit), so a kernel sums all its terms in one call.
    ``np.sum`` with its dispatch layers costs several times more per call on
    short vectors."""
    return np.add.reduce(v, axis=-1)


def _span(v):
    """The spread of each vector over the last axis: ``np.ptp`` without its
    Python wrapper, which costs more than the two reductions on short
    vectors."""
    return np.maximum.reduce(v, axis=-1) - np.minimum.reduce(v, axis=-1)


def _col(v):
    """A per-dataset value set against the vector axis: a stack's (m,) array
    becomes an (m, 1) column, one dataset's scalar stays as it is."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _first_summaries(x: np.ndarray, y: np.ndarray):
    """``(xbar, ybar, xc, yc, sxx, sxy, slope_threshold)`` over the last
    axis, of one dataset or of a stack of responses ``y`` (m, n) on one
    design ``x``: the means, the centred vectors and their sums of squares
    and products."""
    # finite data near the largest float can still overflow a sum or a spread
    with np.errstate(all="ignore"):
        xbar, ybar = _sum(x) / x.shape[-1], _sum(y) / y.shape[-1]
        xc, yc = x - _col(xbar), y - _col(ybar)
        # an empty design has no span; numpy zeros divide to nan here, where floats would raise
        rscale, cscale = (_span(y), _span(x)) if x.size else (np.float64(0.0), np.float64(0.0))
        threshold = np.where((rscale != 0) & (cscale != 0), 1e-12 * rscale / cscale, 1e-12)
        return xbar, ybar, xc, yc, _sum(xc * xc), _sum(xc * yc), threshold


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

    Also holds the means ``xbar``, ``ybar``, the centred ``xc``, ``yc``, their
    sums ``sxx`` of xc * xc and ``sxy`` of xc * yc, and ``slope_threshold``,
    the smallest slope magnitude taken as nonzero; it is relative to the
    response/concentration spread, so it holds in any unit.
    """

    x_fixed: np.ndarray
    y: np.ndarray
    delta_var: np.ndarray
    xbar: float = field(init=False, repr=False)
    ybar: float = field(init=False, repr=False)
    xc: np.ndarray = field(init=False, repr=False)
    yc: np.ndarray = field(init=False, repr=False)
    sxx: float = field(init=False, repr=False)
    sxy: float = field(init=False, repr=False)
    slope_threshold: float = field(init=False, repr=False)

    def __post_init__(self):
        x, y, dv = _vector(self.x_fixed), _vector(self.y), _vector(self.delta_var)
        _set(self, x_fixed=x, y=y, delta_var=dv)
        if y.size != x.size or dv.size != x.size:
            raise MismatchedLengths(f"first-stage vectors have lengths {x.size}, {y.size}, "
                                    f"{dv.size}; they must match")
        # one check of every entry; the checks of each vector name the first bad one
        dv_ok = (dv >= 0) & (dv < np.inf)
        if not (dv_ok & np.isfinite(x) & np.isfinite(y)).all():
            _require(dv_ok, "delta_var", dv, NegativeVariance, "nonnegative finite number")
            _require(np.isfinite(x), "x_fixed", x, NonFiniteValue, "finite number")
            _require(np.isfinite(y), "y", y, NonFiniteValue, "finite number")
        xbar, ybar, xc, yc, sxx, sxy, threshold = _first_summaries(x, y)
        xc.flags.writeable = yc.flags.writeable = False
        # the sums stay numpy floats, whose division by zero gives inf, not an error
        _set(self, xbar=float(xbar), ybar=float(ybar), xc=xc, yc=yc, sxx=sxx, sxy=sxy,
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
    (m, k), for the simulator's replicates.

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
    sxx: float = field(init=False, repr=False)
    sxy: np.ndarray = field(init=False, repr=False)
    slope_threshold: np.ndarray = field(init=False, repr=False)
    y0bar: np.ndarray = field(init=False, repr=False)
    ss0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xbar, ybar, xc, yc, sxx, sxy, threshold = _first_summaries(self.x_fixed, self.y)
        y0bar, ss0 = _second_summaries(self.y0)
        _set(self, xbar=xbar, ybar=ybar, xc=xc, yc=yc, sxx=sxx, sxy=sxy,
             slope_threshold=threshold, y0bar=y0bar, ss0=ss0)

    def take(self, rows) -> DataStack:
        """The stack of the datasets in ``rows`` (indices or a mask).  A
        scalar index gives that one dataset: 1-D ``y`` and ``y0`` and scalar
        summaries, which the estimators take as they take the containers."""
        part = object.__new__(DataStack)
        _set(part, x_fixed=self.x_fixed, delta_var=self.delta_var, xbar=self.xbar,
             xc=self.xc, sxx=self.sxx, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})
        return part

    @property
    def n(self) -> int:
        return self.x_fixed.size

    @property
    def k(self) -> int:
        return self.y0.shape[-1]


_ROW_FIELDS = ("y", "y0", "ybar", "yc", "sxy", "slope_threshold", "y0bar", "ss0")


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
    # compared, not subtracted: the spread of a design wider than the float range overflows
    if np.maximum.reduce(first.x_fixed) == np.minimum.reduce(first.x_fixed):
        raise DegenerateDesign("all standard concentrations are identical")
    return first, second


# why a fit fails: the error each reason raises on one dataset and its
# message, filled from the fit's ``beta``, ``s2``, ``theta`` and ``var_x0``.
# An estimator's verdict lists ``(reason, failed)`` in the order it judges them
_FAILURES = {
    "identical": (NonPositiveVariance, "second-stage responses are all identical; the "
                                       "response-error variance estimate would be driven to zero"),
    "overflow": (NonFiniteValue, "the fit is not representable in floating point: powers of "
                                 "the response-error variance {s2} leave the float range"),
    "boundary": (NonPositiveVariance, "response-error variance was driven to the boundary ({s2})"),
    "slope": (SlopeNearZero, "slope {beta} is numerically zero"),
    "weights": (NonFiniteValue, "the variance is not representable in floating point: "
                                "slope {beta}"),
    "singular": (SingularInformation, "information matrix is numerically singular for this "
                                      "design"),
    "finite": (NonFiniteValue, "the fit is not representable in floating point: {theta}, "
                               "var_x0 = {var_x0}"),
    "value": (NonFiniteValue, "{function} is not representable in floating point at {at}"),
}


def _raise_first(verdict, **values):
    """On one dataset, raise the error of the first reason in ``verdict``
    that failed, its message filled from ``values``."""
    for reason, failed in verdict:
        if failed:
            error, message = _FAILURES[reason]
            raise error(message.format(**values))


def _slope_verdict(beta, first):
    """The verdict entry of a numerically zero slope."""
    return "slope", abs(beta) < first.slope_threshold


def _finite_verdict(*values):
    """The verdict entry of a fit whose outputs are not all finite."""
    return "finite", ~np.isfinite(values).all(axis=0)


def _require_slope(beta, first):
    _raise_first((_slope_verdict(beta, first),), beta=beta)


def _require_finite(function: str, value, **at):
    """``value``, what the public function ``function`` gives at the
    parameters ``at``; raises ``NonFiniteValue`` where it is not all finite."""
    _raise_first((("value", ~np.isfinite(value).all()),), function=function,
                 at=", ".join(f"{name} = {v}" for name, v in at.items()))
    return value


def _require_count(name: str, value, least: int):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (a numpy one too) of at least ``least``."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_finite_values(**values):
    """Raise ``NonFiniteValue`` naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value}")


def _require_parameters(k: int = 1, zero_variance: bool = False, **theta):
    """The check of a public function of the parameters: every value in
    ``theta`` finite, ``sigma_eps2`` (where given) positive, or nonnegative
    with ``zero_variance``, and the number of readings ``k`` an integer of
    at least 1; raises a typed error naming the first that is not.  Returns
    the values as numpy floats, whose overflow and division by zero give inf
    and NaN for ``_require_finite`` to judge, never an error."""
    _require_finite_values(**theta)
    s2 = theta.get("sigma_eps2", 1.0)
    if s2 < 0.0 or (s2 == 0.0 and not zero_variance):
        least = "nonnegative" if zero_variance else "positive"
        raise NonPositiveVariance(f"sigma_eps2 must be {least}, got {s2}")
    _require_count("k", k, 1)
    return np.array(list(theta.values()), dtype=float)


def profile_alpha_x0(beta: float, first: FirstStageData, second: SecondStageData):
    """Closed-form intercept and unknown concentration at a given slope.

    The intercept depends only on the slope and the data means; no iteration
    is involved.  Both estimators invert their fitted line through it.
    """
    _require_parameters(beta=beta)
    _require_slope(beta, first)
    return _alpha_x0(beta, first, second)


def _alpha_x0(beta, first, second):
    """``profile_alpha_x0`` without the slope check, for one dataset or a
    stack: the caller masks the lanes whose slope is numerically zero."""
    alpha = first.ybar - beta * first.xbar
    return alpha, (second.y0bar - alpha) / beta
