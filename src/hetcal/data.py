"""Domain containers and validation shared by both calibration estimators.

The two-stage data model: the first stage holds the calibration standards
(nominal concentrations, instrument responses, and the known variance of the
concentration-preparation error for each standard); the second stage holds
the replicate responses measured on the unknown sample.  Both containers are
immutable: they keep read-only copies of their vectors, check them when
built (one length, finite values, nonnegative finite ``delta_var``) and
summarise them once for both estimators, as attributes named by
``_first_summaries`` and ``_second_summaries``; only the inputs are
dataclass fields.  ``validate`` adds what a fit
needs: n >= 3, k >= 2 and distinct concentrations.  Both estimators read the
intercept and the unknown concentration at their fitted slope from
``profile_alpha_x0``.  ``DataStack`` holds many datasets on one design, one
per row, for the simulator's replicates; it is summarised by the same
functions, which reduce over the last axis.  ``_FAILURES`` holds why a fit
can fail: one dataset raises the first failed reason of its verdict, a lane
fails on any.  The input rules live here once, for the functions of theta,
the estimators and ``ScenarioConfig``: ``_require_parameters`` (finite
values, the variance's sign), ``_require_count``, ``_require_entries``,
``_quantile`` (of a level), ``_require_slope`` and ``_require_finite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDesign,
    InvalidLevel,
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


def _require(ok: np.ndarray, name: str, vec: np.ndarray, error: type, what: str):
    """Raise ``error`` naming the first entry of ``vec`` where ``ok`` is false."""
    if not ok.all():
        bad = int(ok.argmin())
        raise error(f"{name}[{bad}] = {vec[bad]} is not a {what}")


def _require_entries(x, y, dv, names=("x_fixed", "y", "delta_var")):
    """The first stage's rule for its entries, in one check of every entry:
    ``dv`` nonnegative and finite, ``x`` and ``y`` finite; the error names
    the first bad entry of the first bad vector by its name in ``names``."""
    dv_ok = (dv >= 0) & (dv < np.inf)
    if not (dv_ok & np.isfinite(x) & np.isfinite(y)).all():
        _require(dv_ok, names[2], dv, NegativeVariance, "nonnegative finite number")
        _require(np.isfinite(x), names[0], x, NonFiniteValue, "finite number")
        _require(np.isfinite(y), names[1], y, NonFiniteValue, "finite number")


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


def _first_summaries(x: np.ndarray, y: np.ndarray) -> dict:
    """The first stage's summaries by name, over the last axis, of one
    dataset or of a stack of responses ``y`` (m, n) on one design ``x``: the
    means ``xbar``, ``ybar``, the centred ``xc``, ``yc``, their sums ``sxx``
    of xc * xc and ``sxy`` of xc * yc, and ``slope_threshold``."""
    # finite data near the largest float can still overflow a sum or a spread
    with np.errstate(all="ignore"):
        xbar, ybar = _sum(x) / x.shape[-1], _sum(y) / y.shape[-1]
        xc, yc = x - _col(xbar), y - _col(ybar)
        # an empty design has no span; numpy zeros divide to nan here, where floats would raise
        rscale, cscale = (_span(y), _span(x)) if x.size else (np.float64(0.0), np.float64(0.0))
        threshold = np.where((rscale != 0) & (cscale != 0), 1e-12 * rscale / cscale, 1e-12)
        return dict(xbar=xbar, ybar=ybar, xc=xc, yc=yc, sxx=_sum(xc * xc), sxy=_sum(xc * yc),
                    slope_threshold=threshold)


def _second_summaries(y0: np.ndarray) -> dict:
    """The second stage's summaries by name, over the last axis: the
    readings' mean ``y0bar`` and their sum of squares about it, ``ss0``."""
    with np.errstate(all="ignore"):
        y0bar = _sum(y0) / y0.shape[-1]
        c = y0 - _col(y0bar)
        return dict(y0bar=y0bar, ss0=_sum(c * c))


@dataclass(frozen=True, eq=False)
class FirstStageData:
    """Calibration standards: nominal concentrations ``x_fixed`` (set by the
    analyst), instrument responses ``y``, and the known preparation-error
    variances ``delta_var`` (one per standard, in squared concentration units).

    Its summaries are the attributes that ``_first_summaries`` names, set
    when it is built; ``dataclasses.fields`` lists the inputs only.
    ``slope_threshold`` is the smallest slope magnitude taken as nonzero; it
    is relative to the response/concentration spread, so it holds in any unit.
    """

    x_fixed: np.ndarray
    y: np.ndarray
    delta_var: np.ndarray

    def __post_init__(self):
        x, y, dv = _vector(self.x_fixed), _vector(self.y), _vector(self.delta_var)
        vars(self).update(x_fixed=x, y=y, delta_var=dv)
        if y.size != x.size or dv.size != x.size:
            raise MismatchedLengths(f"first-stage vectors have lengths {x.size}, {y.size}, "
                                    f"{dv.size}; they must match")
        _require_entries(x, y, dv)
        s = _first_summaries(x, y)
        s["xc"].flags.writeable = s["yc"].flags.writeable = False
        # the means and the threshold become Python floats; the sums stay
        # numpy floats, whose division by zero gives inf, not an error
        vars(self).update(s, xbar=float(s["xbar"]), ybar=float(s["ybar"]),
                          slope_threshold=float(s["slope_threshold"]))

    @property
    def n(self) -> int:
        return self.x_fixed.size


@dataclass(frozen=True, eq=False)
class SecondStageData:
    """Replicate instrument responses measured on the unknown sample.  Its
    mean ``y0bar`` and its sum of squares about it, ``ss0``, are Python
    floats set when it is built; ``dataclasses.fields`` lists ``y0`` only."""

    y0: np.ndarray

    def __post_init__(self):
        y0 = _vector(self.y0)
        _require(np.isfinite(y0), "y0", y0, NonFiniteValue, "finite number")
        vars(self).update(y0=y0, **{name: float(v) for name, v in _second_summaries(y0).items()})

    @property
    def k(self) -> int:
        return self.y0.size


class DataStack:
    """m datasets on one design, one per row of ``y`` (m, n) and ``y0``
    (m, k), for the simulator's replicates.

    Carries the fields of both ``FirstStageData`` and ``SecondStageData``,
    per-row ones with a leading axis of m, summarised by the same functions
    as the containers, so an estimator kernel takes a stack as both stages
    and row i equals the containers built from row i bit for bit.  A plain
    internal object: it keeps the caller's arrays, writable and unchecked,
    and a caller keeps non-finite rows out of the fits.
    """

    def __init__(self, x_fixed, delta_var, y, y0):
        self.x_fixed, self.delta_var, self.y, self.y0 = x_fixed, delta_var, y, y0
        vars(self).update(_first_summaries(x_fixed, y), **_second_summaries(y0))

    def take(self, rows) -> DataStack:
        """The stack of the datasets in ``rows`` (indices or a mask).  A
        scalar index gives that one dataset: 1-D ``y`` and ``y0`` and scalar
        summaries, which the estimators take as they take the containers."""
        part = object.__new__(DataStack)
        vars(part).update(vars(self), **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})
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


_LEAST_N, _LEAST_K = 3, 2  # the fewest standards and sample readings a fit needs


def validate(first: FirstStageData, second: SecondStageData):
    """Check what a fit needs beyond the containers' own checks: n >= 3,
    k >= 2 and distinct concentrations.  Returns the pair unchanged or raises
    a typed error naming the first violated condition."""
    if first.n < _LEAST_N:
        raise TooFewStandards(f"need at least {_LEAST_N} standards, got {first.n}")
    if second.k < _LEAST_K:
        raise TooFewReplicates(f"need at least {_LEAST_K} sample readings, got {second.k}")
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
    if not np.isfinite(value).all():
        at = ", ".join(f"{name} = {v}" for name, v in at.items())
        raise NonFiniteValue(f"{function} is not representable in floating point at {at}")
    return value


def _require_count(name: str, value, least: int):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (a numpy one too, but not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_finite_values(**values):
    """Raise ``NonFiniteValue`` naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {value}")


def _quantile(level: float) -> float:
    """The normal quantile of the interval at confidence ``level``, whose
    half-width is ``quantile * sqrt(var_x0)``; ``InvalidLevel`` unless the
    level is in (0, 1) and not so near 1 that its tail rounds to nothing."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"confidence level must be in (0, 1), got {level}")
    p = 1.0 - (1.0 - level) / 2.0
    if not p < 1.0:
        raise InvalidLevel(f"confidence level {level} is too close to 1 for a finite interval")
    return NormalDist().inv_cdf(p)


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
    with np.errstate(all="ignore"):
        fit = _alpha_x0(beta, first, second)
    return _require_finite("profile_alpha_x0", fit, beta=beta)


def _alpha_x0(beta, first, second):
    """``profile_alpha_x0`` without the slope check, for one dataset or a
    stack: the caller masks the lanes whose slope is numerically zero."""
    alpha = first.ybar - beta * first.xbar
    return alpha, (second.y0bar - alpha) / beta
