"""Exception types raised by the calibration estimators and the CLI."""


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class MismatchedLengths(CalibrationError):
    """First-stage vectors do not share a common length."""


class TooFewStandards(CalibrationError):
    """Fewer than three calibration standards."""


class TooFewReplicates(CalibrationError):
    """Fewer than two second-stage readings."""


class NegativeVariance(CalibrationError):
    """A known error variance is negative (or not a number)."""


class NonFiniteValue(CalibrationError):
    """A concentration or response is NaN or infinite."""


class DegenerateDesign(CalibrationError):
    """All standard concentrations are identical; the slope is unidentifiable."""


class SlopeNearZero(CalibrationError):
    """The fitted slope is numerically zero relative to the data scale."""


class NonPositiveVariance(CalibrationError):
    """A response-error variance that must be positive is zero or negative."""


class InvalidLevel(CalibrationError):
    """Confidence level outside the open interval (0, 1)."""


class SingularInformation(CalibrationError):
    """The information matrix is numerically singular for this design."""


class ParseError(CalibrationError):
    """Malformed input file; the message carries row/column context."""


class NegativeUncertainty(ParseError):
    """A standard uncertainty column entry is negative."""


class AllReplicatesFailed(CalibrationError):
    """Every Monte Carlo replicate of a scenario failed to fit."""
