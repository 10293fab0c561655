"""Exception hierarchy shared across the package.

Every failure a caller can act on gets its own class; anything that
indicates a bug in our own numerics (an impossible internal state, a
quadrature identity off by more than roundoff) raises InconsistencyError
so it is never confused with bad user input.
"""


class CuspDecayError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CuspDecayError, ValueError):
    """Input outside the documented domain (non-finite, off the disk, ...)."""


class ConfigurationError(CuspDecayError, ValueError):
    """Parameters violate a documented precondition."""


class EstimationError(CuspDecayError, RuntimeError):
    """A numerical estimation produced no usable samples."""


class CalibrationError(CuspDecayError, RuntimeError):
    """Calibration failed validation. Carries the witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ComputationError(CuspDecayError, RuntimeError):
    """A numerical kernel (SVD, eigensolver) failed to converge."""


class InconsistencyError(CuspDecayError, RuntimeError):
    """Two internally consistent quantities disagree beyond roundoff;
    indicates a bug, not bad input."""


class InsufficientDataError(CuspDecayError, RuntimeError):
    """Not enough usable data points for the requested statistic."""


class RangeError(CuspDecayError, IndexError):
    """Index outside the computed range."""
