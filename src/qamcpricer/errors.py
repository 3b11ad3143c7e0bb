"""Exception types shared across the package."""


class QamcError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QamcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(QamcError, ValueError):
    """Input data violates a structural invariant (quotes, matrices, configs)."""


class ConvergenceError(QamcError, RuntimeError):
    """An iterative routine failed to converge within its iteration cap."""


class CalibrationError(QamcError, RuntimeError):
    """The calibration optimizer could not produce an admissible result."""


class StageError(QamcError, RuntimeError):
    """A pipeline stage failed; the message carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
