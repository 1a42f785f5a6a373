"""Exception hierarchy shared across the package.

The command-line layer maps these classes onto distinct exit codes, so new
failure modes should subclass one of the three branches below rather than
raising bare exceptions.
"""


class BootsmoothError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(BootsmoothError):
    """A configuration value violates a precondition before any computation."""


class IngestionError(BootsmoothError):
    """An input file is malformed; the message carries line numbers or keys."""


class NumericalError(BootsmoothError):
    """Base class for failures detected during numerical work."""


class SingularDesignError(NumericalError):
    """A design matrix is rank deficient where a full-rank solve is required."""


class DegreesOfFreedomError(NumericalError):
    """A variance estimate has a non-positive degrees-of-freedom divisor."""


class DegenerateScoreError(NumericalError):
    """A selection score is undefined (saturated fit, zero trace denominator)."""


class SelectionFailureError(NumericalError):
    """No (model, lambda) pair could be scored; ``column``: the block's first failing column."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column
