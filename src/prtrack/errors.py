"""Exception types shared across the package.

The split mirrors how the CLI maps failures to exit codes: usage and
configuration problems exit with 2, numeric failures with 1.
"""

__all__ = ["PrtrackError", "DimensionError", "DomainError", "NumericError", "UsageError"]


class PrtrackError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(PrtrackError, ValueError):
    """Shapes, sizes or counts are inconsistent."""


class DomainError(PrtrackError, ValueError):
    """A value is outside the mathematical domain of an operation."""


class NumericError(PrtrackError, ArithmeticError):
    """A computation produced non-finite or otherwise unusable numbers."""


class UsageError(PrtrackError, ValueError):
    """Bad command-line arguments or malformed configuration."""
