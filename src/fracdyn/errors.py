"""Exception types shared across the package."""


class FracdynError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracdynError, ValueError):
    """An argument lies outside the admissible range of an operator.

    ``key``, when known, names the argument whose rule failed.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ConvergenceError(FracdynError):
    """A series, quadrature, or fit did not converge within its budget.

    The achieved error estimate, when known, is carried in ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class BlowUpError(FracdynError):
    """A time evolution produced non-finite or explosively growing values."""

    def __init__(self, message, step=None, norm=None):
        super().__init__(message)
        self.step = step
        self.norm = norm


class ConfigError(FracdynError, ValueError):
    """An experiment configuration failed validation."""
