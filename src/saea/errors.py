"""Exception types shared across the toolkit."""


class SaeaError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SaeaError):
    """Numeric input violates a documented precondition."""


class UnsupportedOrderError(SaeaError):
    """Structural mask order outside the supported set {1, 2}."""


class ParseError(SaeaError):
    """Malformed CSV input; carries the offending location when known."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SplitError(SaeaError):
    """Chronological split would produce an empty segment."""


class WindowError(SaeaError):
    """Series too short for the requested history/horizon."""


class ContractError(SaeaError):
    """Input shape disagrees with a model's declared contract."""


class ConfigurationError(SaeaError):
    """Inconsistent error-model or regularizer configuration."""


class UndefinedMetricError(SaeaError):
    """The metric has no defined value for this input."""


class DivergenceError(SaeaError):
    """A number that must be finite is not: a loss, a prediction or a value to write."""
