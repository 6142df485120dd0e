"""Exception types shared across the toolkit."""


class SaeaError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SaeaError):
    """A value, shape, size or combination of settings breaks a documented rule."""


class ParseError(SaeaError):
    """Malformed CSV input; carries the offending location when known."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class UndefinedMetricError(SaeaError):
    """The metric has no defined value for this input."""


class DivergenceError(SaeaError):
    """A number that must be finite is not: a loss, a prediction or a value to write."""
