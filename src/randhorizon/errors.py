"""Shared exception types."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class HarnessError(RuntimeError):
    """Raised when a simulation policy violates the episode protocol."""


class InputFileError(ValueError):
    """Raised when an input file cannot be read or parsed, or breaks the documented format."""
