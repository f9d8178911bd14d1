"""Exception hierarchy shared across the package."""


class ShiftLabError(Exception):
    """Base class for all shiftlab errors."""


class ParameterError(ShiftLabError, ValueError):
    """Invalid argument or configuration value."""


class FormatError(ShiftLabError, ValueError):
    """Malformed or inconsistent file content."""


class NumericError(ShiftLabError, ArithmeticError):
    """Non-finite value encountered where finiteness is required."""


class ExclusionError(ShiftLabError, ValueError):
    """A model was asked to score its own training domain as a proxy."""


class WorkerError(ShiftLabError):
    """A worker process ended abruptly (killed, out of memory) before its job finished."""
