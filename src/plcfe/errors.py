"""Exception types shared across the package."""


class PlcfeError(Exception):
    """Base class for all package errors."""


class ShapeError(PlcfeError, ValueError):
    """Array dimensions do not match what an operation requires."""


class ParameterError(PlcfeError, ValueError):
    """An argument or configuration field violates its documented range."""


class StateError(PlcfeError, RuntimeError):
    """An operation was called before its required state was established."""


class NumericError(PlcfeError, ArithmeticError):
    """A computation produced a non-finite intermediate or result.

    When the computation ran a stack of tasks, carries the index of the
    first task that failed.
    """

    def __init__(self, message: str, task: int | None = None):
        self.reason = message
        self.task = task
        if task is not None:
            message = f"task {task}: {message}"
        super().__init__(message)


class FormatError(PlcfeError, ValueError):
    """A binary or CSV artifact is malformed.

    Carries the byte offset at which the problem was detected.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConstructionError(PlcfeError, RuntimeError):
    """A few-shot task could not be built from the available clusters."""


class InsufficientSamplesError(ConstructionError):
    """Filtering left fewer samples than the caller needs."""


class DegenerateDataError(PlcfeError, ValueError):
    """Input data has no usable variation (e.g. rank-0 for a projection)."""
