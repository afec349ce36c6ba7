"""Exception types shared across the toolkit, each carrying its CLI exit code."""


class InvalidArgumentError(ValueError):
    """An input, argument or config value was rejected."""
    exit_code = 2


class NoManipulationZonesError(RuntimeError):
    """Phase segmentation found no candidate manipulation frames."""
    exit_code = 3


class NumericalFailureError(RuntimeError):
    """The solver produced a non-finite cost (the message says where)."""
    exit_code = 4
