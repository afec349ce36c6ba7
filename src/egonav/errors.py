"""Exception types shared across the toolkit, one per non-zero exit code."""


class InvalidArgumentError(ValueError):
    """An input, argument or config value was rejected; the CLI exits 2."""


class NoManipulationZonesError(RuntimeError):
    """Phase segmentation found no candidate manipulation frames; exit 3."""


class NumericalFailureError(RuntimeError):
    """The solver produced a non-finite cost (the message says where); exit 4."""
