"""Exception types shared across the toolkit."""


class EgonavError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(EgonavError, ValueError):
    """A precondition on an operation's arguments was violated."""


class ParseError(EgonavError, ValueError):
    """A recording line could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(EgonavError, ValueError):
    """Parsed data violates a structural constraint (e.g. non-monotone time)."""


class DegenerateOrientationError(EgonavError, ValueError):
    """Head orientation points the forward axis along gravity; yaw is undefined."""


class NoManipulationZonesError(EgonavError, RuntimeError):
    """Phase segmentation found no candidate manipulation frames."""


class NumericalFailureError(EgonavError, RuntimeError):
    """The solver produced a non-finite cost; the message says where."""


class ConfigError(EgonavError, ValueError):
    """Invalid or unknown key in a pipeline config file."""
