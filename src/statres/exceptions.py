"""Exception and warning types shared across the package.

Each error class carries the process exit code the CLI ends with.
"""


class StatresError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParameterError(StatresError):
    """An argument is outside its documented domain."""


class GeometryError(ParameterError):
    """A source position or separation leaves the unit observation window."""


class UnsupportedMethodError(ParameterError):
    """The requested method is not defined for the given noise model."""


class NoResolutionError(StatresError):
    """No separation in the admissible range reaches the requested power."""

    exit_code = 3


class ModelAssumptionError(StatresError):
    """Data or probabilities violate an assumption of the noise model."""

    exit_code = 4


class MassTruncationWarning(UserWarning):
    """A kernel loses more than 1 percent of its mass outside [0, 1]."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped before meeting its convergence test."""
