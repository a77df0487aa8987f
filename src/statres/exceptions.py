"""Exception and warning types shared across the package.

The CLI maps these onto process exit codes: ParameterError (and its
subclasses) exit 2, NoResolutionError exit 3, ModelAssumptionError exit 4.
"""


class StatresError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(StatresError):
    """An argument is outside its documented domain."""


class GeometryError(ParameterError):
    """A source position or separation leaves the unit observation window."""


class UnsupportedMethodError(ParameterError):
    """The requested method is not defined for the given noise model."""


class NoResolutionError(StatresError):
    """No separation in the admissible range reaches the requested power."""


class ModelAssumptionError(StatresError):
    """Data or probabilities violate an assumption of the noise model."""


class MassTruncationWarning(UserWarning):
    """A kernel loses more than 1 percent of its mass outside [0, 1]."""


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped before meeting its convergence test."""
