"""Semantic exception hierarchy.

Validation problems (bad inputs, bad config, violated preconditions) map to
CLI exit code 2; numeric failures (non-convergence, indefinite matrices,
divergent integrals) map to exit code 1.
"""


class SubwaveError(Exception):
    """Base class for all library errors."""


class ValidationError(SubwaveError, ValueError):
    """Invalid argument, config field, or violated precondition."""


class SupportCoverageError(ValidationError):
    """Sample grid does not cover the effective support of an indexed basis
    function.  Carries the offending index."""

    def __init__(self, message, level=None, j=None, k=None):
        super().__init__(message)
        self.level = level
        self.j = j
        self.k = k


class NumericError(SubwaveError, RuntimeError):
    """Numeric failure: non-convergence, loss of positivity, etc."""


class DivergenceError(NumericError):
    """A required integral or series fails its numeric convergence test."""


class ResourceLimitError(SubwaveError, RuntimeError):
    """Requested computation exceeds the desk-scale limits or the machine's memory."""


class InfeasiblePlanError(SubwaveError, RuntimeError):
    """Truncation planner exhausted its lattice without meeting the target.

    ``best_bound`` and ``best_scheme`` record the closest attempt.
    """

    def __init__(self, message, best_bound=None, best_scheme=None):
        super().__init__(message)
        self.best_bound = best_bound
        self.best_scheme = best_scheme
