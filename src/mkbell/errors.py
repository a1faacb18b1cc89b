"""Exception types shared across the package."""


class MkBellError(Exception):
    """Base class for all package errors."""


class CapExceeded(MkBellError):
    """A requested instance exceeds a cap, each decided by one function: the
    array budget ``Scenario.dim_cap``, in the CLI also counting ``report``'s
    table cells (``spincore.check_budget``); the float range of a top
    eigenvalue or ratio (``quantum.block_scale``); and, for an integer the
    CLI prints, the digits Python converts to text (``spincore.check_digits``)."""


class DimensionMismatch(MkBellError):
    """A vector's length does not match the scenario's global dimension."""


class NotNormalized(MkBellError):
    """A state vector is not a unit vector within tolerance."""


class NotConverged(MkBellError):
    """An eigenpair failed its residual check."""

    def __init__(self, message, best_value=None, best_residual=None, iterations=0):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual
        self.iterations = iterations
