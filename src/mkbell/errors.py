"""Exception types shared across the package."""


class MkBellError(Exception):
    """Base class for all package errors."""


class CapExceeded(MkBellError):
    """A requested instance exceeds the array budget ``Scenario.dim_cap`` or,
    in the CLI, the digits Python prints of an integer."""


class DimensionMismatch(MkBellError):
    """A vector's length does not match the scenario's global dimension."""


class NotNormalized(MkBellError):
    """A state vector is not a unit vector within tolerance."""


class ValueOutOfSpectrum(MkBellError):
    """A strategy assigns an outcome outside the spin's spectrum."""


class NotConverged(MkBellError):
    """An eigenpair failed its check against the requested residual."""

    def __init__(self, message, best_value=None, best_residual=None, iterations=0):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual
        self.iterations = iterations
