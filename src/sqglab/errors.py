"""Exception hierarchy shared by all sqglab modules."""


class SqgLabError(Exception):
    """Base class for all sqglab errors."""


class DataError(SqgLabError):
    """Non-finite or otherwise malformed field data."""


class SymmetryError(SqgLabError):
    """Conjugate symmetry of a nominally real field is broken beyond tolerance."""


class DomainError(SqgLabError):
    """Operation precondition violated (nonzero mean, bad exponent, t <= 0, ...)."""


class ConfigurationError(SqgLabError):
    """Mismatched grids or inconsistent operator setup."""


class ResolutionError(SqgLabError):
    """Requested truncation or field content exceeds what the grid resolves."""


class ConvergenceError(SqgLabError):
    """Iterative eigensolver failed to converge within the iteration budget."""


class ResourceError(SqgLabError):
    """Requested dense problem exceeds the configured size cap."""


class BlowUpError(SqgLabError):
    """Time integration produced non-finite data or tripped the gradient guard."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FitError(SqgLabError):
    """Growth-rate fit window too short or degenerate."""


class QuadratureError(SqgLabError):
    """A quadrature of a bound functional produced a non-finite value."""


class ValidationError(SqgLabError):
    """Run configuration failed validation before any computation started."""
