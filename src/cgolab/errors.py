"""Exception types shared across the package."""


class LabError(Exception):
    """Base class for all cgolab errors."""


class GridError(LabError):
    """Grid too small for a stencil, mismatched grids, or a tau or side out of range."""


class ConvergenceError(LabError):
    """An iterative path failed to reach its tolerance.

    Carries the last measured residual in ``residual`` when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularSystemError(LabError):
    """A discrete linear system is numerically singular."""


class OverflowGuardError(LabError):
    """A CGO residual or a Carleman ratio came out non-finite (inf or NaN)."""


class ConfigError(LabError):
    """A scenario configuration failed validation."""
