"""Exception types and argument checks shared across the package."""

import math


def check_positive(name: str, value: float):
    """Raise ValueError, naming the value, unless it is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


class UpflowError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(UpflowError):
    """Two grids that must share a descriptor (origin, cell size, dims) do not."""


class SolverDiverged(UpflowError):
    """The pressure solve failed to reach its tolerance within the iteration cap."""


class CGNotConverged(UpflowError):
    """A conjugate-gradient flow solve ran out of iterations before converging."""


class NoSurface(UpflowError):
    """A signed distance field has no zero crossing, so no surface operations apply."""


class CenterMismatch(UpflowError):
    """Two feature sets that must share neighborhood centers were built on different ones."""


class LengthMismatch(UpflowError):
    """Paired per-particle arrays have different lengths."""


class NonFiniteLoss(UpflowError):
    """Training produced a NaN/Inf loss; carries the epoch and sample diagnostics."""
