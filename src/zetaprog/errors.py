"""Exception types shared across the toolkit."""

__all__ = ["ZetaprogError", "PoleError", "AccuracyError", "ToleranceError",
           "QuadratureError", "CapError", "DegenerateDenominatorError"]


class ZetaprogError(Exception):
    """Base class for all toolkit errors."""


class PoleError(ZetaprogError):
    """An evaluation hit a pole (e.g. zeta at s = 1)."""


class AccuracyError(ZetaprogError):
    """An adaptive scheme hit its hard cap before reaching the accuracy target."""


class ToleranceError(ZetaprogError):
    """An internal consistency check (e.g. imaginary residual) exceeded tolerance."""


class QuadratureError(ZetaprogError):
    """Adaptive quadrature did not converge within its budget."""


class CapError(ZetaprogError):
    """A truncation cap was too small for the requested evaluation."""


class DegenerateDenominatorError(ZetaprogError):
    """A ratio's denominator was numerically zero."""
