"""Smooth compactly supported test window phi and its Fourier transform.

The window is the standard C-infinity partition-of-unity bump

    phi(x) = S((x - 1)/edge) * S((2 - x)/edge),
    S(u)   = f(u) / (f(u) + f(1 - u)),   f(u) = exp(-1/u)  (u > 0),

so phi vanishes outside [1, 2], equals 1 on [1 + edge, 2 - edge], and the two
ramps never overlap for edge < 1/2.  Because S(u) + S(1 - u) = 1, each ramp
integrates to edge/2 and the total mass is exactly 1 - edge.

The Fourier transform uses the convention

    phi_hat(xi) = integral over [1, 2] of phi(t) * exp(-2*pi*i*xi*t) dt,

evaluated, like the correction integrals H_ell, by _windowed_transform: the
nested trapezoid at max(4|xi|, 16/edge) > 32, so 64 or more, nodes per unit
of [1, 2], i.e. four per oscillation and sixteen across each ramp.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import nested_trapezoid

__all__ = ["SmoothWindow"]


def _ramp(u):
    """The C-infinity ramp S(u): 0 for u <= 0, 1 for u >= 1, smooth glue between."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    fu = np.exp(-1.0 / um)
    fv = np.exp(-1.0 / (1.0 - um))
    out[mid] = fu / (fu + fv)
    return out


@dataclass(frozen=True)
class SmoothWindow:
    """Bump supported on [1, 2] with plateau [1 + edge, 2 - edge].

    plateau_mass caches the integral of phi, which is exactly 1 - edge for
    this ramp (each transition contributes edge/2 by the S(u) + S(1-u) = 1
    symmetry); the property suite re-derives it by quadrature.
    """

    edge: float = 0.05
    plateau_mass: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.edge < 0.5):
            raise ValueError(f"edge must lie in (0, 1/2), got {self.edge}")
        object.__setattr__(self, "plateau_mass", 1.0 - self.edge)

    # -- evaluation ---------------------------------------------------------

    def phi(self, x):
        """Evaluate phi pointwise; accepts scalars or arrays, returns the same shape."""
        x = np.asarray(x, dtype=float)
        # a tiny edge overflows the ramp arguments to +-inf: _ramp gives 0 or 1
        with np.errstate(over="ignore"):
            val = _ramp((x - 1.0) / self.edge) * _ramp((2.0 - x) / self.edge)
        if val.ndim == 0:
            return float(val)
        return val

    def phi_hat(self, xi: float) -> complex:
        """Fourier transform at xi, once two trapezoid levels agree to 1e-12.

        phi_hat(-xi) = conj(phi_hat(xi)) is enforced exactly by evaluating at
        |xi| and conjugating, which is legitimate because phi is real.
        ValueError for a non-finite xi; QuadratureError, before any work,
        when |xi| or 1/edge asks for more nodes than the trapezoid's budget.
        """
        xi = float(xi)
        if not math.isfinite(xi):
            raise ValueError(f"phi_hat needs a finite frequency, got {xi}")
        if xi < 0.0:
            return np.conj(self.phi_hat(-xi))
        if xi == 0.0:
            # The zero frequency is the cached mass; quadrature agrees to 1e-14.
            return complex(self.plateau_mass)
        return _windowed_transform(self, xi, lambda x: 1.0,
                                   lambda new, old: abs(new - old) <= 1e-12)


def _windowed_transform(window: SmoothWindow, xi: float, g, agree) -> complex:
    """integral over [1, 2] of phi(x) e^(-2*pi*i*xi*x) g(x) dx, g evaluated
    at every node, all in [1, 2]; agree(new, previous) accepts a level."""
    def level_sum(x):
        return complex(np.sum(window.phi(x) * np.exp(-2j * np.pi * xi * x) * g(x)))

    density = max(4.0 * abs(xi), 16.0 / window.edge)
    return nested_trapezoid(level_sum, 1.0, 2.0, density, agree)

