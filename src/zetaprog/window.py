"""Smooth compactly supported test window phi and its Fourier transform.

The window is the standard C-infinity partition-of-unity bump

    phi(x) = S((x - 1)/edge) * S((2 - x)/edge),
    S(u)   = f(u) / (f(u) + f(1 - u)),   f(u) = exp(-1/u)  (u > 0),

so phi vanishes outside [1, 2], equals 1 on [1 + edge, 2 - edge], and the two
ramps never overlap for edge < 1/2.  Because S(u) + S(1 - u) = 1, each ramp
integrates to edge/2 and the total mass is exactly 1 - edge.

The Fourier transform uses the convention

    phi_hat(xi) = integral over [1, 2] of phi(t) * exp(-2*pi*i*xi*t) dt.

S(u) + S(1 - u) = 1 makes the ramp's density S' even about u = 1/2, and one
integration by parts gives, for every edge,

    phi_hat(xi) = e^(-3*pi*i*xi) (1 - edge) sinc((1 - edge) xi) G(edge xi),
    G(eta)      = integral over [0, 1] of S'(u) cos(2*pi*eta*(u - 1/2)) du,

so |phi_hat(xi)| <= |G(eta)| edge / (pi eta) at eta = edge |xi|: G (real,
even, G(0) = 1, the same for every edge) is the alias error of every
trapezoid of the package (quadrature.py), whose first alias lies eta / ramp
past the integrand's band.  ETA_RELATIVE and ETA_PHI_HAT are the margins
eta past which that bound meets each accuracy contract, read off a scan of
G that tests/test_window.py repeats.

phi_hat, like the correction integrals H(ell), is one trapezoid level of
_windowed_transform, at |xi| + ETA_PHI_HAT / edge nodes per unit of [1, 2];
phi_hat at one xi, predict_E's tuples and predict_E_prime's frequencies are
all calls of it.
"""
from dataclasses import dataclass, field

import numpy as np

from .quadrature import start_level, trapezoid

__all__ = ["SmoothWindow"]

# The trapezoid's alias margins, in nodes across a ramp: sup over eta' >= eta
# of |G(eta')| edge / (pi eta') bounds |phi_hat| at the first alias.  At
# ETA_RELATIVE, for the moments' and H's 1e-10 relative, it is 3.4e-11 at
# edge 0.05; at ETA_PHI_HAT, for phi_hat's 1e-12, 3.4e-13 at every edge.
ETA_RELATIVE, ETA_PHI_HAT = 32.0, 56.0


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
        """Evaluate phi pointwise; accepts scalars or arrays, returns the same shape.

        One ramp at the nearer edge, S(min(x - 1, 2 - x)/edge), equals the
        product of both bit for bit: where one argument is below 1 the other
        exceeds 1/edge - 1 > 1 (edge < 1/2), so its factor is exactly 1.
        """
        x = np.asarray(x, dtype=float)
        # a tiny edge overflows the ramp argument to +-inf: _ramp gives 0 or 1
        with np.errstate(over="ignore"):
            val = _ramp(np.minimum(x - 1.0, 2.0 - x) / self.edge)
        if val.ndim == 0:
            return float(val)
        return val

    def phi_hat(self, xi: float) -> complex:
        """Fourier transform at xi, to 1e-12 absolute: the one-element case
        of _phi_hats.

        phi_hat(-xi) = conj(phi_hat(xi)) is enforced exactly by evaluating at
        |xi| and conjugating, which is legitimate because phi is real.
        ValueError for a non-finite xi; QuadratureError, before any work,
        when |xi| + ETA_PHI_HAT / edge nodes per unit exceed the trapezoid's
        budget.
        """
        return complex(_phi_hats(self, [xi])[0])


def _phi_hats(window: SmoothWindow, xis) -> np.ndarray:
    """phi_hat at every xi of an array, as phi_hat describes, the nonzero |xi|
    by one _windowed_transform at the margin ETA_PHI_HAT; the zero frequency
    is the cached mass (quadrature agrees to 1e-14)."""
    xis = np.asarray(xis, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise ValueError(f"phi_hat needs a finite frequency, got {xis[~np.isfinite(xis)][0]}")
    out = np.full(len(xis), complex(window.plateau_mass))
    live = xis != 0.0
    if np.any(live):
        out[live] = _windowed_transform(window, np.abs(xis[live]), lambda x, rows: 1.0,
                                        ETA_PHI_HAT)
    return np.where(xis < 0.0, np.conj(out), out)


# Most complex entries one block of _windowed_transform holds per array
# (4 MiB): a level of n nodes integrates _TRANSFORM_ELEMS // n frequencies
# at once.
_TRANSFORM_ELEMS = 1 << 18


def _windowed_transform(window: SmoothWindow, xis, g, eta: float) -> np.ndarray:
    """integral over [1, 2] of phi(x) e^(-2*pi*i*xi*x) g(x, rows)[i] dx for
    every xi = xis[rows][i], each on the trapezoid level of its own band,
    ceil(|xi| + eta / edge) nodes per unit, so that its first alias is eta /
    edge away (g's own band, a smooth factor's, lies far inside that) and
    its value does not depend on the call's other frequencies.

    g(x, rows) gives the integrand's other factor at every node x for the
    frequencies xis[rows], rows an index array, as an array of shape
    (len(rows), len(x)) or one that broadcasts to it.  The xis of one level
    are integrated together, in blocks of as many rows as keep the level
    within _TRANSFORM_ELEMS entries.  QuadratureError, before any work,
    when the largest level exceeds the trapezoid's budget.
    """
    xis = np.asarray(xis, dtype=float)
    levels = np.ceil(np.abs(xis) + eta / window.edge)
    start_level(1.0, 2.0, float(np.max(levels)))  # the budget, before any work
    out = np.empty(len(xis), dtype=complex)
    for per_unit in np.unique(levels):
        same = np.flatnonzero(levels == per_unit)
        step = max(1, _TRANSFORM_ELEMS // (int(per_unit) + 1))
        for rows in np.split(same, range(step, len(same), step)):
            def level_sum(j, p):
                x = np.arange(j.start, j.stop) / p
                wave = np.exp((-2j * np.pi * xis[rows])[:, None] * x)
                return np.sum(window.phi(x) * wave * g(x, rows), axis=-1)

            out[rows] = trapezoid(level_sum, 1.0, 2.0, float(per_unit))
    return out
