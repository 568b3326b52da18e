"""Smooth compactly supported test window phi and its Fourier transform.

The window is the standard C-infinity partition-of-unity bump

    phi(x) = S((x - 1)/edge) * S((2 - x)/edge),
    S(u)   = f(u) / (f(u) + f(1 - u)),   f(u) = exp(-1/u)  (u > 0),

so phi vanishes outside [1, 2], equals 1 on [1 + edge, 2 - edge], and the two
ramps never overlap for edge < 1/2.  Because S(u) + S(1 - u) = 1, each ramp
integrates to edge/2 and the total mass is exactly 1 - edge.

The Fourier transform uses the convention

    phi_hat(xi) = integral over [1, 2] of phi(t) * exp(-2*pi*i*xi*t) dt,

evaluated, like the correction integrals H(ell), by _windowed_transform:
the nested trapezoid at max(4|xi|, 16/edge) > 32, so 33 or more, nodes per
unit of [1, 2], i.e. four per oscillation and sixteen across each ramp.
The transform takes an array of frequencies and integrates them all on the
same levels, one sum over the nodes per frequency, the start level and
its first halving from one evaluation of their lattice; phi_hat at one xi,
predict_E's tuples and predict_E_prime's frequencies are all calls of it.
"""
from dataclasses import dataclass, field

import numpy as np

from .quadrature import nested_trapezoid, parity_slices, start_level

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
        """Fourier transform at xi, once two trapezoid levels agree to 1e-12:
        the one-element case of _phi_hats.

        phi_hat(-xi) = conj(phi_hat(xi)) is enforced exactly by evaluating at
        |xi| and conjugating, which is legitimate because phi is real.
        ValueError for a non-finite xi; QuadratureError, before any work,
        when |xi| or 1/edge asks for more nodes than the trapezoid's budget.
        """
        return complex(_phi_hats(self, [xi])[0])


def _phi_hats(window: SmoothWindow, xis) -> np.ndarray:
    """phi_hat at every xi of an array, as phi_hat describes, the nonzero |xi|
    by one _windowed_transform whose levels must agree to 1e-12 at every xi;
    the zero frequency is the cached mass (quadrature agrees to 1e-14).
    QuadratureError, before any work, when the largest |xi| asks for more
    nodes than the trapezoid's budget."""
    xis = np.asarray(xis, dtype=float)
    if not np.all(np.isfinite(xis)):
        raise ValueError(f"phi_hat needs a finite frequency, got {xis[~np.isfinite(xis)][0]}")
    out = np.full(len(xis), complex(window.plateau_mass))
    live = xis != 0.0
    if np.any(live):
        out[live] = _windowed_transform(window, np.abs(xis[live]), lambda x, rows: 1.0,
                                        lambda new, old: np.abs(new - old) <= 1e-12)
    return np.where(xis < 0.0, np.conj(out), out)


# Most complex entries one level of _windowed_transform holds per array
# (4 MiB): a level of n new nodes integrates _TRANSFORM_ELEMS // n
# frequencies at once.
_TRANSFORM_ELEMS = 1 << 18


def _windowed_transform(window: SmoothWindow, xis, g, agree) -> np.ndarray:
    """integral over [1, 2] of phi(x) e^(-2*pi*i*xi*x) g(x, rows)[i] dx for
    every xi = xis[rows][i], as one nested trapezoid per block of rows.

    g(x, rows) gives the integrand's other factor at every node x (all in
    [1, 2]) for the frequencies xis[rows], as an array of shape
    (len(xis[rows]), len(x)) or one that broadcasts to it, and each call of
    the trapezoid evaluates it once on all its nodes, split by parity only
    in the sums.  The start level is max(4 max|xi|, 16/edge) nodes per unit,
    rounded up, for every row, and a block holds as many rows as keep the
    largest call within _TRANSFORM_ELEMS entries: the third halving, four
    times the start level's nodes (the first call, which holds the start
    level and its first halving, has twice them).
    agree(new, previous) compares the levels entry by entry, and a level is
    accepted only when every entry agrees.  QuadratureError, before any
    work, when the start level exceeds the trapezoid's budget.
    """
    xis = np.asarray(xis, dtype=float)
    density = max(4.0 * float(np.max(np.abs(xis))), 16.0 / window.edge)
    step = max(1, _TRANSFORM_ELEMS // (4 * start_level(1.0, 2.0, density)[0]))
    out = np.empty(len(xis), dtype=complex)
    for lo in range(0, len(xis), step):
        rows = slice(lo, lo + step)

        def level_sum(j, p):
            x = np.arange(j.start, j.stop, j.step) / p
            wave = np.exp((-2j * np.pi * xis[rows])[:, None] * x)
            terms = window.phi(x) * wave * g(x, rows)
            return [np.sum(terms[:, half], axis=-1) for half in parity_slices(j)]

        out[rows] = nested_trapezoid(level_sum, 1.0, 2.0, density,
                                     lambda new, old: bool(np.all(agree(new, old))))
    return out
