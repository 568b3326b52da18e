"""The trapezoid at one level, the one quadrature rule of the package.

Every integrand it serves carries the window phi, so it vanishes with all
its derivatives at both ends of its interval; there the trapezoid needs no
endpoint weights, and for an integrand band-limited to |f| <= band under
the window its error is the window's transform at the first alias,
per_unit - band away (Trefethen & Weideman, SIAM Review 56, 2014).  So each
caller fixes its step up front, per_unit = ceil(band + eta / ramp) nodes
per unit, ramp the window's ramp width on the caller's axis and eta the
margin in units of 1/ramp past which G, the ramp's transform (see
window.py), meets the caller's accuracy contract; no level is compared
with another.  The level holds the lattice points j / per_unit inside
[a, b] and no others; where per_unit is not a power of two, the rounding
of a and b times per_unit can put an end node an ulp outside, where the
integrand vanishes.
"""
import math

from .errors import QuadratureError

__all__ = ["NODE_CAP", "start_level", "trapezoid"]

# Most nodes one level may evaluate.  A level's budget is NODE_CAP / 4, a
# quarter kept from when the rule went on to a third halving.
NODE_CAP = 1 << 23


def start_level(a: float, b: float, density: float):
    """(per_unit, lo, hi) of the trapezoid's level over [a, b]: per_unit =
    max(1, ceil(density)), and the nodes are j / per_unit for j from lo =
    ceil(a * per_unit) to hi = floor(b * per_unit).  ValueError unless density
    is finite and positive.  QuadratureError when (b - a) * per_unit + 1, the
    most nodes a level of [a, b] can hold at that step, exceeds NODE_CAP / 4,
    the budget sized when the rule went on to a third halving (the value
    stays until the budget counts work); the message names per_unit and that
    count.  All arithmetic, so a caller can check it before any work.
    """
    if not (math.isfinite(density) and density > 0.0):
        raise ValueError(f"the trapezoid needs a finite positive density, got {density!r}")
    cap = NODE_CAP // 4
    per_unit = max(1, math.ceil(density))
    if not (b - a) * per_unit + 1 <= cap:
        raise QuadratureError(f"the trapezoid at {density!r} nodes per unit over "
                              f"[{a!r}, {b!r}] starts at {per_unit} per unit, "
                              f"{(b - a) * per_unit + 1:.0f} start nodes against the "
                              f"budget of {cap}")
    return per_unit, math.ceil(a * per_unit), math.floor(b * per_unit)


def trapezoid(level_sum, a: float, b: float, density: float):
    """Integral over [a, b] by the trapezoid on the nodes x = j / per_unit of
    the start_level of density nodes per unit; the integrand must vanish at
    a and b.  level_sum(j, p) sums the integrand over the nodes x = j / p, j
    the range of ascending numerators and p = per_unit; the sum may be an
    array, the sums of several integrands on the same nodes.  Before any
    evaluation, it raises as start_level does.
    """
    per_unit, lo, hi = start_level(a, b, density)
    return level_sum(range(lo, hi + 1), per_unit) / per_unit
