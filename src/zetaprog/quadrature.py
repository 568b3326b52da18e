"""The nested trapezoid, the one quadrature rule of the package.

Every integrand it serves carries the window phi, so it vanishes with all
its derivatives at both ends of its interval; there the trapezoid needs no
endpoint weights and converges faster than any power of its step
(Trefethen & Weideman, SIAM Review 56, 2014).  Its start level takes
per_unit = ceil(density) nodes per unit, and each halving doubles it: the
levels hold the lattice points j / (per_unit * 2^k) inside [a, b] and no
others; where per_unit is not a power of two, the rounding of a and b
times the denominator can put an end node an ulp outside, where the
integrand vanishes.  The start level and its first halving are sampled
together, as one lattice at 2 * per_unit whose even numerators are the
start level's nodes, so an integrand whose evaluation has a fixed cost per
call pays it once for both.
"""
import math

from .errors import QuadratureError

__all__ = ["NODE_CAP", "nested_trapezoid", "parity_slices", "start_level"]

# Most nodes one level may evaluate.  The third and last halving evaluates
# at most four times the start level's budget, each node holding a few
# hundred bytes of working arrays.
NODE_CAP = 1 << 23


def start_level(a: float, b: float, density: float):
    """(per_unit, lo, hi) of the trapezoid's start level over [a, b]: per_unit
    = max(1, ceil(density)), and the nodes are j / per_unit for j from lo =
    ceil(a * per_unit) to hi = floor(b * per_unit).  ValueError unless density
    is finite and positive.  QuadratureError when (b - a) * per_unit + 1, the
    most nodes a level of [a, b] can hold at that step, exceeds NODE_CAP / 4,
    so that the third halving adds fewer than NODE_CAP nodes whether or not a
    and b are lattice points; the message names per_unit and that count.
    All arithmetic, so a caller can check it before any work.
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


def parity_slices(j: range):
    """(even, odd): the slices that pick the even and the odd numerators of
    the range j out of an array with one entry per numerator of j."""
    first = j.start & 1
    if j.step & 1:
        return slice(first, None, 2), slice(1 - first, None, 2)
    every, none = slice(None), slice(0, 0)
    return (none, every) if first else (every, none)


def nested_trapezoid(level_sum, a: float, b: float, density: float, agree):
    """Integral over [a, b] by the trapezoid on x = j / (per_unit * 2^k),
    starting at the start_level of density nodes per unit; the integrand
    must vanish at a and b.

    level_sum(j, p) sums the integrand over the nodes x = j / p, j a range
    of ascending numerators and p their denominator, all inside [a, b], and
    returns (even, odd), the sums over the even and the odd j (parity_slices
    picks them out); each may be an array, the sums of several integrands on
    the same nodes, which agree then compares as a whole.  Its first call
    gets every numerator of the lattice at p = 2 * per_unit: the even j are
    the start level, whose value is even / per_unit, and the odd j its first
    halving.  Each of the two further halvings gets only the new nodes, the
    odd j in [ceil(a * p), floor(b * p)].  Of the three halvings, the first
    with agree(new, previous) is returned.  QuadratureError when none is;
    before any evaluation, it raises as start_level does.
    """
    per_unit = start_level(a, b, density)[0]
    p = 2 * per_unit
    even, odd = level_sum(range(math.ceil(a * p), math.floor(b * p) + 1), p)
    val = even / per_unit
    for halving in range(3):
        if halving:
            p *= 2
            odd = level_sum(range(math.ceil(a * p) | 1, math.floor(b * p) + 1, 2), p)[1]
        new = 0.5 * val + odd / p
        if agree(new, val):
            return new
        val = new
    raise QuadratureError(f"the trapezoid over [{a!r}, {b!r}] did not converge in three halvings")
