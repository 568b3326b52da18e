"""The one-level trapezoid: its node layout, its budget and its accuracy.

The integrand phi(x) of the default window vanishes with all its derivatives
at 1 and 2 and integrates to exactly 1 - edge, the oracle here.
"""
import math

import numpy as np
import pytest

from zetaprog import QuadratureError
from zetaprog.quadrature import NODE_CAP, start_level, trapezoid


def _recording(fn):
    calls = []

    def level_sum(j, p):
        calls.append((j, p))
        return fn(np.arange(j.start, j.stop, j.step) / p)

    return level_sum, calls


def test_trapezoid_integrates_window_mass(window):
    # 300 nodes per unit is 15 across each ramp of the default window: the
    # mass is exact to rounding, from one call at ceil(300) per unit
    level_sum, calls = _recording(lambda x: float(np.sum(window.phi(x))))
    val = trapezoid(level_sum, 1.0, 2.0, 300.0)
    assert abs(val - window.plateau_mass) < 1e-14
    assert calls == [(range(300, 601), 300)]


@pytest.mark.parametrize("density", [12.65, 64.0, 300.0])
def test_the_one_call_is_the_lattice_at_per_unit(window, density):
    # The rule makes one call, with every numerator of the lattice at
    # ceil(density) per unit on [1, 2], and returns its sum times the step:
    # a direct sum over the same nodes matches it to a few ulp.
    level_sum, calls = _recording(lambda x: float(np.sum(window.phi(x))))
    got = trapezoid(level_sum, 1.0, 2.0, density)
    per_unit = start_level(1.0, 2.0, density)[0]
    assert calls == [(range(per_unit, 2 * per_unit + 1), per_unit)]
    want = math.fsum(window.phi(np.arange(per_unit, 2 * per_unit + 1) / per_unit)) / per_unit
    assert abs(got - want) <= 4 * np.spacing(want)


def test_levels_hold_the_lattice_points_inside_ends_off_the_lattice():
    # 12.65 rounds up to 13 per unit: 1.32 * 13 = 17.16 and 2.75 * 13 =
    # 35.75, so the level's first and last nodes, 18/13 and 35/13, lie next
    # to ends that are not lattice points, and every lattice point between
    # is a node
    a, b = 1.32, 2.75
    level_sum, calls = _recording(lambda x: float(len(x)))
    assert trapezoid(level_sum, a, b, 12.65) == 18 / 13
    assert calls == [(range(18, 36), 13)] and start_level(a, b, 12.65) == (13, 18, 35)
    x = np.arange(18, 36) / 13
    assert np.all((a <= x) & (x <= b))
    assert 17 / 13 < a and 36 / 13 > b


def test_trapezoid_refuses_start_past_budget_unevaluated():
    level_sum, calls = _recording(lambda x: 0.0)
    for density in (NODE_CAP / 4 + 1, 1e300):
        with pytest.raises(QuadratureError, match=r"starts at \d+ per unit"):
            trapezoid(level_sum, 1.0, 2.0, density)
        with pytest.raises(QuadratureError, match=r"starts at \d+ per unit"):
            start_level(1.0, 2.0, density)
    # ends off the lattice: the level would hold exactly NODE_CAP / 4 lattice
    # points, but a level of that width can hold one more
    a = NODE_CAP / 4 + 0.45
    with pytest.raises(QuadratureError):
        trapezoid(level_sum, a, 2.0 * a, 0.9)
    assert calls == []
    # the largest width the budget admits at one node per unit
    a = NODE_CAP / 4 - 1.0
    assert start_level(a, 2.0 * a, 0.9) == (1, a, 2 * a)


@pytest.mark.parametrize("density", [0.0, -0.0, -3.0, -5e-324, np.nan, np.inf, -np.inf])
def test_start_level_refuses_bad_density_unevaluated(density):
    # a density of 0 or -3 once started at 2 or 8 nodes per unit, and nan or
    # inf got the budget's message; each is a bad argument, not a budget
    level_sum, calls = _recording(lambda x: 0.0)
    with pytest.raises(ValueError, match="finite positive density"):
        start_level(1.0, 2.0, density)
    with pytest.raises(ValueError, match="finite positive density"):
        trapezoid(level_sum, 1.0, 2.0, density)
    assert calls == []


def test_start_level_rounds_density_up_to_an_integer():
    # ceil(density), and never below 1
    for density, per_unit in ((5e-324, 1), (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2),
                              (2.0000001, 3), (12.65, 13), (300.0, 300), (512.0, 512)):
        assert start_level(1.0, 2.0, density)[0] == per_unit


def test_start_level_is_the_first_level_evaluated():
    # start_level is the trapezoid's own node arithmetic, so a caller can
    # check the budget of the level before any evaluation: its nodes are the
    # one call's, 1.5 * 13 = 19.5 to 3 * 13
    level_sum, calls = _recording(lambda x: 0.0)
    trapezoid(level_sum, 1.5, 3.0, 12.65)
    per_unit, lo, hi = start_level(1.5, 3.0, 12.65)
    assert (per_unit, lo, hi) == (13, 20, 39)
    assert calls == [(range(lo, hi + 1), per_unit)]
