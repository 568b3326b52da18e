"""The nested trapezoid: its node layout, its budget and its refusal.

The integrand phi(x) of the default window vanishes with all its derivatives
at 1 and 2 and integrates to exactly 1 - edge, the oracle here.
"""
import math

import numpy as np
import pytest

from zetaprog import QuadratureError
from zetaprog.quadrature import NODE_CAP, nested_trapezoid, start_level


def _recording(fn):
    levels = []

    def level_sum(j, p):
        levels.append(j / p)
        return fn(j / p)

    return level_sum, levels


def test_trapezoid_integrates_window_mass(window):
    level_sum, levels = _recording(lambda x: float(np.sum(window.phi(x))))
    val = nested_trapezoid(level_sum, 1.0, 2.0, 300.0, lambda new, old: abs(new - old) <= 1e-12)
    assert abs(val - window.plateau_mass) < 1e-14
    # start at 300 nodes per unit, ceil(300); each halving adds only the new
    # midpoints, so no node is evaluated twice
    assert np.array_equal(levels[0], np.arange(300, 601) / 300)
    nodes = np.concatenate(levels)
    per_unit = 300 << (len(levels) - 1)
    assert np.array_equal(np.sort(nodes), np.arange(per_unit, 2 * per_unit + 1) / per_unit)


def test_levels_hold_the_lattice_points_inside_ends_off_the_lattice():
    # 12.65 starts at 13 per unit; 1.32 * 26 = 34.32 and 2.75 * 26 = 71.5:
    # the second level's first and last nodes, 35/26 and 71/26, are odd j
    # next to an end that is not a lattice point
    a, b = 1.32, 2.75
    level_sum, levels = _recording(lambda x: float(len(x)))
    with pytest.raises(QuadratureError):
        nested_trapezoid(level_sum, a, b, 12.65, lambda new, old: False)
    assert len(levels) == 4
    assert all(np.all((a <= x) & (x <= b)) for x in levels)
    assert levels[1][0] == 35 / 26 and levels[1][-1] == 71 / 26
    nodes = np.concatenate(levels)
    per_unit = 13 << 3
    want = np.arange(math.ceil(a * per_unit), math.floor(b * per_unit) + 1) / per_unit
    assert len(nodes) == len(want) and np.array_equal(np.sort(nodes), want)


def test_trapezoid_refuses_start_past_budget_unevaluated():
    level_sum, levels = _recording(lambda x: 0.0)
    for density in (NODE_CAP / 4 + 1, 1e300):
        with pytest.raises(QuadratureError, match=r"starts at \d+ per unit"):
            nested_trapezoid(level_sum, 1.0, 2.0, density, lambda new, old: True)
        with pytest.raises(QuadratureError, match=r"starts at \d+ per unit"):
            start_level(1.0, 2.0, density)
    # ends off the lattice: the start level would hold exactly NODE_CAP / 4
    # lattice points, but the third halving NODE_CAP + 2 new odd j
    a = NODE_CAP / 4 + 0.45
    with pytest.raises(QuadratureError):
        nested_trapezoid(level_sum, a, 2.0 * a, 0.9, lambda new, old: True)
    assert levels == []


@pytest.mark.parametrize("density", [0.0, -0.0, -3.0, -5e-324, np.nan, np.inf, -np.inf])
def test_start_level_refuses_bad_density_unevaluated(density):
    # a density of 0 or -3 once started at 2 or 8 nodes per unit, and nan or
    # inf got the budget's message; each is a bad argument, not a budget
    level_sum, levels = _recording(lambda x: 0.0)
    with pytest.raises(ValueError, match="finite positive density"):
        start_level(1.0, 2.0, density)
    with pytest.raises(ValueError, match="finite positive density"):
        nested_trapezoid(level_sum, 1.0, 2.0, density, lambda new, old: True)
    assert levels == []


def test_start_level_rounds_density_up_to_an_integer():
    # ceil(density), and never below 1
    for density, per_unit in ((5e-324, 1), (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2),
                              (2.0000001, 3), (12.65, 13), (300.0, 300), (512.0, 512)):
        assert start_level(1.0, 2.0, density)[0] == per_unit


def test_start_level_is_the_first_level_evaluated():
    # start_level is the trapezoid's own node arithmetic, so a caller can
    # check the budget of the level before any evaluation
    level_sum, levels = _recording(lambda x: 0.0)
    nested_trapezoid(level_sum, 1.5, 3.0, 12.65, lambda new, old: True)
    per_unit, lo, hi = start_level(1.5, 3.0, 12.65)
    assert (per_unit, lo, hi) == (13, 20, 39)
    assert np.array_equal(levels[0], np.arange(lo, hi + 1) / per_unit)


def test_trapezoid_raises_when_levels_never_agree():
    level_sum, levels = _recording(lambda x: float(len(x)))
    with pytest.raises(QuadratureError):
        nested_trapezoid(level_sum, 1.0, 2.0, 64.0, lambda new, old: False)
    assert len(levels) == 4  # the start level and three halvings
