"""The nested trapezoid: its node layout, its budget and its refusal.

The integrand phi(x) of the default window vanishes with all its derivatives
at 1 and 2 and integrates to exactly 1 - edge, the oracle here.
"""
import math

import numpy as np
import pytest

from zetaprog import QuadratureError
from zetaprog.quadrature import NODE_CAP, nested_trapezoid, parity_slices, start_level


def _recording(fn):
    calls = []

    def level_sum(j, p):
        calls.append((j, p))
        x = np.arange(j.start, j.stop, j.step) / p
        return [fn(x[half]) for half in parity_slices(j)]

    return level_sum, calls


def _nodes(calls):
    return [np.arange(j.start, j.stop, j.step) / p for j, p in calls]


def _two_call_rule(f, a, b, density, agree):
    """The rule with the start level and its first halving summed apart:
    f(x) sums the integrand over the nodes x of one level's new nodes."""
    p, lo, hi = start_level(a, b, density)
    val = f(np.arange(lo, hi + 1) / p) / p
    for _ in range(3):
        p *= 2
        new = 0.5 * val + f(np.arange(math.ceil(a * p) | 1, math.floor(b * p) + 1, 2) / p) / p
        if agree(new, val):
            return new
        val = new
    raise QuadratureError("no two levels agree")


def test_trapezoid_integrates_window_mass(window):
    level_sum, calls = _recording(lambda x: float(np.sum(window.phi(x))))
    val = nested_trapezoid(level_sum, 1.0, 2.0, 300.0, lambda new, old: abs(new - old) <= 1e-12)
    assert abs(val - window.plateau_mass) < 1e-14
    # start at 300 nodes per unit, ceil(300), as the even numerators of the
    # lattice at 600 whose odd ones are the first halving; each later
    # halving adds only the new midpoints, so no node is evaluated twice
    assert calls[0] == (range(600, 1201), 600)
    nodes = np.concatenate(_nodes(calls))
    per_unit = 600 << (len(calls) - 1)
    assert np.array_equal(np.sort(nodes), np.arange(per_unit, 2 * per_unit + 1) / per_unit)


@pytest.mark.parametrize("density", [12.65, 64.0, 300.0])
def test_first_call_is_the_lattice_and_matches_the_two_call_rule(window, density):
    # The first call gets every numerator of the lattice at twice the start
    # level's nodes per unit, the later ones only the new odd numerators.
    # Splitting the lattice's sum by parity only regroups the start level's
    # and the first halving's sums, so every level matches the rule that
    # sums them apart to a few ulp, and so does the value accepted (at 300
    # per unit; the coarser starts resolve the ramps in no three halvings).
    def f(x):
        return float(np.sum(window.phi(x)))

    def run(rule, *args):
        levels = []
        try:
            val = rule(*args, 1.0, 2.0, density,
                       lambda new, old: levels.append((new, old)) or abs(new - old) <= 1e-12)
        except QuadratureError:
            val = None
        return val, levels

    level_sum, calls = _recording(f)
    got, got_levels = run(nested_trapezoid, level_sum)
    want, want_levels = run(_two_call_rule, f)
    assert len(got_levels) == len(want_levels) == len(calls)
    assert np.allclose(got_levels, want_levels, rtol=4 * np.finfo(float).eps, atol=0.0)
    if density == 300.0:
        assert abs(got - want) <= 4 * np.spacing(want)
    else:
        assert got is None and want is None
    per_unit = start_level(1.0, 2.0, density)[0]
    assert calls[0] == (range(2 * per_unit, 4 * per_unit + 1), 2 * per_unit)
    for k, (j, p) in enumerate(calls[1:], 2):
        assert p == per_unit << k and j == range(p + 1, 2 * p, 2)


def test_parity_slices_pick_even_and_odd_numerators():
    for j in (range(35, 72), range(600, 1201), range(69, 144, 2), range(-7, 4), range(0)):
        n = np.arange(j.start, j.stop, j.step)
        even, odd = parity_slices(j)
        assert np.array_equal(n[even], n[n % 2 == 0]) and np.array_equal(n[odd], n[n % 2 == 1])


def test_levels_hold_the_lattice_points_inside_ends_off_the_lattice():
    # 12.65 starts at 13 per unit, so the first call is the lattice at 26;
    # 1.32 * 26 = 34.32 and 2.75 * 26 = 71.5: its first and last nodes,
    # 35/26 and 71/26, are odd j next to an end that is not a lattice point,
    # and its even j are the start level's 18/13 .. 35/13
    a, b = 1.32, 2.75
    level_sum, calls = _recording(lambda x: float(len(x)))
    with pytest.raises(QuadratureError):
        nested_trapezoid(level_sum, a, b, 12.65, lambda new, old: False)
    assert len(calls) == 3
    assert calls[0] == (range(35, 72), 26) and start_level(a, b, 12.65) == (13, 18, 35)
    levels = _nodes(calls)
    assert all(np.all((a <= x) & (x <= b)) for x in levels)
    nodes = np.concatenate(levels)
    per_unit = 13 << 3
    want = np.arange(math.ceil(a * per_unit), math.floor(b * per_unit) + 1) / per_unit
    assert len(nodes) == len(want) and np.array_equal(np.sort(nodes), want)


def test_trapezoid_refuses_start_past_budget_unevaluated():
    level_sum, calls = _recording(lambda x: 0.0)
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
    assert calls == []


@pytest.mark.parametrize("density", [0.0, -0.0, -3.0, -5e-324, np.nan, np.inf, -np.inf])
def test_start_level_refuses_bad_density_unevaluated(density):
    # a density of 0 or -3 once started at 2 or 8 nodes per unit, and nan or
    # inf got the budget's message; each is a bad argument, not a budget
    level_sum, calls = _recording(lambda x: 0.0)
    with pytest.raises(ValueError, match="finite positive density"):
        start_level(1.0, 2.0, density)
    with pytest.raises(ValueError, match="finite positive density"):
        nested_trapezoid(level_sum, 1.0, 2.0, density, lambda new, old: True)
    assert calls == []


def test_start_level_rounds_density_up_to_an_integer():
    # ceil(density), and never below 1
    for density, per_unit in ((5e-324, 1), (0.5, 1), (1.0, 1), (1.5, 2), (2.0, 2),
                              (2.0000001, 3), (12.65, 13), (300.0, 300), (512.0, 512)):
        assert start_level(1.0, 2.0, density)[0] == per_unit


def test_start_level_is_the_first_level_evaluated():
    # start_level is the trapezoid's own node arithmetic, so a caller can
    # check the budget of the level before any evaluation: its nodes are the
    # even numerators of the first call's lattice, 1.5 * 26 = 39 to 3 * 26
    level_sum, calls = _recording(lambda x: 0.0)
    nested_trapezoid(level_sum, 1.5, 3.0, 12.65, lambda new, old: True)
    per_unit, lo, hi = start_level(1.5, 3.0, 12.65)
    assert (per_unit, lo, hi) == (13, 20, 39)
    assert calls == [(range(39, 79), 26)]
    j = np.arange(39, 79)
    assert np.array_equal(j[parity_slices(calls[0][0])[0]], 2 * np.arange(lo, hi + 1))


def test_trapezoid_raises_when_levels_never_agree():
    level_sum, calls = _recording(lambda x: float(len(x)))
    compared = []
    with pytest.raises(QuadratureError):
        nested_trapezoid(level_sum, 1.0, 2.0, 64.0, lambda new, old: compared.append(new) or False)
    # three halvings compared, from two calls past the first, which holds
    # the start level and the first halving
    assert len(compared) == 3 and len(calls) == 3
