"""Rational structure of progressions: minimal forms, delta, tuple search.

The load-bearing oracle is an exhaustive Farey scan in exact big-integer /
high-precision arithmetic: for every admissible denominator b it rounds
x*b to the nearest integer and keeps qualifying fractions.  find_tuple must
reproduce it exactly on every progression tried.
"""
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaprog import (DiophantineTuple, DirichletPoly, ProgressionSpec, RationalForm,
                      delta, detect_rational, find_tuple, minimal_fraction,
                      rational_approximations, waldschmidt_bound)
from zetaprog import dioph as dmod
from zetaprog.moments import _default_ell_max

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# minimal_fraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("given,want", [
    ((2, 4, 1), (1, 2, 1)),
    ((1, 2, 1), (1, 2, 1)),
    ((3, 8, 27), (1, 2, 3)),
    ((2, 9, 4), (1, 3, 2)),
    ((6, 64, 1), (1, 2, 1)),
    ((4, 8, 1), (4, 8, 1)),   # k=3, gcd(4,3)=1: already minimal
])
def test_minimal_fraction(given, want):
    got = minimal_fraction(RationalForm(*given))
    assert (got.ell0, got.m, got.n) == want


def test_minimal_fraction_rejects_bad_forms():
    with pytest.raises(ValueError):
        RationalForm(1, 3, 3)     # m/n = 1
    with pytest.raises(ValueError):
        RationalForm(1, 4, 2)     # not coprime
    with pytest.raises(ValueError):
        RationalForm(0, 2, 1)     # ell0 must be positive


# ---------------------------------------------------------------------------
# ProgressionSpec
# ---------------------------------------------------------------------------

def test_from_rational_normalizes():
    spec = ProgressionSpec.from_rational(2, 4, 1)
    assert (spec.rational_form.ell0, spec.rational_form.m, spec.rational_form.n) == (1, 2, 1)
    assert abs(spec.alpha - TWO_PI / math.log(2.0)) < 1e-14


def test_from_rational_reduces_common_factor():
    spec = ProgressionSpec.from_rational(1, 4, 2)
    assert (spec.rational_form.m, spec.rational_form.n) == (2, 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProgressionSpec(alpha=0.0)
    with pytest.raises(ValueError):
        ProgressionSpec(alpha=-1.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ProgressionSpec(alpha=alpha)
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            ProgressionSpec(alpha=1.0, beta=beta)
    # float alpha inconsistent with the claimed symbolic form
    with pytest.raises(ValueError):
        ProgressionSpec(alpha=1.0, rational_form=RationalForm(1, 2, 1))
    # a consistent but non-minimal form: delta relies on minimal forms only
    with pytest.raises(ValueError, match="not minimal"):
        ProgressionSpec(alpha=TWO_PI / math.log(2.0), rational_form=RationalForm(2, 4, 1))
    # m/n < 1 would give alpha < 0
    with pytest.raises(ValueError, match="m/n > 1"):
        ProgressionSpec.from_rational(1, 2, 3)


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def test_delta_irrational_is_zero(unit_spec):
    assert delta(unit_spec) == 0.0


def test_delta_symbolic_two(sym_spec):
    assert abs(delta(sym_spec) - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12


def test_delta_beta_flips_sign():
    spec = ProgressionSpec.from_rational(1, 2, 1, beta=math.pi / math.log(2.0))
    assert abs(delta(spec) - (2.0 - 2.0 * math.sqrt(2.0))) < 1e-12


def test_delta_nine_fourths_closed_form():
    # m=9, n=4, beta=0: (2*6-2)/(36+1-12) = 10/25 = 2/5 exactly
    spec = ProgressionSpec.from_rational(1, 9, 4)
    assert abs(delta(spec) - 0.4) < 1e-14


def test_delta_invariant_under_power_blowup():
    assert delta(ProgressionSpec.from_rational(2, 4, 1)) == delta(
        ProgressionSpec.from_rational(1, 2, 1))


def test_candidate_form_never_feeds_delta():
    # a float alpha numerically equal to 2*pi/ln 2 still counts as irrational
    # for delta: only symbolically constructed forms enter the formula.
    spec = ProgressionSpec(alpha=TWO_PI / math.log(2.0))
    assert spec.rational_form is None
    assert delta(spec) == 0.0
    assert detect_rational(spec, 3, 10 ** 6) == (1, 2, 1)
    assert delta(spec) == 0.0  # detection does not mutate the spec


def test_detection_is_trusted_only_through_from_rational():
    # a detected triple is not a RationalForm: passing it as one is refused
    # by name, and from_rational(*found) is the one way to trust it
    alpha = TWO_PI / math.log(2.0)
    found = detect_rational(ProgressionSpec(alpha=alpha), 3, 10 ** 6)
    with pytest.raises(TypeError, match="from_rational"):
        ProgressionSpec(alpha=alpha, rational_form=found)
    assert abs(delta(ProgressionSpec.from_rational(*found)) - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12


# ---------------------------------------------------------------------------
# find_tuple against the exhaustive Farey oracle
# ---------------------------------------------------------------------------

def _farey_oracle(spec, ell, T, eps=0.05):
    """Exhaustive scan over every admissible denominator b < the cap."""
    with mp.workprec(300):
        if spec.rational_form is not None and ell % spec.rational_form.ell0 == 0:
            f = minimal_fraction(spec.rational_form)
            k = ell // f.ell0
            x = mp.mpf(f.m ** k) / mp.mpf(f.n ** k)
        else:
            x = mp.exp(mp.mpf(TWO_PI) * ell / spec.alpha)
        b_cap = mp.e ** ((0.5 - eps) * mp.log(T) - mp.pi * ell / spec.alpha)
        tol = mp.mpf(T) ** (eps - 1.0)
        hits = []
        b = 1
        while b < b_cap:
            a = int(mp.nint(x * b))
            if a >= 1 and math.gcd(a, b) == 1 and a * b > 1 \
                    and abs(mp.mpf(a) / b - x) / x <= tol:
                hits.append((b, a))
            b += 1
        if not hits:
            return None
        b, a = min(hits)
        return (a, b)


@pytest.mark.parametrize("make,ell,T,want", [
    (lambda: ProgressionSpec.from_rational(1, 2, 1), 3, 1e4, (8, 1)),
    (lambda: ProgressionSpec.from_rational(1, 3, 2), 2, 1e4, (9, 4)),
    (lambda: ProgressionSpec.from_rational(1, 9, 4), 1, 1e4, (9, 4)),
])
def test_find_tuple_exact_powers(make, ell, T, want):
    tup = find_tuple(make(), ell, T, 0.05)
    assert (tup.a, tup.b) == want
    assert tup.quality == 0.0
    assert math.gcd(tup.a, tup.b) == 1


def test_find_tuple_alpha_one_matches_oracle():
    spec = ProgressionSpec(alpha=1.0)
    for ell in (1, 2, 3):
        got = find_tuple(spec, ell, 1e6, 0.05)
        want = _farey_oracle(spec, ell, 1e6)
        assert (got is None and want is None) or ((got.a, got.b) == want)


@pytest.mark.parametrize("alpha", [0.7, 1.3, math.sqrt(2.0), math.pi, 2.5])
@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("T", [1e4, 1e6])
def test_find_tuple_matches_oracle_grid(alpha, ell, T):
    spec = ProgressionSpec(alpha=alpha)
    got = find_tuple(spec, ell, T, 0.05)
    want = _farey_oracle(spec, ell, T)
    if want is None:
        assert got is None
    else:
        assert got is not None and (got.a, got.b) == want


def test_find_tuple_fractional_exact_power():
    # at 2:5:1 and odd ell the exact form gives x = 5^(ell/2), a fractional
    # power of 5/1, and the search must land where the oracle's scan does
    spec = ProgressionSpec.from_rational(2, 5, 1)
    got = find_tuple(spec, 1, 5e4, 0.05)
    assert got is not None and (got.a, got.b) == _farey_oracle(spec, 1, 5e4)


def test_find_tuple_rational_alpha_with_larger_denominator():
    # alpha built from 10/3: the oracle and the search must both land on the
    # exact power (10, 3) at ell = 1.
    spec = ProgressionSpec.from_rational(1, 10, 3)
    got = find_tuple(spec, 1, 1e6, 0.05)
    assert (got.a, got.b) == (10, 3)
    assert got.quality == 0.0
    assert _farey_oracle(spec, 1, 1e6) == (10, 3)


def test_find_tuple_exact_power_quality_is_zero():
    # (5/3)^ell is built with one rounding, so a/b = 5^ell/3^ell reads
    # exactly x at working precision; a power taken by repeated
    # multiplication read 1.7e-77 at ell = 4.
    spec = ProgressionSpec.from_rational(1, 5, 3)
    for ell in range(1, 5):
        tup = find_tuple(spec, ell, 1e6, 0.05)
        assert (tup.a, tup.b, tup.quality) == (5 ** ell, 3 ** ell, 0.0), ell


@pytest.mark.parametrize("spec", [
    ProgressionSpec(alpha=1.3), ProgressionSpec(alpha=2.2), ProgressionSpec(alpha=2.9),
    ProgressionSpec.from_rational(1, 2, 1), ProgressionSpec.from_rational(1, 3, 2),
], ids=["1.3", "2.2", "2.9", "1:2:1", "1:3:2"])
@pytest.mark.parametrize("T", [800.0, 1600.0])
def test_find_tuple_matches_oracle_on_moment_ranges(spec, T):
    # Every ell a moment run with prediction sums over, up to the longest
    # mollifier (theta 0.4) of the moment benchmark's T range.
    poly = DirichletPoly(np.ones(int(T ** 0.4) + 1))
    for ell in range(1, _default_ell_max(spec, T, poly) + 1):
        got = find_tuple(spec, ell, T, 0.05)
        want = _farey_oracle(spec, ell, T)
        assert (None if got is None else (got.a, got.b)) == want, ell


def test_find_tuple_none_when_cap_below_one(sym_spec):
    # pi*ell/alpha grows linearly in ell; once e^{-pi ell/alpha} T^{0.45}
    # drops below 1 there is no admissible denominator at all.
    assert find_tuple(sym_spec, 50, 1e4, 0.05) is None


def test_find_tuple_validation(sym_spec):
    with pytest.raises(ValueError):
        find_tuple(sym_spec, 1, 50.0, 0.05)
    with pytest.raises(ValueError):
        find_tuple(sym_spec, 1, 1e4, 0.6)
    with pytest.raises(ValueError):
        find_tuple(sym_spec, 0, 1e4, 0.05)


def test_find_tuple_refuses_tolerance_finer_than_x():
    # At T = 1e200 the tolerance T^(eps-1) = 1e-190 is finer than x =
    # e^(2*pi*ell) at 256 bits, whose rounding read as tuples of quality 0
    # with b = 2^246, 2^237 and 2^228; e^(2*pi) is transcendental.  At
    # T = 1e74 (T^(eps-1) = 2^-233.5) the search still decides on x.
    spec = ProgressionSpec(alpha=1.0)
    for ell in (1, 2, 3):
        with pytest.raises(ValueError, match="T = 1e\\+200, eps = 0.05"):
            find_tuple(spec, ell, 1e200, 0.05)
        assert find_tuple(spec, ell, 1e74, 0.05) is None


def test_tuple_growth_bound(sym_spec):
    # a*b >= e^{2 pi ell / alpha} / 2 for every tuple returned
    for ell in (1, 2, 3, 4):
        tup = find_tuple(sym_spec, ell, 1e4, 0.05)
        if tup is None:
            continue
        assert tup.a * tup.b >= 0.5 * math.exp(TWO_PI * ell / sym_spec.alpha)


def test_tuple_denominator_bound(sym_spec):
    for ell in (1, 2, 3):
        tup = find_tuple(sym_spec, ell, 1e4, 0.05)
        assert tup.b < 1e4 ** 0.45 * math.exp(-math.pi * ell / sym_spec.alpha)


def test_tuple_uniqueness_by_farey_spacing():
    # fractions with denominator < K are spaced >= K^-2 apart, so at most one
    # can sit inside the tolerance band; verify by counting oracle hits.
    spec = ProgressionSpec.from_rational(1, 3, 2)
    with mp.workprec(300):
        x = mp.mpf(9) / 4
        tol = mp.mpf(1e4) ** mp.mpf(-0.95)
        hits = 0
        for b in range(1, 30):
            a = int(mp.nint(x * b))
            if a >= 1 and math.gcd(a, b) == 1 and a * b > 1 \
                    and abs(mp.mpf(a) / b - x) / x <= tol:
                hits += 1
    assert hits == 1


def test_tuple_type_validation():
    with pytest.raises(ValueError):
        DiophantineTuple(ell=1, a=4, b=2, quality=0.0)   # not coprime
    with pytest.raises(ValueError):
        DiophantineTuple(ell=1, a=1, b=1, quality=0.0)   # a*b must exceed 1
    with pytest.raises(ValueError, match="positive"):
        DiophantineTuple(ell=1, a=0, b=1, quality=0.0)


# ---------------------------------------------------------------------------
# rational_approximations against a brute Farey scan
# ---------------------------------------------------------------------------

def _brute_approximations(x_frac, q_cap, rel_tol):
    # every reduced p/q, p >= 1, with x*q*(1 - rel_tol) <= p <= x*q*(1 + rel_tol)
    out = []
    for q in range(1, q_cap + 1):
        lo = max(1, math.ceil(x_frac * q * (1 - rel_tol)))
        out.extend((p, q) for p in range(lo, math.floor(x_frac * q * (1 + rel_tol)) + 1)
                   if math.gcd(p, q) == 1)
    return sorted(out, key=lambda t: (t[1], t[0]))


# 1e6 + sqrt(2)/7 to 34 digits: its first partial quotient is 10^6, so a
# search that steps through a partial quotient one unit at a time takes
# 10^6 steps there.
X_SQRT2 = 10 ** 6 + Fraction("1.414213562373095048801688724209698") / 7


@pytest.mark.parametrize("x,q_cap,tol", [
    (Fraction(23, 50), 60, Fraction(1, 1000)),
    (Fraction(355, 113), 120, Fraction(1, 100000)),
    (Fraction(7, 1), 25, Fraction(1, 50)),
    (Fraction(100003, 7), 40, Fraction(1, 10 ** 5)),
    (Fraction(3, 2 ** 40), 8, Fraction(1, 4)),
    (X_SQRT2, 10, Fraction(1, 10 ** 8)),
    # several numerators per denominator: 13/2, 15/2 and 17/2 lie within 0.2
    # of 7.3, where a band that kept the nearest numerator listed only 15/2
    (Fraction(73, 10), 2, Fraction(1, 5)),
    (Fraction(22, 7), 30, Fraction(1, 10)),
    # a float x is taken at its exact value
    (math.exp(TWO_PI), 40, Fraction(1, 1000)),
    (Fraction(22, 7), 0, Fraction(1, 10)),
])
def test_rational_approximations_equal_brute_force(x, q_cap, tol):
    with mp.workprec(300):
        x_in = x if isinstance(x, float) else mp.mpf(x.numerator) / x.denominator
        got = rational_approximations(x_in, q_cap, mp.mpf(tol.numerator) / tol.denominator)
    got_pairs = sorted((int(p), int(q)) for p, q, _ in got)
    want = sorted(_brute_approximations(Fraction(x), q_cap, tol))
    assert got_pairs == want


@st.composite
def _targets(draw):
    """(x, q_cap, rel_tol): x a 256-bit mpf of magnitude 1e-3 .. 1e12 -- a
    generic value, an odd multiple of a power of two (q*x ties at
    half-integers) or a small rational m/n --, q_cap <= 200, and rel_tol in
    [1e-12, 1/2] below 20/(x*q_cap), so that a denominator may have up to
    about 40 numerators within rel_tol, every one of which the brute scan
    lists."""
    kind = draw(st.sampled_from(["generic", "dyadic", "small"]))
    with mp.workprec(256):
        if kind == "generic":
            x = mp.mpf(10) ** draw(st.floats(-3.0, 12.0))
        elif kind == "dyadic":
            x = mp.mpf(2 * draw(st.integers(0, 10 ** 4)) + 1) / 2 ** draw(st.integers(1, 8))
        else:
            x = mp.mpf(draw(st.integers(1, 1000))) / draw(st.integers(1, 1000))
    q_cap = draw(st.integers(1, 200))
    top = math.log10(min(0.5, 20.0 / (float(x) * q_cap)))
    assume(top > -12.0)
    return x, q_cap, 10.0 ** draw(st.floats(-12.0, top))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_targets())
def test_rational_approximations_equal_brute_force_property(target):
    # A fraction within 2^-24 of the tolerance's edge is decided by the
    # working-precision quality, not by the exact scan (the tolerance-edge
    # tests pin that rule), so such a draw is left out.
    x, q_cap, rel_tol = target
    x_frac = Fraction(int(x.man)) * Fraction(2) ** int(x.exp)
    want = _brute_approximations(x_frac, q_cap, Fraction(rel_tol))
    assume(want == _brute_approximations(x_frac, q_cap, Fraction(rel_tol) * (1 - Fraction(1, 2 ** 24)))
           == _brute_approximations(x_frac, q_cap, Fraction(rel_tol) * (1 + Fraction(1, 2 ** 24))))
    got = rational_approximations(x, q_cap, rel_tol)
    assert sorted((p, q) for p, q, _ in got) == sorted(want)


@pytest.mark.parametrize("x, q_cap, rel_tol", [
    (lambda: mp.mpf(10) ** 12 + mp.sqrt(2), 3, 0.1),
    (lambda: mp.sqrt(2), 2000, 0.5),
], ids=["first-step-run", "band"])
def test_rational_approximations_refuses_past_budget(x, q_cap, rel_tol, monkeypatch):
    # The interval's width times q_cap^2 bounds the fractions it may hold:
    # 2e11 * 9 for the run of integers j/1 around 1e12, and 1.41 * 4e6 for
    # the band of denominators up to 2000 around sqrt(2).  Each is refused
    # before one fraction is listed.
    monkeypatch.setattr(dmod, "_simplest", lambda *a: pytest.fail("listed"))
    with mp.workprec(256):
        with pytest.raises(OverflowError, match="too wide to list"):
            rational_approximations(x(), q_cap, rel_tol)


@pytest.mark.parametrize("excess", [999_999, 1_000_000], ids=["just-under", "just-over"])
def test_fractions_between_budget_edge(excess):
    # [1, 1 + excess/q_cap^2] at q_cap = 1000: the budget admits width *
    # q_cap^2 up to 999 999, and then lists the brute scan's 304 192
    # fractions; one more is refused before any is listed.
    q_cap = 1000
    args = (1, 1, q_cap ** 2 + excess, q_cap ** 2, q_cap)
    if excess > 999_999:
        with pytest.raises(OverflowError, match="too wide to list"):
            next(dmod._fractions_between(*args))
        return
    half = Fraction(excess, 2 * q_cap ** 2)  # the brute scan's x*(1 -+ rel_tol)
    got = sorted(dmod._fractions_between(*args), key=lambda t: (t[1], t[0]))
    assert got == _brute_approximations(1 + half, q_cap, half / (1 + half))


def _count_descents(monkeypatch):
    """The list of what each _simplest call returns."""
    calls = []
    simplest = dmod._simplest

    def counted(*args):
        calls.append(simplest(*args))
        return calls[-1]
    monkeypatch.setattr(dmod, "_simplest", counted)
    return calls


def _check_descents(calls):
    # each listed fraction opens two intervals, so k fractions take at most
    # 2k + 1 descents
    listed = sum(hit is not None for hit in calls)
    assert len(calls) <= 2 * listed + 1


@pytest.mark.parametrize("x, q_cap, rel_tol", [
    (lambda: mp.mpf(X_SQRT2.numerator) / X_SQRT2.denominator, 10, lambda: mp.mpf(10) ** -8),
    (lambda: mp.mpf(2) ** 1100, 10, lambda: mp.mpf(2) ** -1105),
], ids=["first-quotient-1e6", "two-to-the-1100"])
def test_fractions_between_work_bound(x, q_cap, rel_tol, monkeypatch):
    calls = _count_descents(monkeypatch)
    with mp.workprec(1200):
        assert rational_approximations(x(), q_cap, rel_tol())
    _check_descents(calls)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_targets())
def test_fractions_between_work_bound_property(target):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_descents(monkeypatch)
        rational_approximations(*target)
    _check_descents(calls)


def test_rational_approximations_at_two_to_the_1100():
    # The first partial quotient is 2^1100, so listing every semiconvergent
    # never returned.  The candidates are 2^1100 and 2^1100 - 1 over 1; at
    # rel_tol 2^-1105 only x itself qualifies.  300 bits round 2^1100 - 1 to
    # 2^1100, where its quality would read 0: it must be taken at a precision
    # that holds the numerator exactly.
    want = _brute_approximations(Fraction(2 ** 1100), 10, Fraction(1, 2 ** 1105))
    assert want == [(2 ** 1100, 1)]
    for bits in (1200, 300):
        with mp.workprec(bits):
            got = rational_approximations(mp.mpf(2) ** 1100, 10, mp.mpf(2) ** -1105)
        assert [(int(p), int(q)) for p, q, _ in got] == want, bits


def test_rational_approximations_below_working_resolution():
    # At 64 bits, q*x (to 3e21) and a quality against rel_tol near 1e-23 both
    # need more bits than the caller's precision holds; 38 of these 40 calls
    # once differed from the exact test.
    rng = random.Random(18)
    for _ in range(40):
        with mp.workprec(64):
            x = mp.mpf(rng.uniform(1e17, 3e18)) + mp.sqrt(2) * rng.uniform(0, 1000)
            rel_tol = math.exp(rng.uniform(math.log(1e-24), math.log(1e-21)))
            got = rational_approximations(x, 1436, rel_tol)
        want = _brute_approximations(Fraction(int(x.man)) * Fraction(2) ** int(x.exp),
                                     1436, Fraction(rel_tol))
        assert sorted((p, q) for p, q, _ in got) == sorted(want)


def test_rational_approximations_irrational_target():
    with mp.workprec(300):
        x = mp.sqrt(2)
        got = rational_approximations(x, 50, mp.mpf("1e-3"))
        got_pairs = sorted((int(p), int(q)) for p, q, _ in got)
        brute = []
        for q in range(1, 51):
            p = int(mp.nint(x * q))
            if p >= 1 and math.gcd(p, q) == 1 and abs(mp.mpf(p) / q - x) / x <= mp.mpf("1e-3"):
                brute.append((p, q))
    assert got_pairs == sorted(brute)


# For each fraction the float ratio |p/q/float(x) - 1| reads above its
# quality, so a float test would drop it: by 5.7e-17 at quality 5.1e-5; by
# 1.6e-16 at quality 1.7e-16; and by one ulp, 3.6e-15, at quality 23.8.
@pytest.mark.parametrize("x, p, q", [
    (lambda: mp.sqrt(2), 99, 70),
    (lambda: mp.sqrt(2), 54608393, 38613965),
    (lambda: mp.sqrt(2) / 23 ** 1.5 * mp.pi, 1, 1),
], ids=["relative", "below-float", "large-quality"])
def test_rational_approximations_tolerance_edge(x, p, q):
    # rel_tol equal to a fraction's working-precision quality keeps it, and one
    # part in 1e12 less drops it.
    with mp.workprec(256):
        x = x()
        qual = abs(mp.mpf(p) / q / x - 1)
        assert (p, q, qual) in rational_approximations(x, q, qual)
        assert (p, q) not in [h[:2] for h in rational_approximations(x, q, qual * (1 - 1e-12))]


@pytest.mark.parametrize("scale", [-1100, -1060], ids=["float-zero", "subnormal"])
def test_rational_approximations_outside_float_range(scale):
    # float(x) reads 0 or a subnormal, where no float test could tell the
    # candidates apart.  The tolerance admits every reduced p/q with p <= 2q,
    # far from the nearest numerators, 0.
    with mp.workprec(1300):
        x = mp.mpf(2) ** scale
        rel_tol = 2 / x
        got = rational_approximations(x, 6, rel_tol)
        want = _brute_approximations(Fraction(2) ** scale, 6, Fraction(2) ** (1 - scale))
        assert (1, 6) in want and (12, 5) not in want and (11, 6) in want
        assert got == sorted((p, q, abs(mp.mpf(p) / q / x - 1)) for p, q in want)


# ---------------------------------------------------------------------------
# detect_rational
# ---------------------------------------------------------------------------

def test_detect_symbolic_power_of_two():
    spec = ProgressionSpec(alpha=TWO_PI / math.log(2.0))
    assert detect_rational(spec, 3, 10 ** 6) == (1, 2, 1)


def test_detect_nine_fourths():
    spec = ProgressionSpec(alpha=TWO_PI / math.log(9.0 / 4.0))
    assert detect_rational(spec, 2, 10 ** 6) == (1, 9, 4)


def test_detect_power_reduction():
    # alpha from ln 4: e^{2 pi/alpha} = 4 = 2^2, but gcd(ell0=1, k=2) = 1 so
    # the minimal representation keeps (1, 4, 1).
    spec = ProgressionSpec(alpha=TWO_PI / math.log(4.0))
    assert detect_rational(spec, 3, 10 ** 6) == (1, 4, 1)


def test_detect_alpha_one_finds_nothing_deep():
    # e^{2 pi ell} is never detectably rational; this must stay true out to
    # ell = 40 where the numbers reach ~3e109 and the working precision has
    # to scale with ln x to avoid chasing the dyadic tail of the float.
    spec = ProgressionSpec(alpha=1.0)
    assert detect_rational(spec, 40, 10 ** 6) is None


def test_detect_float_perturbation_still_candidate():
    # 1e-13 relative off the symbolic value is indistinguishable at float
    # level -- by design the result is only ever a candidate triple.
    spec = ProgressionSpec(alpha=TWO_PI / math.log(2.0) + 1e-13)
    assert detect_rational(spec, 3, 10 ** 6) == (1, 2, 1)


def test_detect_requires_formless_spec(sym_spec):
    with pytest.raises(ValueError):
        detect_rational(sym_spec, 3, 10 ** 6)


def test_detect_precision_cap_overflow():
    # ell_max at alpha = 1e-4 would need ~9e4 bits for ell = 1 alone
    spec = ProgressionSpec(alpha=1e-4)
    with pytest.raises(OverflowError):
        detect_rational(spec, 2, 10 ** 6)


def test_detect_refuses_scan_past_work_budget(monkeypatch):
    # At alpha = 1 the scan to ell = 3000 works at up to 27 450 bits per ell,
    # about 7.6e11 squared bits (18.8 s on mpmath's pure-Python backend):
    # refused by arithmetic, before any exponential.  ell = 40 at alpha = 1
    # and ell = 16 at alpha = 0.01 (1.3e9) stay inside the budget; the
    # per-ell cap keeps its message and comes first.
    monkeypatch.setattr(mp, "exp", lambda *args: pytest.fail("exp taken"))
    with pytest.raises(OverflowError, match="ell = 1 .. 3000 needs about 7.62e"):
        detect_rational(ProgressionSpec(alpha=1.0), 3000, 10 ** 6)
    with pytest.raises(OverflowError, match="exceeds the exact-arithmetic configuration cap"):
        detect_rational(ProgressionSpec(alpha=0.0003), 40, 10 ** 6)
    for alpha, ell_max in ((1.0, 40), (0.01, 16)):
        dmod._check_detect_budget(alpha, ell_max, 10 ** 6)


def test_detect_refuses_den_max_past_precision(monkeypatch):
    # from den_max = 2^100 on, 1e-12/den_max^2 lies within 2^32 of x's
    # rounding: at 10^41 and alpha = 1 the subtraction x - p/q read 0 and
    # reported a form 1.0e-82 from x.  Refused before any exponential.
    monkeypatch.setattr(mp, "exp", lambda *args: pytest.fail("exp taken"))
    for den_max in (2 ** 100, 10 ** 41):
        with pytest.raises(ValueError, match="den_max must lie below 2\\^100"):
            detect_rational(ProgressionSpec(alpha=1.0), 40, den_max)
    dmod._check_detect_budget(1.0, 40, 2 ** 100 - 1)


def test_detect_alpha_one_finds_nothing_at_the_largest_cap():
    # test_detect_alpha_one_finds_nothing_deep out to the largest accepted
    # bit length of den_max, 100
    assert (10 ** 30).bit_length() == 100
    assert detect_rational(ProgressionSpec(alpha=1.0), 40, 10 ** 30) is None


# ---------------------------------------------------------------------------
# waldschmidt_bound
# ---------------------------------------------------------------------------

def test_waldschmidt_values():
    want = -2.0 ** 72 * math.log(2.0) * math.log(3.0) * math.log(math.log(3.0))
    assert waldschmidt_bound(1, 3) == pytest.approx(want, rel=1e-15)
    want2 = -2.0 ** 72 * math.log(4.0) * math.log(10.0) * math.log(math.log(10.0))
    assert waldschmidt_bound(2, 10) == pytest.approx(want2, rel=1e-15)


def test_waldschmidt_domain():
    with pytest.raises(ValueError):
        waldschmidt_bound(0, 10)
    with pytest.raises(ValueError):
        waldschmidt_bound(1, 2)   # ln ln p undefined


def test_waldschmidt_consistency_alpha_one():
    # every tuple found at alpha=1 must satisfy
    # ln(quality * e^{2 pi ell}) >= bound(2*ell, a).  At desk scale the
    # search finds none (vacuous), so also check the inequality on the best
    # *rejected* fraction for each ell: its defect, though too large to
    # qualify, still sits far above the transcendence floor.
    spec = ProgressionSpec(alpha=1.0)
    for ell in (1, 2, 3):
        tup = find_tuple(spec, ell, 1e6, 0.05)
        if tup is not None:
            lhs = math.log(tup.quality) + TWO_PI * ell
            assert lhs >= waldschmidt_bound(2 * ell, tup.a)
        with mp.workprec(300):
            x = mp.exp(mp.mpf(TWO_PI) * ell)
            b_cap = int(mp.e ** (0.45 * mp.log(1e6) - mp.pi * ell))
            best = min((abs(mp.mpf(int(mp.nint(x * b))) / b - x), int(mp.nint(x * b)))
                       for b in range(1, max(b_cap, 2)))
            defect, a = best
            lhs = float(mp.log(defect))
        assert lhs >= waldschmidt_bound(2 * ell, max(int(a), 3))
