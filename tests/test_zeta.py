"""Zeta engines: Euler-Maclaurin scalar, zeta on a progression, AFE square.

mpmath.zeta is the primary independent oracle (arbitrary precision, entirely
different algorithm); classical constants (pi^2/6, zeta(1/2), the first zero
ordinate) pin specific points.
"""
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.optimize

import zeta_oracle
from moments_oracle import eval_poly
from zeta_oracle import zeta_grid

from zetaprog import (AccuracyError, CapError, DirichletPoly, PoleError, RS_MIN_T,
                      afe_square, main_sum, mollifier_coeffs, progression_sum,
                      resonator_coeffs, zeta_critical_grid, zeta_em, zeta_on_progression)
from zetaprog import zeta as zmod
from zetaprog.zeta import RS_MAX_T

FIRST_ZERO = 14.134725141734693


def _mp_zeta(s: complex) -> complex:
    with mp.workdps(40):
        return complex(mp.zeta(mp.mpc(s.real, s.imag)))


def test_zeta_two():
    assert abs(zeta_em(2.0 + 0j) - math.pi ** 2 / 6) < 1e-10


def test_zeta_half():
    assert abs(zeta_em(0.5 + 0j) - (-1.4603545088095868)) < 1e-8


def test_pole_rejected():
    with pytest.raises(PoleError):
        zeta_em(1.0 + 0j)


def test_conjugation_exact():
    for s in (0.7 + 123.4j, 0.5 + 77.7j, 2.0 + 5.0j):
        assert zeta_em(np.conj(s)) == np.conj(zeta_em(s))


@pytest.mark.parametrize("s", [
    0.5 + 14.1347j,
    0.5 + 1000.0j,
    0.5 + 99999.5j,
    2.0 + 5000.0j,
    0.75 + 333.3j,
    # the largest errors per sigma of an mpmath (dps 30) scan of 306 heights
    # up to 1e5: 2.8e-13 (at 99999.5 above), 2.5e-14 and 1.1e-15
    0.75 + 76905.47510896383j,
    2.0 + 95688.84101109565j,
])
def test_em_against_mpmath(s):
    assert abs(zeta_em(s) - _mp_zeta(s)) < 1e-10


def test_em_left_of_critical_line_refused():
    # Left of the critical line the error grows like N^-sigma: at
    # s = -1 + 1e4 i the cutoff |Im s|/2 reads 5.0e-9 against mpmath (dps 30),
    # over the 1e-10 contract (the cutoff 2|Im s| reads 3.2e-7 there, the
    # rounding of a value of size 6e4), so zeta_em refuses Re s < 1/2.
    assert abs(zeta_em(0.5 + 1e4j) - _mp_zeta(0.5 + 1e4j)) < 1e-10
    for s in (-1.0 + 1e4j, 0.4999 + 0j, -1.0 - 5.0j):
        with pytest.raises(AccuracyError, match="left of Re s = 1/2"):
            zeta_em(s)


def test_em_hard_cap():
    with pytest.raises(AccuracyError):
        zeta_em(0.5 + 3e6j)


def test_em_cutoff_at_half_height():
    # N = floor(max|t|/2) + 1, at least 50; the 1e6-term cap refuses from
    # |t| = 2e6 on, before any work
    assert zmod._em_cutoff(np.array([10.0, -98.0])) == 50
    assert zmod._em_cutoff(np.array([1500.0, -1999.5])) == 1000
    assert zmod._em_cutoff(1.999e6) == 999_501
    with pytest.raises(AccuracyError):
        zmod._em_cutoff(2.0e6)


@pytest.mark.parametrize("t0, h, count, j", [
    (-1999.0, 9.0647, 441, 222),
    (-1999.0, 1.3, 3000, 1594),
])
def test_em_progression_scan_worst(t0, h, count, j):
    # The two largest errors of an mpmath (dps 30) scan of 614 nodes of 123
    # progression runs below RS_MIN_T, 1.4e-12 and 6.0e-13.  Both runs reach
    # |t| near 2000, so their cutoff is near 1000; at the small heights
    # t = 13.36 and 73.2 the rounding of that many terms is what is left.
    with mp.workdps(30):
        want = complex(mp.zeta(mp.mpc(0.5, mp.mpf(t0) + mp.mpf(h) * j)))
    assert abs(zeta_on_progression(t0, h, count)[j] - want) <= 1e-11


def _exact_bernoulli(n_max: int) -> list:
    # B_0 .. B_n_max as exact rationals, from sum_{k<=m} C(m+1, k) B_k = 0.
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


def test_bernoulli_numbers_exact():
    exact = _exact_bernoulli(32)
    for k in range(1, 17):
        assert zmod._BERN[2 * k] == float(exact[2 * k])


def _em_tail_terms(s, N, head=0.0):
    # the Euler-Maclaurin tail term by term, every operation a new array
    Ns = np.exp(-s * np.log(N))
    tot = head + (0.5 * Ns + Ns * N / (s - 1.0))
    fac = s * Ns / N
    for k in range(1, zmod._EM_ORDER + 1):
        tot = tot + zmod._BERN[2 * k] / math.factorial(2 * k) * fac
        fac = fac * (s + (2 * k - 1)) * (s + 2 * k) / (N * N)
    return tot


@pytest.mark.parametrize("sigma, N", [(0.5, 50), (0.5, 6001), (2.0, 317)])
def test_em_tail_in_place_bit_equal(rng, sigma, N):
    # _em_tail runs in place on two work arrays, in the formula's order of
    # operations: every bit of the term-by-term formula, head or none
    s = sigma + 1j * rng.uniform(-2.0 * N, 2.0 * N, 12000)
    head = rng.normal(size=12000) + 1j * rng.normal(size=12000)
    for h in (0.0, head):
        got, want = zmod._em_tail(s, N, h), _em_tail_terms(s, N, h)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("t", [300.0, 2000.0, 1e5, 1e6, 1e7])
def test_theta_against_mpmath(t):
    with mp.workdps(40):
        want = float(mp.siegeltheta(t))
    assert abs(float(zmod._theta(t)) - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# critical line
# ---------------------------------------------------------------------------

def test_first_zero_modulus():
    assert abs(zeta_em(0.5 + 1j * FIRST_ZERO)) < 1e-6


def test_first_zero_located_independently():
    # locate the |zeta| minimum with a bracketing optimizer that never sees
    # the known ordinate, then compare.
    res = scipy.optimize.minimize_scalar(
        lambda t: abs(zeta_em(0.5 + 1j * t)), bounds=(14.0, 14.3), method="bounded",
        options={"xatol": 1e-10})
    assert abs(res.x - FIRST_ZERO) < 1e-6
    assert res.fun < 1e-7


def test_critical_matches_em_below_switch():
    # below RS_MIN_T a height of the grid is one node of the reference
    # engine's Euler-Maclaurin run, bit for bit
    t = 500.0
    assert zeta_critical_grid([t])[0] == zeta_em(0.5 + 1j * t)


def test_rs_against_em_at_switchover(rng):
    # the Riemann-Siegel path takes over at RS_MIN_T; just above it the
    # Euler-Maclaurin scalar is still cheap, giving a dual-route check.
    ts = rng.uniform(RS_MIN_T, RS_MIN_T + 100, 50)
    rs = zeta_critical_grid(ts)
    for t, v in zip(ts, rs):
        assert abs(v - zeta_em(0.5 + 1j * t)) < 1e-6


def test_forced_rs_floor():
    # Riemann-Siegel runs from the seam RS_MIN_T up, the only heights
    # zeta_on_progression hands it: it refuses any height below, and meets
    # 1e-6 from the seam on (1.5e-9 on these nodes).
    for ts in ([RS_MIN_T - 1.0], [math.nextafter(RS_MIN_T, 0.0), RS_MIN_T]):
        with pytest.raises(AccuracyError, match="Riemann-Siegel runs only on t in"):
            zmod._riemann_siegel(np.array(ts), 1.0)
    ts = RS_MIN_T + 0.25 * np.arange(81)
    got = zmod._riemann_siegel(ts, 0.25)
    for t, v in zip(ts, got):
        assert abs(v - _mp_zeta(0.5 + 1j * t)) < 1e-6


def test_engines_refuse_heights_past_their_ceiling():
    # Riemann-Siegel refuses t > RS_MAX_T before any work (unguarded, 1e30
    # asks for a 2.8 PiB array and 1e300 gives nan); Euler-Maclaurin refuses
    # a cutoff past its hard cap before building it
    for ts in ([RS_MAX_T * (1.0 + 1e-15)], [1e300], [-1e300], [5e3, 3e7]):
        with pytest.raises(AccuracyError):
            zeta_critical_grid(np.array(ts))
    for t0, h in ((RS_MAX_T, 1.0), (1e30, 1.0), (1e300, 1.0), (-1e300, 1.0)):
        with pytest.raises(AccuracyError):
            zeta_on_progression(t0, h, 2)
    with pytest.raises(AccuracyError):
        zmod._riemann_siegel(np.array([math.inf]), 1.0)
    with pytest.raises(AccuracyError):
        zmod._euler_maclaurin(np.array([1e9]), 1.0)


def test_rs_just_below_ceiling():
    t = RS_MAX_T - 0.25
    want = _mp_zeta(0.5 + 1j * t)
    assert abs(zeta_critical_grid(np.array([t]))[0] - want) < 1e-6
    assert abs(zeta_on_progression(t - 0.5, 0.25, 3)[2] - want) < 1e-6


def test_rs_against_mpmath_high():
    t = 1e5
    got = zeta_critical_grid(np.array([t]))[0]
    assert abs(got - _mp_zeta(0.5 + 1j * t)) < 1e-6


def test_grid_matches_scalar_both_regimes(rng):
    low = rng.uniform(10, 1500, 20)          # Euler-Maclaurin
    high = rng.uniform(3000, 8000, 15)       # Riemann-Siegel
    for t, v in zip(low, zeta_critical_grid(low)):
        # same EM cutoff, different accumulation (fsum scalar vs matrix product)
        assert abs(v - zeta_em(0.5 + 1j * float(t))) < 1e-11
    for t, v in zip(high, zeta_critical_grid(high)):
        assert abs(v - zeta_em(0.5 + 1j * float(t))) < 1e-6


def test_grid_negative_t_by_conjugation(rng):
    ts = rng.uniform(50, 4000, 25)
    pos = zeta_critical_grid(ts)
    neg = zeta_critical_grid(-ts)
    assert np.array_equal(neg, np.conj(pos))


def test_mean_square_on_integers():
    # classical mean value: the average of |zeta(1/2+i ell)|^2 over
    # ell in [T, 2T] grows like log T; at T=2000 the ratio sits near 0.95.
    mean = float(np.mean(np.abs(zeta_on_progression(2000.0, 1.0, 2001)) ** 2))
    assert 0.8 * math.log(2000.0) < mean < 1.2 * math.log(2000.0)


# ---------------------------------------------------------------------------
# truncated main sums
# ---------------------------------------------------------------------------

def test_main_sum_small_case():
    want = 1.0 + 2 ** -0.5 + 3 ** -0.5 + 4 ** -0.5
    assert abs(main_sum(0.0, 4) - want) < 1e-12


def test_main_sum_long_cutoff_approximates_zeta():
    t = 500.0
    assert abs(main_sum(t, 2000) - zeta_em(0.5 + 1j * t)) < 5.0 / math.sqrt(t)


def test_main_sum_grid_inversion_regime(rng):
    # with the cutoff M >= max|t|/3 the main sum on a progression comes from
    # zeta by the Euler-Maclaurin tail inversion
    # Sum_{n<=M} n^-s = zeta(s) + M^-s/2 - M^(1-s)/(s-1) - C(M); agreement
    # with the direct scalar sum validates both the formula and the zeta
    # engine behind it.  With M < max|t|/3 it is one progression_sum.
    t0, h = rng.uniform(1000.0, 1400.0), 37.0
    ts = t0 + h * np.arange(15)
    for M, inverted in ((1000, True), (300, False)):
        assert (M >= np.max(np.abs(ts)) / 3.0) == inverted
        grid = zmod._main_sum_on_progression(ts, h, zeta_on_progression(t0, h, 15), M)
        for t, v in zip(ts, grid):
            assert abs(v - main_sum(float(t), M)) < 1e-10


def test_main_sum_validation():
    with pytest.raises(ValueError):
        main_sum(100.0, 0)


def _bounded_memory_cases():
    # a dense main sum of 3000 terms on 4000 nodes, whose unblocked
    # exponential matrices would be 192 MB, taken once from its terms and once
    # from the all-ones DirichletPoly as sample_progression takes B; EM zeta on
    # 4000 nodes at a cutoff of 4000, 256 MB unblocked; RS zeta on 40000 nodes
    # in the one m-group m = 300, whose unblocked phase matrix is 96 MB; and
    # the resonator's main sum of 7900 terms on the 7901 nodes of 1:2:1 at
    # T = 7900, which traced 12.8 MB with fresh tables per block of 2^18
    # entries and 3.1 MB in one reused buffer pair of 2^16.
    h = 2.5
    em0, em_h = 1000.0, 999.0 / 3999
    rs0 = 2 * np.pi * 300.5 ** 2
    rs_h = (2 * np.pi * 300.9 ** 2 - rs0) / 39999
    ones = DirichletPoly(np.r_[0.0, np.ones(3000)])
    res_h = 2 * np.pi / math.log(2)
    res_ts = res_h * np.arange(7900, 15801) + 0.25
    return {"progression_sum-main_sum": (lambda: progression_sum(np.arange(1, 3001),
                                                                 np.ones(3000), 1e4, h, 4000),
                                         main_sum(1e4, 3000), 1e-9, 64),
            "progression_sum-poly": (lambda: progression_sum(*ones.nonzero(), 1e4, h, 4000),
                                     main_sum(1e4, 3000), 1e-9, 64),
            "zeta_on_progression-em": (lambda: zeta_on_progression(em0, em_h, 4000),
                                       zeta_em(0.5 + 1j * em0), 1e-10, 64),
            "zeta_on_progression-rs": (lambda: zeta_on_progression(rs0, rs_h, 40000),
                                       _mp_zeta(0.5 + 1j * rs0), 1e-6, 64),
            "main_sum_on_progression-resonator": (
                lambda: zmod._main_sum_on_progression(res_ts, res_h, np.zeros(7901, dtype=complex),
                                                      7900),
                main_sum(res_ts[0], 7900), 1e-9, 6)}


@pytest.mark.parametrize("fn", ["progression_sum-main_sum", "progression_sum-poly",
                                "zeta_on_progression-em", "zeta_on_progression-rs",
                                "main_sum_on_progression-resonator"])
def test_progression_sums_bounded_memory(fn):
    run, want, tol, bound_mb = _bounded_memory_cases()[fn]
    tracemalloc.start()
    try:
        vals = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert abs(vals[0] - want) < tol


# ---------------------------------------------------------------------------
# baby-step giant-step sums on a progression
# ---------------------------------------------------------------------------

_DENSE_M = 7900
# first node per step: h = 1 and 2/32 stay below t = 2.5e4, h = 9.0647 (an
# exact form's slope) ends at t = 1.45e5
_T_FIRST = {1.0: 1000.0, 9.0647: 1.45e5 - 9.0647 * _DENSE_M, 2.0 / 32.0: 2.4e4}


def _kernel_cases():
    moll = mollifier_coeffs(1e4, 0.4)
    res = resonator_coeffs(400, "max").coeffs
    return {
        "dense": (np.arange(1, _DENSE_M + 1), np.ones(_DENSE_M),
                  lambda t: main_sum(t, _DENSE_M)),
        "resonator": (*res.nonzero(), lambda t: eval_poly(res, t)),
        "mollifier": (*moll.nonzero(), lambda t: eval_poly(moll, t)),
    }


@pytest.mark.parametrize("h", sorted(_T_FIRST))
@pytest.mark.parametrize("count", [0, 1, 2, 97, _DENSE_M])
@pytest.mark.parametrize("poly", ["dense", "resonator", "mollifier"])
def test_progression_sum_against_scalar(poly, count, h):
    ns, coeffs, scalar = _kernel_cases()[poly]
    t0 = _T_FIRST[h]
    got = progression_sum(ns, coeffs, t0, h, count)
    assert got.shape == (count,)
    picks = np.unique(np.r_[0, count // 2, count - 1,
                            np.random.default_rng(count).integers(0, count, 12)]) \
        if count else []
    for j in picks:
        t = t0 + h * j
        # the scalar sums reduce the phases in 80-bit; above t = 2.5e4 the
        # float64 rounding of t itself moves them by up to 3e-10
        tol = 1e-10 if t <= 2.5e4 else 1e-9
        assert abs(got[j] - scalar(t)) < tol, (j, t)


@pytest.mark.parametrize("poly", ["resonator", "mollifier"])
def test_progression_sum_far_corner(poly):
    # count = 2^20: K = 1024 baby and 1024 giant steps, so the last row of
    # each table is 1023 multiplications from its first.  The heights
    # 1000 + j/64 are exact in float64 and stay below 2.5e4.
    ns, coeffs, scalar = _kernel_cases()[poly]
    count, t0, h = 1 << 20, 1000.0, 1.0 / 64
    got = progression_sum(ns, coeffs, t0, h, count)
    for j in np.r_[count - 1, np.random.default_rng(count).integers(0, count, 12)]:
        assert abs(got[j] - scalar(t0 + h * j)) < 1e-10, j


def test_progression_sum_validation():
    ns, ones = np.arange(1, 5), np.ones(4)
    with pytest.raises(ValueError):
        progression_sum(ns, ones, 100.0, 1.0, -1)
    for t0, h in ((math.nan, 1.0), (100.0, math.inf), (math.inf, 0.0), (1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            progression_sum(ns, ones, t0, h, 3)
    for bad_ns in (np.arange(0, 4), np.r_[1.0, math.nan, 3.0, 4.0], -ns):
        with pytest.raises(ValueError, match="n >= 1"):
            progression_sum(bad_ns, ones, 100.0, 1.0, 3)
    for bad in (np.ones(3), np.ones((4, 1))):
        with pytest.raises(ValueError, match="one length"):
            progression_sum(ns, bad, 100.0, 1.0, 3)
    for starts in ([0, 1, 2], [0, 1, 2, 4], [-1, 0, 0, 0]):
        with pytest.raises(ValueError, match="starts"):
            progression_sum(ns, ones, 100.0, 1.0, 3, starts)


@pytest.mark.parametrize("count", [1, 97, 2000])
@pytest.mark.parametrize("poly", ["dense", "mollifier"])
def test_progression_sum_term_starts(poly, count):
    # Term k counts at the nodes j >= starts[k] only.  The starts cycle
    # through node 0, mid-row, a giant-step row boundary (K = 10 at count =
    # 97: nodes 15 and 20), the last node and never (start = count); at
    # every node the masked sum is eval_poly of the terms that have started.
    ns, coeffs, _ = _kernel_cases()[poly]
    ns, coeffs = ns[:400], coeffs[:400]
    t0, h = 1000.0, 1.0
    K = math.isqrt(count - 1) + 1
    cycle = [0, K + K // 2, 2 * K, count - 1, count]
    starts = np.minimum([cycle[k % len(cycle)] for k in range(len(ns))], count)
    got = progression_sum(ns, coeffs, t0, h, count, starts)
    assert got.shape == (count,)
    for j in range(count):
        values = np.zeros(ns[-1] + 1)
        values[ns[starts <= j]] = coeffs[starts <= j]
        want = eval_poly(DirichletPoly(values), t0 + h * j) if np.any(values) else 0j
        assert abs(got[j] - want) < 1e-10, j
    assert np.array_equal(progression_sum(ns, coeffs, t0, h, count, np.zeros(len(ns), int)),
                          progression_sum(ns, coeffs, t0, h, count))
    if poly == "dense":
        # the Riemann-Siegel heads: term n from the first node where m >= n
        m = 1 + np.arange(count) * len(ns) // count
        heads = progression_sum(ns, coeffs, t0, h, count, np.searchsorted(m, ns))
        for j in range(count):
            assert abs(heads[j] - main_sum(t0 + h * j, m[j])) < 1e-10, j


# ---------------------------------------------------------------------------
# zeta on a progression
# ---------------------------------------------------------------------------

_EDGE = 2 * np.pi * 20 ** 2  # an m-group edge: sqrt(t/2pi) = 20
_ALPHA = 9.0647               # an exact form's slope

_PROGRESSIONS = {
    "em": (100.0, 0.25, 2001),
    "em-wide": (10.0, 0.37, 5000),
    "rs": (5000.0, 0.37, 3000),
    "crossing": (1500.0, 0.37, 3000),
    "crossing-on-node": (RS_MIN_T - 1.0, 0.25, 9),
    "m-edges": (2400.0, 1.3, 2000),
    "edge-on-node": (_EDGE - 1.25, 0.25, 11),
    "count-0": (3000.0, 0.5, 0),
    "count-1": (3000.0, 0.5, 1),
    "count-2": (1999.75, 0.5, 2),
    "dyadic-1": (_ALPHA * 300.25, _ALPHA / 2, 1201),
    "dyadic-3": (_ALPHA * 300.25, _ALPHA / 8, 4801),
    "dyadic-5": (_ALPHA * 300.25, _ALPHA / 32, 19201),
    "negative": (-5000.0, 0.37, 3000),
    "descending": (3000.0, -0.5, 3000),
    "descending-through-zero": (2500.0, -1.3, 4000),
    "descending-crossing-on-node": (1.0 - RS_MIN_T, -0.25, 9),
    "through-zero": (-2500.0, 1.3, 4000),
    "em-through-zero": (-700.0, 0.5, 2801),
}


@pytest.mark.parametrize("case", list(_PROGRESSIONS))
def test_zeta_on_progression_matches_grid(case):
    t0, h, count = _PROGRESSIONS[case]
    ts = t0 + h * np.arange(count)
    if case == "edge-on-node":
        assert ts[5] == _EDGE
    if case == "crossing-on-node":
        assert ts[4] == RS_MIN_T
    if case == "descending-crossing-on-node":
        assert ts[4] == -RS_MIN_T
    got = zeta_on_progression(t0, h, count)
    assert got.shape == (count,)
    if count:
        assert np.max(np.abs(got - zeta_grid(ts))) < 1e-9
    for j in sorted({0, count // 2, count - 1}) if count else []:
        assert abs(got[j] - _mp_zeta(0.5 + 1j * ts[j])) < 1e-6, (j, ts[j])


def test_zeta_on_progression_validation():
    with pytest.raises(ValueError):
        zeta_on_progression(3000.0, 1.0, -1)
    for t0, h in ((math.nan, 1.0), (3000.0, math.inf), (math.inf, 0.0)):
        with pytest.raises(ValueError):
            zeta_on_progression(t0, h, 3)


def _rs_fit_eval(M, p):
    # C_0..C_4 at each p from a table in u = 2x^2 - 1, x = 2p - 1, whose
    # columns 1 and 3 hold C_1/x and C_3/x
    x = 2.0 * p - 1.0
    C = np.polynomial.chebyshev.chebvander(2.0 * x * x - 1.0, len(M) - 1) @ M
    C[:, 1::2] *= x[:, None]
    return C


def test_rs_remainder_matrix_matches_pointwise(rng):
    # The 11-row fit in u of C_0, C_1/x, .., C_4 against _rs_coeffs at 4096
    # random p.  On 400001 equally spaced p the largest difference reads
    # 9.4e-14 (C_4: the fit's own error, the pointwise values being within
    # 1.1e-14 of mpmath); 10 rows read 5.1e-12.
    M = zmod._rs_remainder_matrix()
    assert M.shape == (11, 5)
    p = rng.random(4096)
    assert np.max(np.abs(_rs_fit_eval(M, p) - zmod._rs_coeffs(p))) < 1e-13


def test_rs_coeffs_parity_about_one_half():
    # In the 22-row Chebyshev fit in x = 2p - 1, the rows of the other parity
    # vanish to rounding: odd rows of the even C_0, C_2, C_4 and even rows of
    # the odd C_1, C_3 (largest 1.7e-15), which is what the table in u drops.
    x = np.polynomial.chebyshev.chebpts1(22)
    fit = np.polynomial.chebyshev.chebfit(x, zmod._rs_coeffs((x + 1.0) / 2.0), 21)
    assert np.max(np.abs(fit[1::2, 0::2])) < 2e-15
    assert np.max(np.abs(fit[0::2, 1::2])) < 2e-15


def _rs_full_fit(rows=21):
    # the Chebyshev interpolant in u of C_0, C_1/x, .., C_4 at rows far past
    # the package's 11
    u = np.polynomial.chebyshev.chebpts1(rows)
    x = np.sqrt((u + 1.0) / 2.0)
    C = zmod._rs_coeffs((x + 1.0) / 2.0)
    C[:, 1::2] /= x[:, None]
    return np.polynomial.chebyshev.chebfit(u, C, rows - 1)


def test_rs_fit_truncated_at_tail():
    # Against a 21-row interpolant, each series of the 11-row fit drops
    # coefficients summing below 1e-13 in absolute value (the largest, C_4,
    # reads 7.7e-14), and 11 rows are the fewest such: dropping from row 10
    # on leaves 5.0e-12 in C_4.  The kept coefficients agree within 1e-13
    # (1.1e-14).
    M = zmod._rs_remainder_matrix()
    full = _rs_full_fit()
    assert np.all(np.sum(np.abs(full[len(M):]), axis=0) < 1e-13)
    assert np.any(np.sum(np.abs(full[len(M) - 1:]), axis=0) >= 1e-13)
    assert np.max(np.abs(M - full[:len(M)])) < 1e-13


def test_rs_grid_truncation_against_full_fit(monkeypatch):
    # _riemann_siegel reads its one table from _rs_remainder_matrix, so the
    # 21-row fit takes its place; the run must move (by 5.0e-15), or the
    # patch missed.
    h = (1e6 - RS_MIN_T) / 1999
    ts = RS_MIN_T + h * np.arange(2000)
    cut = zmod._riemann_siegel(ts, h)
    monkeypatch.setattr(zmod, "_rs_remainder_matrix", _rs_full_fit)
    full = zmod._riemann_siegel(ts, h)
    assert not np.array_equal(cut, full)
    assert np.max(np.abs(cut - full)) < 1e-12


def _oracle_with_package_heads(monkeypatch, ts, h):
    # zeta_oracle._riemann_siegel with its per-group direct heads replaced by
    # the package's one-pass heads, so that only theta, the remainder and the
    # rotation are compared
    m = np.floor(np.sqrt(ts / (2 * np.pi))).astype(np.int64)
    heads = zmod._rs_heads(ts, h, m)

    def one_pass(M, run):
        lo = int(np.flatnonzero(ts == run[0])[0])
        assert np.all(m[lo:lo + len(run)] == M)
        return heads[lo:lo + len(run)]

    monkeypatch.setattr(zeta_oracle, "_direct_sum", one_pass)
    return zeta_oracle._riemann_siegel(ts)


@pytest.mark.parametrize("t0", [RS_MIN_T, 2e4, 2e5, 2e6])
def test_rs_matches_per_series_oracle_per_decade(monkeypatch, t0):
    # One 2000-node run over each decade from RS_MIN_T to RS_MAX_T: the
    # table in u against C_0..C_4 taken pointwise from _rs_coeffs (the
    # largest difference reads 4.0e-15).
    h = (min(10.0 * t0, RS_MAX_T) - t0) / 1999
    ts = t0 + h * np.arange(2000)
    got = zmod._riemann_siegel(ts, h)
    assert np.max(np.abs(got - _oracle_with_package_heads(monkeypatch, ts, h))) <= 1e-13


def test_rs_blocked_matches_per_series_oracle(monkeypatch):
    # 20000 nodes in three blocks of _RS_BLOCK; the block edges at 8192 and
    # 16384 fall inside the m-groups m = 30 and m = 32.  With the oracle's
    # per-group heads replaced by the package's one-pass heads, the blocked
    # remainder, theta and rotation match the oracle's, whose C_0..C_4 come
    # pointwise from _rs_coeffs.
    t0, h, count = 5000.0, 0.1, 20000
    ts = t0 + h * np.arange(count)
    m = np.floor(np.sqrt(ts / (2 * np.pi))).astype(np.int64)
    assert zmod._RS_BLOCK == 8192 and count > 2 * zmod._RS_BLOCK
    for edge in (zmod._RS_BLOCK, 2 * zmod._RS_BLOCK):
        assert m[edge - 1] == m[edge]
    got = zmod._riemann_siegel(ts, h)
    assert np.max(np.abs(got - _oracle_with_package_heads(monkeypatch, ts, h))) <= 1e-13


# ---------------------------------------------------------------------------
# AFE square
# ---------------------------------------------------------------------------

def test_afe_matches_abs_square_midrange():
    t = 1000.0
    truth = abs(zeta_em(0.5 + 1j * t)) ** 2
    assert abs(afe_square(t) - truth) < 1e-2


def test_afe_low_t_with_explicit_cap():
    val = afe_square(10.0, cap=1e3)
    assert np.isfinite(val)
    assert val >= 0.0


def test_afe_cap_must_cover_t():
    with pytest.raises(CapError):
        afe_square(1000.0, cap=500.0)


def test_afe_rejects_tiny_t():
    with pytest.raises(ValueError):
        afe_square(5.0)


def test_afe_epsilon_stability():
    # the smoothed tail between the default cutoff t^1.2 and t^1.3 moves the
    # value by under 1e-2 at t=5000 (frozen from direct evaluation; the
    # envelope below is deliberately loose because the cutoff change is not a
    # no-op).  A cap below t^1.2 is a CapError.
    t = 5000.0
    a = afe_square(t)
    b = afe_square(t, cap=t ** 1.3)
    assert abs(a - b) < 0.05


def test_scalar_api_returns_python_complex():
    # zeta_em once returned numpy.complex128, and selftest's report read
    # zeta(2)=np.float64(...)
    for z in (zeta_em(2), zeta_em(0.5 - 3j), zeta_em(0.5 + 5j), main_sum(-3.0, 40)):
        assert type(z) is complex
