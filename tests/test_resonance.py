"""Resonator construction, excluded primes, resonated averages, extremes.

The bounds min Re A <= R <= max Re A are exact by convexity (R is the real
part of a mean with nonnegative weights), and the Euler product gives an
independent multiplicative prediction for R.  Desk-scale caveat: the
paper's prime window [L^2, exp((ln L)^2)] is empty for every reachable N, so
the resonator takes the primes in [L^2, N], and the trivial resonator b(1) = 1
is built by hand.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from gl_oracle import gl_panels
from zeta_oracle import main_sum_grid, poly_grid

from zetaprog import (DegenerateDenominatorError, DirichletPoly, ProgressionSpec,
                      Resonator, build_excluded_set, euler_product_prediction, extreme_search,
                      ratio_R, resonator_coeffs, sample_progression)
from zetaprog.quadrature import NODE_CAP
from zetaprog.resonance import _SUPPORT_CAP
from zetaprog.sieves import primes_in


def _sample(spec, window, T, resonator):
    return sample_progression(spec, window, T, resonator.coeffs)


def _trivial(N=100):
    """The resonator b(1) = 1 with the scale and lowest prime of length N."""
    L = math.sqrt(math.log(N) * math.log(math.log(N)))
    return Resonator(N=N, L=L, prime_lo=L * L, excluded=frozenset(), mode="max",
                     coeffs=DirichletPoly.one())


# ---------------------------------------------------------------------------
# prime window and coefficients
# ---------------------------------------------------------------------------

def test_asymptotic_window_is_empty_at_desk_scale():
    # The paper's window [L^2, exp((ln L)^2)] is empty while ln L < 2, that is
    # up to N = 1.2e8: no primes at all, from the shortest resonator to the
    # longest resonator_coeffs takes, which is why it takes [L^2, N].  And
    # N >= 100 exceeds T^(1/6) at every T whose integers in [T, 2T] fit the
    # node budget (T < NODE_CAP): every resonator is exploratory at desk scale.
    for N in (100, _SUPPORT_CAP):
        L = math.sqrt(math.log(N) * math.log(math.log(N)))
        assert math.exp(math.log(L) ** 2) < L * L
    assert NODE_CAP ** (1.0 / 6.0) < 14.3


def test_coefficients_on_primes():
    r = resonator_coeffs(100, "max")
    L = math.sqrt(math.log(100.0) * math.log(math.log(100.0)))
    assert r.L == pytest.approx(L, rel=1e-14)
    ns, _ = r.coeffs.nonzero()
    ps = [n for n in ns.tolist() if n != 1]
    # window [L^2, N]: primes from 11 to 97, and no products fit under 100
    assert ps == primes_in(L * L, 100.0)
    assert ps[0] == 11
    for p in ps:
        assert r.coeffs.coeff(p) == pytest.approx(L / math.log(p), rel=1e-14)
    # r(p) < 1 always: the coefficient stays below sqrt(p)
    for p in ps:
        assert abs(r.coeffs.coeff(p)) < math.sqrt(p)


def test_min_mode_flips_sign():
    rmax = resonator_coeffs(100, "max")
    rmin = resonator_coeffs(100, "min")
    ns, _ = rmax.coeffs.nonzero()
    for n in ns.tolist():
        if n == 1:
            continue
        assert rmin.coeffs.coeff(n) == -rmax.coeffs.coeff(n)


def test_multiplicative_on_squarefree_products():
    r = resonator_coeffs(200, "max")
    # 143 = 11*13 fits under 200; its coefficient is the product of its
    # primes' factors, taken once each, so the equality is exact
    assert r.coeffs.coeff(143) == r.coeffs.coeff(11) * r.coeffs.coeff(13)
    assert r.coeffs.coeff(1) == 1.0


@pytest.mark.parametrize("mode", ["max", "min"])
def test_coefficients_against_factorization(mode):
    # At N = 1e5 the window starts at 29, so the excluded 29 and 31 remove
    # three-prime products such as 29*31*37 = 33263, while 37*41*43 = 65231
    # stays.  Each coefficient is the product, in ascending prime order, of
    # +-L/ln p over its prime factors, or 0 off the squarefree products of
    # admissible primes.
    N, excluded = 100_000, frozenset({29, 31, 101})
    r = resonator_coeffs(N, mode, excluded=excluded)
    sign = 1.0 if mode == "max" else -1.0
    want = np.zeros(N + 1)
    for n in range(1, N + 1):
        m, ps, d = n, [], 2
        while d * d <= m:
            while m % d == 0:
                ps.append(d)
                m //= d
            d += 1
        if m > 1:
            ps.append(m)
        if len(set(ps)) < len(ps) or any(p < r.prime_lo or p in excluded for p in ps):
            continue
        v = 1.0
        for p in ps:
            v *= sign * r.L / math.log(p)
        want[n] = v
    assert np.array_equal(r.coeffs.values, want)
    assert want[33263] == 0.0 and want[65231] != 0.0


def test_support_is_squarefree_within_window():
    r = resonator_coeffs(200, "max")
    ns, _ = r.coeffs.nonzero()
    for n in ns.tolist():
        if n == 1:
            continue
        m, d = n, 2
        while d * d <= m:
            assert m % (d * d) != 0
            if m % d == 0:
                m //= d
            d += 1


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("N", [100, 1000, 30030, 100_000])
def test_support_stays_within_length(N, mode):
    # the support lies in {1..N}, so the N <= _SUPPORT_CAP check bounds it
    ns, _ = resonator_coeffs(N, mode).coeffs.nonzero()
    assert len(ns) <= N and ns.max() <= N


def test_excluded_primes_annihilate_support():
    r = resonator_coeffs(200, "max", excluded=frozenset({11}))
    assert r.coeffs.coeff(11) == 0.0
    assert r.coeffs.coeff(143) == 0.0
    assert r.coeffs.coeff(13) != 0.0


def test_resonator_validation():
    with pytest.raises(ValueError):
        resonator_coeffs(50, "max")
    with pytest.raises(ValueError):
        resonator_coeffs(100, "sideways")


# ---------------------------------------------------------------------------
# excluded set
# ---------------------------------------------------------------------------

def test_excluded_set_alpha_one_empty(unit_spec):
    assert build_excluded_set(unit_spec, 1e4) == frozenset()


def test_excluded_set_symbolic_contains_two(sym_spec):
    assert build_excluded_set(sym_spec, 1e4) == frozenset({2})


def test_excluded_set_size_bound():
    for alpha in (1.0, 2.0 * math.pi / math.log(2.0), 2.0 * math.pi / math.log(1.5)):
        spec = ProgressionSpec(alpha=alpha)
        for T in (1e3, 1e4):
            s = build_excluded_set(spec, T)
            assert len(s) <= 4.0 * math.log(T)


def _spf(n):
    """The smallest prime factor of n >= 2, by trial division."""
    return next(d for d in range(2, n + 1) if n % d == 0)


def _excluded_by_definition(spec, T, eps):
    """S by its definition: every coprime 1 <= b < a < T^(1/2-eps) whose
    defect |alpha*log(a/b)/(2*pi) - ell| is at most T^(eps-1) for some
    1 <= ell <= 2 ln T, decided at 110 digits with the float alpha and 2*pi;
    the smallest prime factors of a and of b > 1."""
    C, tol, ell_max = T ** (0.5 - eps), T ** (eps - 1.0), int(2.0 * math.log(T))
    out = set()
    with mp.workdps(110):
        scale = mp.mpf(spec.alpha) / (2.0 * math.pi)
        for a in range(2, math.ceil(C)):
            for b in range(1, a):
                if math.gcd(a, b) != 1:
                    continue
                d = scale * mp.log(mp.mpf(a) / b)
                ell = int(mp.nint(d))
                if 1 <= ell <= ell_max and abs(d - ell) <= tol:
                    out |= {_spf(a)} | ({_spf(b)} if b > 1 else set())
    return frozenset(out)


@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("T", [300.0, 3100.0, 1e4])
@pytest.mark.parametrize("spec", [
    ProgressionSpec.from_rational(1, 2, 1, beta=0.25),
    ProgressionSpec.from_rational(1, 3, 2),
    ProgressionSpec.from_rational(2, 5, 1),
    *(ProgressionSpec(alpha=a) for a in (1.0, 1.3, 3.0, 9.0647)),
], ids=["1:2:1", "1:3:2", "2:5:1", "alpha-1", "alpha-1.3", "alpha-3", "alpha-9.0647"])
def test_excluded_set_is_its_definition(spec, T, eps):
    # the band's listing against a brute scan of every pair below the cap
    assert build_excluded_set(spec, T, eps) == _excluded_by_definition(spec, T, eps)


def test_excluded_set_one_three_two():
    # find_tuple's tuples at the same T give {2, 3, 173}
    assert build_excluded_set(ProgressionSpec.from_rational(1, 3, 2), 3100.0) == frozenset({2, 3})


def test_excluded_set_validation(unit_spec):
    with pytest.raises(ValueError):
        build_excluded_set(unit_spec, 50.0)
    # T^(eps-1) = 1e-190 is finer than x at 256 bits
    with pytest.raises(ValueError, match="build_excluded_set's tolerance T\\^\\(eps-1\\) at T = 1e\\+200"):
        build_excluded_set(unit_spec, 1e200)


# ---------------------------------------------------------------------------
# resonated average R
# ---------------------------------------------------------------------------

def test_trivial_resonator_gives_unit_ratio(unit_spec, window):
    triv = _trivial()
    r = ratio_R(_sample(unit_spec, window, 1e4, triv), triv)
    assert abs(r - 1.0) < 0.01


def test_resonated_ordering(unit_spec, window):
    T = 1e4
    rmax = resonator_coeffs(100, "max")
    rmin = resonator_coeffs(100, "min")
    triv = _trivial()
    vmax = ratio_R(_sample(unit_spec, window, T, rmax), rmax)
    vmin = ratio_R(_sample(unit_spec, window, T, rmin), rmin)
    vtriv = ratio_R(_sample(unit_spec, window, T, triv), triv)
    assert vmin < vtriv < vmax
    assert vmin < 1.0 < vmax


def test_ratio_is_a_convex_average(unit_spec, window):
    # R = sum(A * mass)/sum(mass) with mass >= 0, so Re R lies between the
    # extreme Re A values over the live window -- exactly, no slack needed.
    T = 1e4
    rmax = resonator_coeffs(100, "max")
    r = ratio_R(_sample(unit_spec, window, T, rmax), rmax)
    ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
    live = window.phi(ell / T) > 0.0
    A = main_sum_grid(ell[live], int(T))
    assert A.real.min() - 1e-9 <= r <= A.real.max() + 1e-9


def test_degenerate_resonator_rejected(unit_spec, window):
    dead = Resonator(N=1, L=1.0, prime_lo=0.0, excluded=frozenset(), mode="max",
                     coeffs=DirichletPoly(np.array([0.0, 0.0])))
    with pytest.raises(DegenerateDenominatorError):
        ratio_R(_sample(unit_spec, window, 1e3, dead), dead)


def test_resonated_average_warns_nothing(unit_spec, window):
    # Neither N = 100 > T^(1/6) = 4.64 nor the max-mode residual (Im R =
    # 1.5e-2 at R = 1.36 at this T, a weighted average of Im A) raises a
    # warning; R and the search speak through their results alone
    rmax = resonator_coeffs(100, "max")
    sample = _sample(unit_spec, window, 1e4, rmax)
    for fn in (ratio_R, extreme_search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn(sample, rmax)
        assert caught == []


def test_sample_of_another_polynomial_rejected(unit_spec, window):
    rmax = resonator_coeffs(100, "max")
    rmin = resonator_coeffs(100, "min")
    sample = _sample(unit_spec, window, 1e3, rmin)
    for fn in (ratio_R, extreme_search):
        with pytest.raises(ValueError, match="resonator's coefficients"):
            fn(sample, rmax)


# ---------------------------------------------------------------------------
# Euler-product prediction
# ---------------------------------------------------------------------------

def test_euler_prediction_trivial_is_one():
    ep = euler_product_prediction(_trivial())
    assert ep.prediction == 1.0


def test_euler_prediction_brackets_ratio(unit_spec, window):
    T = 1e4
    rmax = resonator_coeffs(100, "max")
    vmax = ratio_R(_sample(unit_spec, window, T, rmax), rmax)
    ep = euler_product_prediction(rmax)
    assert abs(vmax - ep.prediction) <= 0.30 * vmax
    assert ep.envelope_low < ep.prediction < ep.envelope_high


def test_euler_min_mode_below_one():
    rmin = resonator_coeffs(100, "min")
    ep = euler_product_prediction(rmin)
    assert 0.0 < ep.prediction < 1.0


def test_euler_first_order_on_small_terms():
    # for primes with x_p = L/(p ln p) < 0.01 the log expansion should match
    # the first-order sum to about the size of the quadratic remainder.
    r = resonator_coeffs(10_000, "min")
    ps = primes_in(r.prime_lo, 10_000.0)
    xs = np.array([r.L / (p * math.log(p)) for p in ps])
    small = xs[xs < 0.01]
    assert len(small) > 100
    lhs = float(np.sum(np.log1p(-small)))
    rhs = float(-np.sum(small))
    assert abs(lhs - rhs) <= 0.01 * abs(rhs)


def test_excluded_set_correction_is_negligible(sym_spec, window):
    # the excluded set for the symbolic progression is {2}, which sits below
    # the admissible prime window: removing it changes nothing at all.
    s = build_excluded_set(sym_spec, 1e4)
    r_plain = resonator_coeffs(1000, "max")
    r_excl = resonator_coeffs(1000, "max", excluded=s)
    assert np.array_equal(r_plain.coeffs.values, r_excl.coeffs.values)
    ep, eq = euler_product_prediction(r_plain), euler_product_prediction(r_excl)
    assert ep.prediction == eq.prediction
    # and the progression-linked numerators are annihilated either way:
    # tuples at alpha = 2 pi/ln 2 are (2^ell, 1), never squarefree beyond 2
    assert r_excl.coeffs.coeff(2) == 0.0
    assert r_excl.coeffs.coeff(4) == 0.0


# ---------------------------------------------------------------------------
# moment transfer: short polynomials pass from discrete to continuous
# ---------------------------------------------------------------------------

def test_short_polynomial_moment_transfer(unit_spec, window):
    # with poly length below T^{1/6}, discrete sums over the progression and
    # the continuous integral agree closely, both bare and twisted by the
    # truncated main sum A.
    T = 2e4
    poly = DirichletPoly(np.array([0.0, 1.0, 0.5, -0.3, 0.0, 0.2]))
    ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
    phi_d = window.phi(ell / T)
    B_d = poly_grid(poly, ell)
    tq, wq = gl_panels(T, 2 * T, int(T / 2), 20)
    phi_q = window.phi(tq / T)
    B_q = poly_grid(poly, tq)

    disc_plain = float(np.sum(phi_d * np.abs(B_d) ** 2))
    cont_plain = float(np.sum(wq * phi_q * np.abs(B_q) ** 2))
    assert abs(disc_plain - cont_plain) <= 1e-6 * cont_plain

    A_d = main_sum_grid(ell, int(T))
    A_q = main_sum_grid(tq, int(T))
    disc_tw = float(np.real(np.sum(phi_d * A_d * np.abs(B_d) ** 2)))
    cont_tw = float(np.real(np.sum(wq * phi_q * A_q * np.abs(B_q) ** 2)))
    assert abs(disc_tw - cont_tw) <= 0.05 * abs(cont_tw)
    # frozen regression: measured 3.3e-4 relative
    assert abs(disc_tw - cont_tw) <= 5e-3 * abs(cont_tw)


# ---------------------------------------------------------------------------
# extreme search
# ---------------------------------------------------------------------------

def test_extreme_search_max_mode(unit_spec, window):
    T = 1e4
    rmax = resonator_coeffs(100, "max")
    rep = extreme_search(_sample(unit_spec, window, T, rmax), rmax)
    assert T <= rep.ell_star <= 2 * T
    assert rep.t_star == unit_spec.alpha * rep.ell_star + unit_spec.beta
    assert rep.witness_abs == pytest.approx(abs(rep.zeta_star), rel=1e-12)
    assert rep.global_abs >= rep.witness_abs
    # the resonator-weighted witness beats the typical point by a wide margin
    assert rep.witness_abs >= 2.0 * rep.median_abs
    assert rep.certified
    assert rep.global_abs >= abs(rep.ratio) - rep.slack


def test_extreme_search_min_mode(unit_spec, window):
    T = 1e4
    rmin = resonator_coeffs(100, "min")
    rep = extreme_search(_sample(unit_spec, window, T, rmin), rmin)
    assert rep.witness_abs <= 0.5 * rep.median_abs
    assert rep.certified
    assert rep.global_abs <= abs(rep.ratio) + rep.slack
    assert rep.global_abs <= rep.witness_abs


def test_extreme_search_deterministic(unit_spec, window):
    rmax = resonator_coeffs(100, "max")
    a = extreme_search(_sample(unit_spec, window, 1e4, rmax), rmax)
    b = extreme_search(_sample(unit_spec, window, 1e4, rmax), rmax)
    assert a == b
