"""Resonator construction, excluded primes, resonated averages, extremes.

The sandwich min|A| <= Re(R) <= max|A| is exact by convexity (R is a
weighted mean with nonnegative weights), and the Euler product gives an
independent multiplicative prediction for R.  Desk-scale caveat: the
narrow admissible prime window [L^2, exp((ln L)^2)] is empty for every
reachable N, so the extended window (with its ExploratoryWarning) does the
actual resonating; the tests pin both behaviours.
"""
import math
import warnings

import numpy as np
import pytest

from zetaprog import (DegenerateDenominatorError, DirichletPoly,
                      ExploratoryWarning, ProgressionSpec, ResidualWarning,
                      Resonator, SmoothWindow, asymptotic_prime_window,
                      build_excluded_set, euler_product_prediction,
                      eval_poly_grid, extreme_search, main_sum_grid,
                      ratio_R, resonator_coeffs, sample_progression)
from zetaprog.quadrature import gl_panels
from zetaprog.sieves import primes_in


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExploratoryWarning)
        return fn(*args, **kwargs)


def _sample(spec, window, T, resonator):
    return sample_progression(spec, window, T, resonator.coeffs)


# ---------------------------------------------------------------------------
# prime window and coefficients
# ---------------------------------------------------------------------------

def test_asymptotic_window_is_empty_at_desk_scale():
    L, lo, hi = asymptotic_prime_window(100)
    assert L == pytest.approx(math.sqrt(math.log(100.0) * math.log(math.log(100.0))), rel=1e-14)
    assert hi < lo  # exp((ln L)^2) < L^2 for small L: no primes at all


def test_auto_window_falls_back_with_warning():
    with pytest.warns(ExploratoryWarning):
        r = resonator_coeffs(100, "max", window="auto")
    assert r.window_kind == "extended"


def test_asymptotic_window_yields_trivial_resonator():
    r = resonator_coeffs(100, "max", window="asymptotic")
    ns, bs = r.coeffs.nonzero()
    assert ns.tolist() == [1]
    assert bs.tolist() == [1.0]


def test_coefficients_on_primes():
    r = _quiet(resonator_coeffs, 100, "max")
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
    rmax = _quiet(resonator_coeffs, 100, "max")
    rmin = _quiet(resonator_coeffs, 100, "min")
    ns, _ = rmax.coeffs.nonzero()
    for n in ns.tolist():
        if n == 1:
            continue
        assert rmin.coeffs.coeff(n) == -rmax.coeffs.coeff(n)


def test_multiplicative_on_squarefree_products():
    r = _quiet(resonator_coeffs, 200, "max")
    # 143 = 11*13 fits under 200; the DFS multiplies the prime factors once
    # each, so the equality is exact
    assert r.coeffs.coeff(143) == r.coeffs.coeff(11) * r.coeffs.coeff(13)
    assert r.coeffs.coeff(1) == 1.0


def test_support_is_squarefree_within_window():
    r = _quiet(resonator_coeffs, 200, "max")
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


def test_excluded_primes_annihilate_support():
    r = _quiet(resonator_coeffs, 200, "max", excluded=frozenset({11}))
    assert r.coeffs.coeff(11) == 0.0
    assert r.coeffs.coeff(143) == 0.0
    assert r.coeffs.coeff(13) != 0.0


def test_resonator_validation():
    with pytest.raises(ValueError):
        resonator_coeffs(50, "max")
    with pytest.raises(ValueError):
        _quiet(resonator_coeffs, 100, "sideways")
    with pytest.raises(ValueError):
        resonator_coeffs(100, "max", window="bogus")


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


def test_excluded_set_validation(unit_spec):
    with pytest.raises(ValueError):
        build_excluded_set(unit_spec, 50.0)


# ---------------------------------------------------------------------------
# resonated average R
# ---------------------------------------------------------------------------

def test_trivial_resonator_gives_unit_ratio(unit_spec, window):
    triv = resonator_coeffs(100, "max", window="asymptotic")
    r = _quiet(ratio_R, _sample(unit_spec, window, 1e4, triv), triv)
    assert abs(r - 1.0) < 0.01


def test_resonated_ordering(unit_spec, window):
    T = 1e4
    rmax = _quiet(resonator_coeffs, 100, "max")
    rmin = _quiet(resonator_coeffs, 100, "min")
    triv = resonator_coeffs(100, "max", window="asymptotic")
    with pytest.warns(ResidualWarning):
        vmax = _quiet(ratio_R, _sample(unit_spec, window, T, rmax), rmax)
    vmin = _quiet(ratio_R, _sample(unit_spec, window, T, rmin), rmin)
    vtriv = _quiet(ratio_R, _sample(unit_spec, window, T, triv), triv)
    assert vmin < vtriv < vmax
    assert vmin < 1.0 < vmax


def test_ratio_is_a_convex_average(unit_spec, window):
    # R = sum(A * mass)/sum(mass) with mass >= 0, so Re R lies between the
    # extreme Re A values over the live window -- exactly, no slack needed.
    T = 1e4
    rmax = _quiet(resonator_coeffs, 100, "max")
    with pytest.warns(ResidualWarning):
        r = _quiet(ratio_R, _sample(unit_spec, window, T, rmax), rmax)
    ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
    live = window.phi(ell / T) > 0.0
    A = main_sum_grid(ell[live], int(T))
    assert A.real.min() - 1e-9 <= r <= A.real.max() + 1e-9


def test_degenerate_resonator_rejected(unit_spec, window):
    dead = Resonator(N=1, L=1.0, prime_lo=0.0, prime_hi=0.0,
                     excluded=frozenset(), mode="max",
                     coeffs=DirichletPoly(np.array([0.0, 0.0])),
                     window_kind="asymptotic")
    with pytest.raises(DegenerateDenominatorError):
        _quiet(ratio_R, _sample(unit_spec, window, 1e3, dead), dead)


def test_paper_strict_validity_enforced(unit_spec, window):
    rmax = _quiet(resonator_coeffs, 100, "max")
    sample = _sample(unit_spec, window, 1e4, rmax)
    with pytest.raises(ValueError):
        ratio_R(sample, rmax, validity="paper-strict")
    with pytest.warns(ResidualWarning), pytest.warns(ExploratoryWarning):
        ratio_R(sample, rmax, validity="exploratory")


def test_sample_of_another_polynomial_rejected(unit_spec, window):
    rmax = _quiet(resonator_coeffs, 100, "max")
    rmin = _quiet(resonator_coeffs, 100, "min")
    sample = _sample(unit_spec, window, 1e3, rmin)
    for fn in (ratio_R, extreme_search):
        with pytest.raises(ValueError, match="resonator's coefficients"):
            _quiet(fn, sample, rmax)


# ---------------------------------------------------------------------------
# Euler-product prediction
# ---------------------------------------------------------------------------

def test_euler_prediction_trivial_is_one():
    triv = resonator_coeffs(100, "max", window="asymptotic")
    ep = euler_product_prediction(triv)
    assert ep.prediction == 1.0


def test_euler_prediction_brackets_ratio(unit_spec, window):
    T = 1e4
    rmax = _quiet(resonator_coeffs, 100, "max")
    with pytest.warns(ResidualWarning):
        vmax = _quiet(ratio_R, _sample(unit_spec, window, T, rmax), rmax)
    ep = euler_product_prediction(rmax)
    assert abs(vmax - ep.prediction) <= 0.30 * vmax
    assert ep.envelope_low < ep.prediction < ep.envelope_high


def test_euler_min_mode_below_one():
    rmin = _quiet(resonator_coeffs, 100, "min")
    ep = euler_product_prediction(rmin)
    assert 0.0 < ep.prediction < 1.0


def test_euler_first_order_on_small_terms():
    # for primes with x_p = L/(p ln p) < 0.01 the log expansion should match
    # the first-order sum to about the size of the quadratic remainder.
    r = _quiet(resonator_coeffs, 10_000, "min")
    ps = primes_in(r.prime_lo, min(r.prime_hi, 10_000.0))
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
    r_plain = _quiet(resonator_coeffs, 1000, "max")
    r_excl = _quiet(resonator_coeffs, 1000, "max", excluded=s)
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
    B_d = eval_poly_grid(poly, ell)
    tq, wq = gl_panels(T, 2 * T, int(T / 2), 20)
    phi_q = window.phi(tq / T)
    B_q = eval_poly_grid(poly, tq)

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
    rmax = _quiet(resonator_coeffs, 100, "max")
    with pytest.warns(ResidualWarning):
        rep = _quiet(extreme_search, _sample(unit_spec, window, T, rmax), rmax)
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
    rmin = _quiet(resonator_coeffs, 100, "min")
    rep = _quiet(extreme_search, _sample(unit_spec, window, T, rmin), rmin)
    assert rep.witness_abs <= 0.5 * rep.median_abs
    assert rep.certified
    assert rep.global_abs <= abs(rep.ratio) + rep.slack
    assert rep.global_abs <= rep.witness_abs


def test_extreme_search_strict_validity(unit_spec, window):
    rmax = _quiet(resonator_coeffs, 100, "max")
    with pytest.raises(ValueError):
        extreme_search(_sample(unit_spec, window, 1e4, rmax), rmax, validity="paper-strict")


def test_extreme_search_deterministic(unit_spec, window):
    rmax = _quiet(resonator_coeffs, 100, "max")
    with pytest.warns(ResidualWarning):
        a = _quiet(extreme_search, _sample(unit_spec, window, 1e4, rmax), rmax)
    with pytest.warns(ResidualWarning):
        b = _quiet(extreme_search, _sample(unit_spec, window, 1e4, rmax), rmax)
    assert a == b
