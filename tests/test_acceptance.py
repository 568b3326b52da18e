"""Acceptance gate: the end-to-end criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -rA or on failure)
and then asserts at the stated tolerance.  Two criteria are known to be out
of reach at desk scale and are asserted faithfully anyway; the failure
messages carry the measured numbers and the scaling analysis:

  * criterion 1: the discrete/continuous ratio at T=2000 is ~4.64, just
    below the [0.8, 1.2]*(3+2*sqrt 2) = [4.66, 6.99] window; the subleading
    terms of the correction decay like 1/ln T and the window is first
    entered near T ~ 2700.
  * criterion 5 (alpha = 2*pi/ln 2 leg): the first-moment deviation is
    ~0.83*T because the mollifier convolution (1*b)(2^j) = ln 2/(theta ln T)
    does not vanish on the 2-adic frequencies the progression samples;
    it crosses 0.25*T only near T ~ 2e9.
"""
import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from moments_oracle import CapWarning, F_func_series

import zetaprog as zp

TWO_PI = 2.0 * math.pi


def _line(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. rational-case correction factor at T=2000
# ---------------------------------------------------------------------------

def test_acceptance_1_delta_ratio(sym_spec, window):
    t0 = time.time()
    T = 2000.0
    one = zp.DirichletPoly.one()
    disc = zp.sample_progression(sym_spec, window, T, one).twisted_sum(2)
    cont = zp.continuous_twisted_moment(sym_spec, window, T, one, power=2)[0]
    ratio = disc / cont
    target = 3.0 + 2.0 * math.sqrt(2.0)
    lo, hi = 0.8 * target, 1.2 * target
    elapsed = time.time() - t0
    ok = lo <= ratio <= hi and elapsed < 300.0
    _line(ok, "criterion-1",
          f"ratio={ratio:.4f} target window=[{lo:.4f}, {hi:.4f}] elapsed={elapsed:.1f}s")
    assert elapsed < 300.0
    assert lo <= ratio <= hi, (
        f"measured ratio {ratio:.4f} misses [{lo:.4f}, {hi:.4f}]: the ratio "
        f"approaches 1+delta={target:.4f} from below like c/ln T and first "
        f"enters the 20% window near T~2700; at T=2000 it sits ~0.5% short. "
        f"Analysis in the decisions ledger.")


# ---------------------------------------------------------------------------
# 2. integer sampling: discrete tracks continuous at alpha=1
# ---------------------------------------------------------------------------

def test_acceptance_2_integer_sampling(unit_spec, window):
    T = 2000.0
    for poly in (zp.mollifier_coeffs(T, 0.3), zp.DirichletPoly.one()):
        disc = zp.sample_progression(unit_spec, window, T, poly).twisted_sum(2)
        cont = zp.continuous_twisted_moment(unit_spec, window, T, poly, power=2)[0]
        ok = abs(disc - cont) <= 0.1 * cont
        _line(ok, "criterion-2",
              f"poly length {poly.length}: |disc-cont|/cont="
              f"{abs(disc - cont) / cont:.4f} (<= 0.1)")
        assert ok


# ---------------------------------------------------------------------------
# 3. closure: predicted correction matches measured E on the grid
# ---------------------------------------------------------------------------

def test_acceptance_3_closure_grid(window):
    T = 2000.0
    specs = [
        zp.ProgressionSpec(alpha=1.0),
        zp.ProgressionSpec(alpha=1.0, beta=1.0),
        zp.ProgressionSpec.from_rational(1, 2, 1),
        zp.ProgressionSpec.from_rational(1, 2, 1, beta=1.0),
    ]
    for spec in specs:
        for poly in (zp.DirichletPoly.one(), zp.mollifier_coeffs(T, 0.3)):
            disc = zp.sample_progression(spec, window, T, poly).twisted_sum(2)
            cont = zp.continuous_twisted_moment(spec, window, T, poly, power=2)[0]
            E = disc - cont
            pred = zp.predict_E(spec, window, T, poly)
            tol = max(0.1 * abs(E), 0.05 * cont)
            ok = abs(E - pred) <= tol
            _line(ok, "criterion-3",
                  f"alpha={spec.alpha:.4f} beta={spec.beta} len={poly.length}: "
                  f"E={E:.2f} pred={pred:.2f} |diff|={abs(E - pred):.2f} tol={tol:.2f}")
            assert ok


# ---------------------------------------------------------------------------
# 4. two routes to F, and the H series identity
# ---------------------------------------------------------------------------

def test_acceptance_4_f_equivalence(unit_spec):
    moll = zp.mollifier_coeffs(2000.0, 0.3)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapWarning)
        for a, b in ((2, 1), (3, 1), (3, 2), (9, 4), (8, 1)):
            for t in (1e3, 1e4):
                for poly in (zp.DirichletPoly.one(), moll):
                    closed = zp.F_func(a, b, t, poly, unit_spec)
                    series = F_func_series(a, b, t, poly, unit_spec)
                    rel = abs(closed - series) / max(abs(closed), 1e-3)
                    worst = max(worst, rel)
    ok_f = worst <= 1e-4
    _line(ok_f, "criterion-4a", f"max relative F discrepancy {worst:.2e} (<= 1e-4)")
    assert ok_f

    worst_h = 0.0
    for x in (0.1, 1.0, 10.0, 100.0):
        rs = np.arange(1, 5000, dtype=float)
        series = float(np.sum(zp.w_many(rs * rs / x) / rs))
        worst_h = max(worst_h, abs(zp.eval_H(x) - series))
    ok_h = worst_h <= 1e-6
    _line(ok_h, "criterion-4b", f"max |H - W-series| {worst_h:.2e} (<= 1e-6)")
    assert ok_h


# ---------------------------------------------------------------------------
# 5. mollified first moment near T * phi_hat(0)
# ---------------------------------------------------------------------------

def test_acceptance_5_first_moment_alpha_one(window):
    T = 500.0
    spec = zp.ProgressionSpec(alpha=1.0)
    moll = zp.mollifier_coeffs(T, 0.3)
    I = zp.sample_progression(spec, window, T, moll).twisted_sum(1)
    dev = abs(I - T * window.phi_hat(0.0).real)
    ok = dev <= 0.25 * T
    _line(ok, "criterion-5 (alpha=1)", f"deviation {dev:.2f} (<= {0.25 * T:.0f})")
    assert ok
    # regression-frozen tighter bound (measured 5.13 at first freeze)
    assert dev <= 16.0


def test_acceptance_5_first_moment_symbolic(window):
    T = 500.0
    spec = zp.ProgressionSpec.from_rational(1, 2, 1)
    moll = zp.mollifier_coeffs(T, 0.3)
    I = zp.sample_progression(spec, window, T, moll).twisted_sum(1)
    dev = abs(I - T * window.phi_hat(0.0).real)
    ok = dev <= 0.25 * T
    _line(ok, "criterion-5 (alpha=2pi/ln2)", f"deviation {dev:.2f} (<= {0.25 * T:.0f})")
    assert ok, (
        f"deviation {dev:.2f} > {0.25 * T:.0f}: on the 2-adic progression the "
        f"Poisson frequencies hit every n=2^j, where the mollifier convolution "
        f"(1*b)(2^j) = ln2/(theta ln T) decays only like 1/ln T; the deviation "
        f"is ~0.95*2.414*ln2/(0.3 ln T)*T and drops below 0.25*T only near "
        f"T ~ 2e9. Analysis in the decisions ledger.")


# ---------------------------------------------------------------------------
# 6. nonvanishing proportion machinery
# ---------------------------------------------------------------------------

def test_acceptance_6_nonvanishing(unit_spec, window):
    T = 2000.0
    sample = zp.sample_progression(unit_spec, window, T, zp.mollifier_coeffs(T, 0.4))
    rep = zp.nonvanishing_bound(sample)
    ok_bound = rep.bound >= 0.2
    _line(ok_bound, "criterion-6a",
          f"|I|^2/(T J) = {rep.bound:.4f} (>= 0.2), target {rep.target:.4f}")
    assert ok_bound
    frac = zp.empirical_nonvanishing(sample, 0.1)
    ok_emp = frac >= 1.0 / 3.0
    _line(ok_emp, "criterion-6b",
          f"fraction with |zeta| > 0.1 (ln ell)^-1/2: {frac:.4f} (>= 1/3)")
    assert ok_emp


# ---------------------------------------------------------------------------
# 7. AFE engine and zeta engine constants
# ---------------------------------------------------------------------------

def test_acceptance_7_afe_and_constants(rng):
    worst = 0.0
    for t in rng.uniform(1e3, 1e4, 50):
        truth = abs(zp.zeta_em(0.5 + 1j * float(t))) ** 2
        err = abs(zp.afe_square(float(t)) - truth) / (1.0 + truth)
        worst = max(worst, err)
    ok_afe = worst <= 0.02
    _line(ok_afe, "criterion-7a", f"worst AFE relative error {worst:.4f} (<= 0.02)")
    assert ok_afe

    z2_err = abs(zp.zeta_em(2.0 + 0j) - math.pi ** 2 / 6)
    zero_mod = abs(zp.zeta_em(0.5 + 14.134725141734693j))
    ok_const = z2_err < 1e-10 and zero_mod < 1e-6
    _line(ok_const, "criterion-7b",
          f"|zeta(2) - pi^2/6| = {z2_err:.1e} (<= 1e-10), "
          f"|zeta(1/2 + i rho_1)| = {zero_mod:.1e} (<= 1e-6)")
    assert ok_const


# ---------------------------------------------------------------------------
# 8. resonance sandwich at T = 1e5
# ---------------------------------------------------------------------------

def test_acceptance_8_resonance(unit_spec, window):
    T = 1e5
    slack = 2.0 / math.sqrt(T) + 1e-6
    rmax = zp.resonator_coeffs(100, "max")
    rmin = zp.resonator_coeffs(100, "min")
    rep_max = zp.extreme_search(zp.sample_progression(unit_spec, window, T, rmax.coeffs), rmax)
    rep_min = zp.extreme_search(zp.sample_progression(unit_spec, window, T, rmin.coeffs), rmin)

    sandwich_max = rep_max.global_abs >= abs(rep_max.ratio) - slack
    sandwich_min = rep_min.global_abs <= abs(rep_min.ratio) + slack
    ok_sw = sandwich_max and sandwich_min and rep_max.certified and rep_min.certified
    _line(ok_sw, "criterion-8a",
          f"max|zeta|={rep_max.global_abs:.3f} >= R_max-s={abs(rep_max.ratio) - slack:.3f}; "
          f"min|zeta|={rep_min.global_abs:.2e} <= R_min+s={abs(rep_min.ratio) + slack:.3f}")
    assert ok_sw

    ok_order = rep_min.ratio < 1.0 < rep_max.ratio
    _line(ok_order, "criterion-8b",
          f"R_min={rep_min.ratio:.4f} < 1 < R_max={rep_max.ratio:.4f}")
    assert ok_order

    e_max = zp.euler_product_prediction(rmax).prediction
    e_min = zp.euler_product_prediction(rmin).prediction
    dev_max = abs(rep_max.ratio - e_max) / rep_max.ratio
    dev_min = abs(rep_min.ratio - e_min) / rep_min.ratio
    ok_euler = dev_max <= 0.30 and dev_min <= 0.30
    _line(ok_euler, "criterion-8c",
          f"Euler prediction off by {dev_max:.3f} (max mode), {dev_min:.3f} (min mode) (<= 0.30)")
    assert ok_euler


# ---------------------------------------------------------------------------
# 9. diophantine suite
# ---------------------------------------------------------------------------

def _farey_scan(spec, ell, T, eps=0.05):
    with mp.workprec(300):
        if spec.rational_form is not None and ell % spec.rational_form.ell0 == 0:
            k = ell // spec.rational_form.ell0
            x = mp.mpf(spec.rational_form.m ** k) / mp.mpf(spec.rational_form.n ** k)
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
        return (hits[0][1], hits[0][0]) if hits else None


def test_acceptance_9_diophantine():
    cases = []
    sym = zp.ProgressionSpec.from_rational(1, 2, 1)
    cases += [(sym, ell, 1e4) for ell in (1, 2, 3, 4)]
    cases += [(zp.ProgressionSpec.from_rational(1, 3, 2), ell, 1e4) for ell in (1, 2)]
    cases += [(zp.ProgressionSpec.from_rational(1, 9, 4), 1, 1e4)]
    cases += [(zp.ProgressionSpec.from_rational(1, 10, 3), 1, 1e6)]
    cases += [(zp.ProgressionSpec(alpha=1.0), ell, 1e6) for ell in (1, 2, 3)]
    cases += [(zp.ProgressionSpec(alpha=a), 1, 1e4) for a in (0.7, math.sqrt(2.0), math.pi)]
    mismatches = []
    for spec, ell, T in cases:
        got = zp.find_tuple(spec, ell, T, 0.05)
        want = _farey_scan(spec, ell, T)
        g = None if got is None else (got.a, got.b)
        if g != want:
            mismatches.append((spec.alpha, ell, T, g, want))
    ok_farey = not mismatches
    _line(ok_farey, "criterion-9a",
          f"find_tuple vs exhaustive Farey scan on {len(cases)} progressions: "
          f"{'all equal' if ok_farey else mismatches}")
    assert ok_farey

    t23 = zp.find_tuple(sym, 3, 1e4, 0.05)
    t94 = zp.find_tuple(zp.ProgressionSpec.from_rational(1, 3, 2), 2, 1e4, 0.05)
    ok_pow = (t23.a, t23.b, t23.quality) == (8, 1, 0.0) \
        and (t94.a, t94.b, t94.quality) == (9, 4, 0.0)
    _line(ok_pow, "criterion-9b",
          f"exact powers: (2^3,1) -> {(t23.a, t23.b)} q={t23.quality}; "
          f"(9,4) -> {(t94.a, t94.b)} q={t94.quality}")
    assert ok_pow

    # Waldschmidt consistency at alpha=1: vacuous over found tuples at desk
    # scale, so also checked on the best rejected fraction per ell.
    spec1 = zp.ProgressionSpec(alpha=1.0)
    checked = 0
    for ell in (1, 2, 3):
        tup = zp.find_tuple(spec1, ell, 1e6, 0.05)
        if tup is not None:
            lhs = math.log(tup.quality) + TWO_PI * ell
            assert lhs >= zp.waldschmidt_bound(2 * ell, tup.a)
            checked += 1
        with mp.workprec(300):
            x = mp.exp(mp.mpf(TWO_PI) * ell)
            a = int(mp.nint(x))
            defect = float(mp.log(abs(mp.mpf(a) - x)))
        assert defect >= zp.waldschmidt_bound(2 * ell, max(a, 3))
    _line(True, "criterion-9c",
          f"Waldschmidt log-bound consistent ({checked} tuples found at alpha=1, "
          f"plus best-rejected fractions for ell=1..3)")
