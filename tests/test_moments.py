"""Dirichlet polynomials, twisted moments, correction predictions.

Independent oracles used here:
  * mollifier coefficients recomputed from scratch (trial-division Moebius,
    explicit log damping);
  * eval_poly (moments_oracle: zeta._dirichlet_sum at one height)
    cross-checked against a 50-digit mpmath summation;
  * the F transform tied to the H kernel in closed form for poly = 1;
  * F_func vs moments_oracle.F_func_series: two routes to the same object,
    one through the H kernel with gcd regrouping, one through the W series;
  * the first-moment deviation |I - T*phi_hat(0)| frozen as a regression
    constant after first measurement.
"""
import dataclasses
import json
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from gl_oracle import gl_panels
from zeta_oracle import poly_grid, zeta_grid

import moments_oracle
from moments_oracle import CapWarning, F_func_series, H_ell, eval_poly

from zetaprog import (DirichletPoly, F_func, F_prime, ProgressionSpec,
                      SmoothWindow, continuous_twisted_moment, delta,
                      empirical_nonvanishing, eval_H, find_tuple,
                      mollifier_coeffs, nonvanishing_bound,
                      predict_E, predict_E_prime, sample_progression,
                      zeta_on_progression)
from zetaprog import cli
from zetaprog import moments as mmod
from zetaprog import zeta as zmod
from zetaprog.errors import CapError, DegenerateDenominatorError, QuadratureError
from zetaprog.quadrature import parity_slices, start_level

TWO_PI = 2.0 * math.pi
EULER_GAMMA = 0.5772156649015329

# regression constant: three times the measured deviation
# |I - T*phi_hat(0)| * ln T / T at T=2000, theta=0.3, alpha=1.
FIRST_MOMENT_DEV_CONST = 0.905


def _mu_brute(n):
    fs = {}
    d, m = 2, n
    while d * d <= m:
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    if any(e > 1 for e in fs.values()):
        return 0
    return -1 if len(fs) % 2 else 1


# ---------------------------------------------------------------------------
# DirichletPoly / Mollifier
# ---------------------------------------------------------------------------

def test_poly_one():
    one = DirichletPoly.one()
    assert one.length == 1
    assert one.coeff(1) == 1.0
    assert one.coeff(2) == 0.0
    assert one.coeff(0) == 0.0


def test_poly_nonzero_listing():
    p = DirichletPoly(np.array([0.0, 1.0, 0.0, -0.5]))
    ns, bs = p.nonzero()
    assert ns.tolist() == [1, 3]
    assert bs.tolist() == [1.0, -0.5]


@pytest.mark.parametrize("values", [[1.0], np.ones((2, 2))], ids=["short", "2-d"])
def test_poly_rejects_bad_values(values):
    with pytest.raises(ValueError, match="1-d array"):
        DirichletPoly(values)


def test_mollifier_length_and_normalization():
    T, theta = 1e4, 0.4
    moll = mollifier_coeffs(T, theta)
    assert moll.length == int(T ** theta)
    assert moll.coeff(1) == 1.0
    assert moll.theta == theta and moll.T == T


def test_mollifier_against_first_principles():
    T, theta = 1e4, 0.4
    moll = mollifier_coeffs(T, theta)
    lnT = math.log(T)
    for n in range(1, moll.length + 1):
        want = _mu_brute(n) * (1.0 - math.log(n) / (theta * lnT))
        assert moll.coeff(n) == pytest.approx(want, abs=1e-15)
    # spot value: b(2) = -(1 - ln 2/(0.4 ln 1e4)) = -0.81185625271...
    assert moll.coeff(2) == pytest.approx(-0.8118562527100118, abs=1e-13)


def test_mollifier_squarefull_vanish_and_bounded():
    moll = mollifier_coeffs(2000.0, 0.3)
    for n in (4, 8, 9):
        assert moll.coeff(n) == 0.0
    assert all(abs(moll.coeff(n)) <= 1.0 for n in range(1, moll.length + 1))


def test_mollifier_validation():
    with pytest.raises(ValueError):
        mollifier_coeffs(50.0, 0.3)
    with pytest.raises(ValueError):
        mollifier_coeffs(2000.0, 0.0)
    with pytest.raises(ValueError):
        mollifier_coeffs(2000.0, 0.5)
    # T^0.49 = 2.1e8 coefficients: a typed refusal before any table is built
    with pytest.raises(CapError, match="exceeds the coefficient memory cap"):
        mollifier_coeffs(1e17, 0.49)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_poly_one_is_constant():
    one = DirichletPoly.one()
    for t in (0.0, 17.3, -250.0, 1e5):
        assert eval_poly(one, t) == 1.0 + 0j


def test_eval_poly_against_mpmath():
    moll = mollifier_coeffs(2000.0, 0.3)
    ns, bs = moll.nonzero()
    for t in (0.0, 3.7, 1234.5, 123456.789):
        with mp.workdps(50):
            want = complex(mp.fsum(
                mp.mpf(float(b)) * mp.exp(mp.mpc(-0.5, -mp.mpf(t)) * mp.log(int(n)))
                for n, b in zip(ns, bs)))
        assert abs(eval_poly(moll, t) - want) < 1e-12


def test_eval_poly_conjugation_exact():
    moll = mollifier_coeffs(2000.0, 0.3)
    for t in (17.0, 533.25):
        assert eval_poly(moll, -t) == np.conj(eval_poly(moll, t))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_discrete_moment_empty_window_is_zero(unit_spec, window):
    # no integer ell lies in (0.4, 0.8): the sampled moment is empty
    assert sample_progression(unit_spec, window, 0.4, DirichletPoly.one()).twisted_sum(2) == 0.0


def test_level_sampler_matches_direct_sum_on_dyadic_nodes(unit_spec, window):
    # the level sampler builds its run from the numerators j and the
    # denominator p; at ell = j / 8, B matches the direct sum
    moll = mollifier_coeffs(1e4, 0.4)
    sample = mmod._sample_level(unit_spec, window, 300.0, moll, range(2400, 4801), 8)
    assert np.array_equal(sample.ell, np.arange(2400, 4801) / 8.0)
    assert np.max(np.abs(sample.B - poly_grid(moll, sample.t))) < 1e-12


def test_discrete_moment_power_validation(unit_spec, window):
    with pytest.raises(ValueError):
        sample_progression(unit_spec, window, 500.0, DirichletPoly.one()).twisted_sum(3)


def test_second_moments_are_nonnegative(unit_spec, window):
    one = DirichletPoly.one()
    cont, sample = continuous_twisted_moment(unit_spec, window, 300.0, one, power=2)
    assert sample.twisted_sum(2) > 0.0
    assert cont > 0.0


def test_continuous_matches_classical_mean(unit_spec, window):
    # the continuous second moment integrates |zeta|^2 against phi(t/T);
    # the classical law gives integrand density ln(t/2pi) + 2*gamma.
    T = 2000.0
    cont = continuous_twisted_moment(unit_spec, window, T, DirichletPoly.one(), power=2)[0]
    t, w = gl_panels(T, 2 * T, 4000, 10)
    bench = float(np.sum(w * window.phi(t / T) * (np.log(t / TWO_PI) + 2 * EULER_GAMMA)))
    assert abs(cont - bench) < 0.01 * bench


SYM_ALPHA = TWO_PI / math.log(2.0)


@pytest.mark.parametrize("spec, T, theta, panels_per_unit", [
    (ProgressionSpec.from_rational(1, 2, 1), 2000.0, None, 8),
    (ProgressionSpec.from_rational(1, 2, 1), 2000.0, 0.3, 8),
    (ProgressionSpec(alpha=math.sqrt(2.0)), 2000.0, None, 4),
    (ProgressionSpec(alpha=1.0), 500.0, None, 4),
    (ProgressionSpec.from_rational(2, 2, 1), 1000.0, None, 16),
    (ProgressionSpec.from_rational(1, 2, 1, beta=-1.5 * SYM_ALPHA * 300.0), 300.0, None, 16),
    (ProgressionSpec(alpha=7.3157), 45.68, None, 16),
], ids=["sym-bare", "sym-mollified", "sqrt2-bare", "unit-T500-bare", "even-bare",
        "sym-through-zero", "alpha7-T45"])
def test_continuous_matches_dense_gl(window, spec, T, theta, panels_per_unit):
    # Independent integration route: Gauss-Legendre panels of degree 10,
    # fine enough for every frequency of the integrand (doubling the panels
    # moves these references by < 3e-13).  The trapezoid is exact only once
    # its step resolves every frequency of the integrand: at 1:2:1, T=2000,
    # bare, it is off by 364%, 142%, 41% and 5.5% at 1, 2, 4 and 8 nodes per
    # unit ell, and exact from 16, where the top frequency is 12.5; at 2:2:1
    # only from 32.  A start of 4 or fewer nodes per unit ell fails here.  On
    # sym-through-zero the heights run from -alpha*T/2 to alpha*T/2: the pole
    # of zeta at s = 1 narrows the strip of analyticity, and a start at the
    # top frequency (16 per unit, not 32) is 3.7e-8 (power 1) and 6.8e-9 off.
    # On alpha7-T45 the top frequency (5.4) and the ramps (7.0) each fit in 8
    # nodes per unit but their sum does not: a start at 8 is 1.3e-8 off.
    poly = DirichletPoly.one() if theta is None else mollifier_coeffs(T, theta)
    t, wq = gl_panels(T, 2 * T, int(panels_per_unit * T), 10)
    ts = spec.alpha * t + spec.beta
    vals = zeta_grid(ts) * poly_grid(poly, ts)
    wq = wq * window.phi(t / T)
    refs = {1: complex(np.sum(wq * vals)), 2: float(np.sum(wq * (vals * np.conj(vals)).real))}
    for power, ref in refs.items():
        got = continuous_twisted_moment(spec, window, T, poly, power=power)[0]
        assert abs(got - ref) <= 1e-10 * abs(ref), (power, got, ref)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("k, per_unit", [(0.0, 13), (-1.5, 32)], ids=["one-sign", "through-zero"])
def test_continuous_start_level(window, k, per_unit, monkeypatch):
    # At 1:2:1, T = 2000, bare, beta = 0, the integrand's top frequency is
    # alpha/2pi * log(2*alpha*T/2pi) = 12.5 per unit ell and the ramps add
    # 16/(edge*T) = 0.16: the start is 13 nodes per unit.  With beta = -1.5 *
    # alpha*T the heights pass through 0, and the start is the power of two
    # above every tuple frequency, _default_ell_max + 1 = 23: 32 nodes per
    # unit.
    densities = []

    def recording(level_sum, a, b, density, agree):
        densities.append(density)
        raise _Stop

    monkeypatch.setattr(mmod, "nested_trapezoid", recording)
    spec = ProgressionSpec.from_rational(1, 2, 1, beta=k * SYM_ALPHA * 2000.0)
    one = DirichletPoly.one()
    with pytest.raises(_Stop):
        continuous_twisted_moment(spec, window, 2000.0, one, power=2)
    assert start_level(2000.0, 4000.0, densities[0])[0] == per_unit
    if k == 0.0:
        assert densities[0] == pytest.approx(12.49 + 0.16, abs=0.01)
    else:
        assert mmod._default_ell_max(spec, 2000.0, one) + 1 == 23 and densities[0] == 32


def test_continuous_refuses_start_step_past_budget(window, sym_spec, monkeypatch):
    # alpha = 1e6 mixes frequencies near 3e6 per unit ell, so the start step
    # alone would need 4M nodes per unit ell.  At edge = 1e-6 and T = 300 each
    # window ramp is 3e-4 wide in ell, and 16 nodes across it ask for 5.3e4
    # per unit ell; a start set by the tuple frequencies alone missed the
    # ramps there and came out 1.25e-4 off.  Both are refused before any
    # evaluation.
    def unreachable(*args, **kwargs):
        raise AssertionError("zeta evaluated before the budget check")

    monkeypatch.setattr(zmod, "zeta_on_progression", unreachable)
    for spec, w in ((ProgressionSpec(alpha=1e6), window), (sym_spec, SmoothWindow(1e-6))):
        with pytest.raises(QuadratureError):
            continuous_twisted_moment(spec, w, 300.0, DirichletPoly.one(), power=2)


# Most ulp(|alpha|*ell + |beta|) by which a node's heights in a level's run
# and in the direct run can differ, derived in the test that uses it.
_CUT_HEIGHT_ULPS = 16


def _lipschitz_zeta(t):
    """An upper bound on |d zeta(1/2 + it) / dt| from the approximate
    functional equation zeta = exp(-i theta) Z, Z = 2 sum_{n <= m} n^(-1/2)
    cos(theta - t log n) + O(|t|^(-1/4)), m = floor(sqrt(|t|/2pi)): |Z'| <= 2
    sum n^(-1/2) (theta' + log n) and |theta' Z| <= 2 theta' sum n^(-1/2),
    with theta'(t) = log(|t|/2pi)/2.  Twice their sum also covers the
    remainder's derivative and the engines' own rounding (products of
    sqrt(count) factors per term in progression_sum, about 1e-13 here).
    Below |t| = 2pi e^2, where the expansion has no terms to speak of, the
    bound at 2pi e^2 (15.6) stands in; |zeta'| is below 4 there."""
    t = np.maximum(np.abs(t), TWO_PI * math.e ** 2)
    m = np.floor(np.sqrt(t / TWO_PI)).astype(np.int64)
    n = np.arange(1, np.max(m) + 1)
    inv, logs = np.cumsum(n ** -0.5), np.cumsum(np.log(n) * n ** -0.5)
    return 4.0 * (np.log(t / TWO_PI) * inv[m - 1] + logs[m - 1])


@pytest.mark.parametrize("spec, T, theta, power, per_unit", [
    (ProgressionSpec(alpha=1.0), 150.0, 0.3, 2, 3),
    (ProgressionSpec.from_rational(1, 2, 1), 1600.0, None, 2, 13),
    (ProgressionSpec(alpha=1.0, beta=-4000.0), 2500.0, None, 1, 4),
    (ProgressionSpec(alpha=0.5, beta=0.3), 2000.0, 0.3, 1, 1),
    (ProgressionSpec(alpha=1.0), 150.5, 0.3, 2, 3),
    (ProgressionSpec.from_rational(1, 2, 1), 1600.37, None, 2, 13),
    (ProgressionSpec(alpha=2.3456, beta=0.41), 1234.56, None, 2, 3),
], ids=["euler-maclaurin", "riemann-siegel-exact-form", "through-zero", "one-per-unit",
        "euler-maclaurin-off-integer-T", "riemann-siegel-off-integer-T", "float-alpha-off-integer-T"])
def test_continuous_moment_cuts_the_integer_sample(window, spec, T, theta, power, per_unit):
    # The first call's lattice has step 1/(2 * per_unit), so its every
    # (2 * per_unit)-th node is an integer; the sample cut there has
    # sample_progression's ell, t and phi bit for bit, and its t, phi, zeta
    # and B are the lattice run's rows exactly (each lattice here fits one
    # block, so one run); its twisted_sum is the discrete moment.
    #
    # The lattice run and sample_progression's reach a node's height by
    # different roundings.  Each correctly rounded operation errs by at most
    # ulp(S)/2 at heights formed from magnitudes up to S = |alpha|*ell +
    # |beta|.  The lattice's start alpha*(lo/p) + beta takes three (the
    # quotient, the product, the sum), its step alpha*(1/p) two relative
    # ones, at most 2 ulp(S) once multiplied by the row, and the engine's
    # float height column two more: 5 ulp(S).  The direct run's start takes
    # two and its column two: 2 ulp(S).  theta, evaluated in float64 from each run's column, adds a
    # few ulp(theta) ~ t theta' each, at most 4 ulp(t) of height per side.
    # So the heights differ by at most _CUT_HEIGHT_ULPS = 16 ulp(S), and zeta
    # by at most that times an upper bound on |dzeta/dt| (_lipschitz_zeta),
    # B by that times sum |b(n)| log n / sqrt(n) >= |dB/dt|.  A constant does
    # not scale: 1e-12 held only where lo/p = ceil(T) (integer T); at T =
    # 1600.37 the cut is 7.9e-10 off.
    poly = mollifier_coeffs(T, theta) if theta is not None else DirichletPoly.one()
    assert start_level(T, 2.0 * T, mmod._continuous_density(spec, window, T, poly))[0] == per_unit
    _, cut = continuous_twisted_moment(spec, window, T, poly, power)
    direct = sample_progression(spec, window, T, poly)
    for name in ("ell", "t", "phi"):
        got, want = getattr(cut, name), getattr(direct, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (cut.spec, cut.window, cut.T, cut.poly) == (spec, window, T, poly)
    # copies of the integer rows: the lattice they came from is not kept alive
    assert cut.zeta.base is None and cut.B.base is None
    p = 2 * per_unit
    nodes = range(math.ceil(T * p), math.floor(2.0 * T * p) + 1)
    assert len(nodes) <= zmod._BLOCK_ELEMS
    lattice = mmod._sample_level(spec, window, T, poly, nodes, p)
    first, last = p * int(direct.ell[0]) - nodes.start, p * int(direct.ell[-1]) - nodes.start
    rows = slice(first, last + 1, p)
    for name in ("t", "phi", "zeta", "B"):
        assert np.array_equal(getattr(cut, name), getattr(lattice, name)[rows]), name
    heights = _CUT_HEIGHT_ULPS * np.spacing(abs(spec.alpha) * direct.ell + abs(spec.beta))
    ns, bs = poly.nonzero()
    dz = heights * _lipschitz_zeta(direct.t)
    dB = heights * float(np.sum(np.abs(bs) * np.log(ns) / np.sqrt(ns)))
    assert np.all(np.abs(cut.zeta - direct.zeta) <= dz)
    assert np.all(np.abs(cut.B - direct.B) <= dB)
    # the moments, from the per-node bounds: |delta(zeta B)| <= dz |B| + |zeta| dB
    # (plus dz dB), and |delta |v|^2| <= |delta v| (2|v| + |delta v|)
    v = direct.zeta * direct.B
    dv = dz * np.abs(direct.B) + np.abs(direct.zeta) * dB + dz * dB
    if power == 2:
        dv = dv * (2.0 * np.abs(v) + dv)
    live = direct.phi > 0.0
    want = direct.twisted_sum(power)
    assert abs(cut.twisted_sum(power) - want) <= np.sum(direct.phi[live] * dv[live])


# Runs for the block-budget tests: (spec, T, theta, power, zeta's contract).
_BLOCK_RUNS = {
    "euler-maclaurin": (ProgressionSpec(alpha=0.5), 1500.0, 0.3, 2, 1e-10),
    "riemann-siegel": (ProgressionSpec(alpha=1.0), 3000.0, 0.3, 2, 1e-6),
    "through-zero": (ProgressionSpec(alpha=1.0, beta=-4000.0), 2500.0, None, 1, 1e-10),
    "negative-heights": (ProgressionSpec(alpha=1.0, beta=-9000.0), 2500.0, None, 2, 1e-6),
}


@pytest.mark.parametrize("case", list(_BLOCK_RUNS))
def test_blocked_levels_agree_with_one_block(window, case, monkeypatch):
    # At the default budget every call of these runs fits one block, and one
    # block is one run: the sample is zeta_on_progression and progression_sum
    # on the whole run, and the continuous moment is the trapezoid of whole
    # samples of each call's nodes, split by parity, bit for bit.  At a
    # budget of 1000 nodes every call and the integer sample take several
    # blocks, each its own run from its own
    # start; each block's zeta is within the engine's contract eps of the
    # true value, so two evaluations differ by at most 2 eps, and B, whose
    # phases are reduced once per term in 80-bit arithmetic, by far less
    # than 1e-12 of sum |b(n)|.
    spec, T, theta, power, eps = _BLOCK_RUNS[case]
    poly = mollifier_coeffs(T, theta) if theta is not None else DirichletPoly.one()
    value, cut = continuous_twisted_moment(spec, window, T, poly, power)
    sample = sample_progression(spec, window, T, poly)
    ell = sample.ell
    assert len(ell) <= zmod._BLOCK_ELEMS
    run = spec.alpha * ell[0] + spec.beta, spec.alpha, len(ell)
    assert np.array_equal(sample.zeta, zeta_on_progression(*run))
    assert np.array_equal(sample.B, zmod.progression_sum(*poly.nonzero(), *run))
    density = mmod._continuous_density(spec, window, T, poly)

    def whole_sums(j, p):
        level = mmod._sample_level(spec, window, T, poly, j, p)
        return [level.twisted_sum(power, half) for half in parity_slices(j)]

    whole = mmod.nested_trapezoid(whole_sums, T, 2.0 * T, density,
                                  lambda new, old: abs(new - old) <= 1e-4 * max(abs(new), 1e-12))
    assert value == whole

    calls = []
    zeta_run = zmod.zeta_on_progression
    monkeypatch.setattr(zmod, "_BLOCK_ELEMS", 1000)
    monkeypatch.setattr(zmod, "zeta_on_progression",
                        lambda *run: calls.append(run[2]) or zeta_run(*run))
    blocked = sample_progression(spec, window, T, poly)
    assert max(calls) == 1000 and len(calls) == -(-len(ell) // 1000)
    calls.clear()
    blocked_value, blocked_cut = continuous_twisted_moment(spec, window, T, poly, power)
    assert max(calls) == 1000
    dz = 2.0 * eps
    dB = 1e-12 * float(np.sum(np.abs(poly.nonzero()[1])))
    for got in (blocked, blocked_cut):
        for name in ("ell", "t", "phi"):
            assert np.array_equal(getattr(got, name), getattr(sample, name)), name
        assert np.max(np.abs(got.zeta - sample.zeta)) <= dz
        assert np.max(np.abs(got.B - sample.B)) <= dB
    # |delta(zeta B)| <= dz |B| + |zeta| dB + dz dB at every node, and the
    # window's integral over [T, 2T] is below T
    v = np.abs(sample.zeta * sample.B)
    dv = float(np.max(dz * np.abs(sample.B) + np.abs(sample.zeta) * dB + dz * dB))
    bound = T * dv * (2.0 * float(np.max(v)) + dv if power == 2 else 1.0)
    assert abs(blocked_value - value) <= bound


def test_continuous_moment_memory_grows_by_its_sample(unit_spec, window, monkeypatch):
    # Each call of the rule is summed block by block, its numerators made a
    # block at a time, so past one block the continuous moment's peak traced
    # memory grows with T only by the integer sample it returns (ell, t,
    # phi, zeta and B: 56 bytes a node).  At 1000 nodes a block, 1:1 at T =
    # 8000 and 32000 both start at 2 nodes per unit, so their first call is
    # the lattice at 4; Python's own objects add a few hundred bytes.
    monkeypatch.setattr(zmod, "_BLOCK_ELEMS", 1000)
    runs = []
    for T in (8000.0, 32000.0):
        tracemalloc.start()
        try:
            _, cut = continuous_twisted_moment(unit_spec, window, T, DirichletPoly.one(), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs.append((len(cut.ell), peak))
    (n1, peak1), (n2, peak2) = runs
    assert peak2 - peak1 <= 56 * (n2 - n1) + 4096


def test_moment_evaluates_the_start_level_and_one_halving(tmp_path, monkeypatch):
    # 1:2:1 at T = 2000, bare: the top frequency 12.5 plus the ramps' 0.16
    # start at 13 nodes per unit ell, and the first halving agrees.  Both are
    # the lattice at 26 per unit, 52001 nodes on [2000, 4000], evaluated
    # once, in one run.  The next power of two, 16 per unit, would send
    # 64001 nodes to the start level alone.
    counts = []

    def counting(t0, h, count):
        counts.append(count)
        return zeta_on_progression(t0, h, count)

    monkeypatch.setattr(zmod, "zeta_on_progression", counting)
    argv = ["moment", "--alpha-rational", "1:2:1", "--T", "2000", "--no-predict",
            "--json", str(tmp_path / "m.json")]
    assert cli.main(argv) == 0
    assert counts == [26 * 2000 + 1]


def test_firstmoment_runs_each_engine_once(tmp_path, monkeypatch):
    # alpha 1 at T = 150, theta 0.3 starts at 3 nodes per unit and accepts
    # the first halving: one zeta_on_progression run and one progression_sum
    # run of the mollifier B on the lattice at 6 per unit, 901 nodes
    # ([150, 300] at step 1/6), where sampling the two levels apart took two
    # runs of each.  progression_sum's runs of other coefficients are the
    # zeta engine's own.
    ns = mollifier_coeffs(150.0, 0.3).nonzero()[0]
    zeta_counts, B_counts = [], []
    zeta_run, sum_run = zmod.zeta_on_progression, zmod.progression_sum

    def zeta_counting(t0, h, count):
        zeta_counts.append(count)
        return zeta_run(t0, h, count)

    def sum_counting(n, coeffs, t0, h, count, starts=None):
        if np.array_equal(n, ns):
            B_counts.append(count)
        return sum_run(n, coeffs, t0, h, count, starts)

    monkeypatch.setattr(zmod, "zeta_on_progression", zeta_counting)
    monkeypatch.setattr(zmod, "progression_sum", sum_counting)
    argv = ["firstmoment", "--alpha", "1", "--T", "150", "--theta", "0.3",
            "--json", str(tmp_path / "f.json")]
    assert cli.main(argv) == 0
    assert zeta_counts == B_counts == [6 * 150 + 1]


def test_moment_T_validation(unit_spec, window):
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sample_progression(unit_spec, window, T, DirichletPoly.one()).twisted_sum(2)
        with pytest.raises(ValueError):
            continuous_twisted_moment(unit_spec, window, T, DirichletPoly.one(), power=2)


def _zeta_unreachable(*args, **kwargs):
    raise AssertionError("zeta evaluated past the sample budget")


@pytest.mark.parametrize("sampler", [
    lambda spec, window, T: sample_progression(spec, window, T, DirichletPoly.one()),
    lambda spec, window, T: continuous_twisted_moment(spec, window, T, DirichletPoly.one(),
                                                      power=2),
], ids=["sample_progression", "continuous_twisted_moment"])
def test_public_samples_refuse_T_alike(sampler, unit_spec, window, monkeypatch):
    # Both public samples hold the integers in [T, 2T], and both refuse a
    # sample past NODE_CAP with the same CapError before any evaluation; the
    # continuous moment does not first reach its start level's refusal.
    monkeypatch.setattr(zmod, "zeta_on_progression", _zeta_unreachable)
    with pytest.raises(CapError, match="progression sample of 10000001 nodes"):
        sampler(unit_spec, window, 1e7)


def test_discrete_near_continuous_alpha_one(unit_spec, window):
    # integer sampling at alpha=1 carries no rational correction, so the
    # discrete and continuous moments already agree to a few percent at
    # T=500.
    T = 500.0
    one = DirichletPoly.one()
    cont, sample = continuous_twisted_moment(unit_spec, window, T, one, power=2)
    assert abs(sample.twisted_sum(2) - cont) <= 0.25 * cont


def test_moment_report_consistency(unit_spec, window, tmp_path):
    # `moment` reports the library's own moments and prediction unchanged,
    # with E and the ratio formed from exactly those two moments
    one = DirichletPoly.one()
    cont, sample = continuous_twisted_moment(unit_spec, window, 300.0, one, power=2)
    out = tmp_path / "m.json"
    assert cli.main(["moment", "--alpha", "1", "--T", "300", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())["results"]
    assert rep["discrete"] == sample.twisted_sum(2)
    assert rep["continuous"] == cont
    assert rep["E"] == rep["discrete"] - rep["continuous"]
    assert rep["ratio"] == rep["discrete"] / rep["continuous"]
    assert rep["predicted_E"] == predict_E(unit_spec, window, 300.0, one)


# ---------------------------------------------------------------------------
# the F transform: closed H-kernel form vs W-series form
# ---------------------------------------------------------------------------

def test_f_reduces_to_h_kernel_for_trivial_poly(unit_spec):
    # with b = delta_1 the double sum collapses to H(alpha*t/(2*pi*a*b))
    one = DirichletPoly.one()
    for a, b, X in ((2, 1, 1.0), (3, 2, 5.0)):
        t = TWO_PI * a * b * X / unit_spec.alpha
        assert abs(F_func(a, b, t, one, unit_spec) - eval_H(X)) < 2e-9


def test_f_validation(unit_spec):
    one = DirichletPoly.one()
    with pytest.raises(ValueError):
        F_func(2, 4, 1e3, one, unit_spec)   # not coprime
    with pytest.raises(ValueError):
        F_func(1, 1, 1e3, one, unit_spec)   # a*b must exceed 1
    with pytest.raises(ValueError, match="coprime"):
        F_prime(2, 4, one)


GRID_PAIRS = [(2, 1), (3, 1), (3, 2), (9, 4), (8, 1)]


@pytest.mark.parametrize("a,b", GRID_PAIRS)
@pytest.mark.parametrize("t", [1e3, 1e4])
def test_f_forms_agree_trivial_poly(unit_spec, a, b, t):
    one = DirichletPoly.one()
    closed = F_func(a, b, t, one, unit_spec)
    series = F_func_series(a, b, t, one, unit_spec)
    assert abs(closed - series) <= 1e-4 * abs(closed)


@pytest.mark.parametrize("a,b", GRID_PAIRS)
@pytest.mark.parametrize("t", [1e3, 1e4])
def test_f_forms_agree_mollifier(unit_spec, a, b, t):
    moll = mollifier_coeffs(2000.0, 0.3)
    closed = F_func(a, b, t, moll, unit_spec)
    with warnings.catch_warnings():
        # the tail heuristic is deliberately conservative and fires on some
        # t=1e4 mollifier cells even though the realized agreement is ~1e-7
        warnings.simplefilter("ignore", CapWarning)
        series = F_func_series(a, b, t, moll, unit_spec)
    assert abs(closed - series) <= 1e-4 * max(abs(closed), 1e-3)


def test_f_series_truncation_warns(unit_spec):
    moll = mollifier_coeffs(2000.0, 0.3)
    with pytest.warns(CapWarning):
        F_func_series(2, 1, 1e4, moll, unit_spec, r_cap=40)


def test_f_series_default_caps_do_not_warn(unit_spec):
    moll = mollifier_coeffs(2000.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CapWarning)
        F_func_series(2, 1, 1e3, DirichletPoly.one(), unit_spec)
        F_func_series(2, 1, 1e3, moll, unit_spec)
        F_func_series(9, 4, 1e4, moll, unit_spec)


def _f_pair_reference(a, b, poly):
    # the double sum's constants from Python ints, pair by pair
    ns, bs = poly.nonzero()
    weights, consts = [], []
    for m, bm in zip(ns, bs):
        for n, bn in zip(ns, bs):
            g = math.gcd(int(m) * a, int(n) * b)
            weights.append(bm * bn * g / (m * n))
            consts.append(g * g / (TWO_PI * m * a * n * b))
    return np.array(weights), np.array(consts)


@pytest.mark.parametrize("a, b", [(2, 1), (3, 2), (9, 4), (25, 1), (7, 30),
                                  (2 ** 62 - 57, 2 ** 40 * 3 ** 5 * 5 ** 3),
                                  (2 ** 61 * 5, 2 ** 62 - 1)])
def test_f_pair_tables_exact(a, b):
    # g = gcd(m*a, n*b) without forming m*a: exact where m*a is far past
    # int64, and equal to the pair-by-pair Python-int constants bit for bit
    assert math.gcd(a, b) == 1
    poly = mollifier_coeffs(1e5, 0.45)
    weights, consts = mmod._f_pair_tables(a, b, poly)
    want_w, want_c = _f_pair_reference(a, b, poly)
    assert np.array_equal(weights, want_w) and np.array_equal(consts, want_c)


def test_f_prime_trivial_poly_vanishes():
    # b(a*r) b(b*r) = 0 for all r >= 1 when only b(1) = 1 and a*b > 1
    assert F_prime(2, 1, DirichletPoly.one()) == 0.0
    assert F_prime(3, 2, DirichletPoly.one()) == 0.0


def test_f_prime_against_direct_enumeration():
    moll = mollifier_coeffs(2000.0, 0.3)
    for a, b in ((2, 1), (3, 1), (3, 2)):
        want = math.fsum(moll.coeff(a * r) * moll.coeff(b * r) / r
                         for r in range(1, moll.length + 1))
        assert F_prime(a, b, moll) == pytest.approx(want, abs=1e-15)
    # frozen spot value
    assert F_prime(2, 1, moll) == pytest.approx(-0.7330302017707717, abs=1e-12)


# ---------------------------------------------------------------------------
# correction predictions
# ---------------------------------------------------------------------------

def test_h_ell_zero_without_tuple(unit_spec, window):
    assert H_ell(1, unit_spec, window, 2000.0, DirichletPoly.one()) == 0j


def test_h_ell_first_term_midpoint_estimate(sym_spec, window):
    # slowly-varying estimate of the ell=1 term: the tuple is (2,1), the
    # frequency vanishes, and F is roughly H(alpha*t/(4*pi)) across [T,2T],
    # so H(1) ~ (1/sqrt 2) * T * phi_hat(0) * (0.5*ln(alpha*1.5T/(4*pi)) + gamma).
    T = 2000.0
    val = H_ell(1, sym_spec, window, T, DirichletPoly.one())
    assert abs(val.imag) < 1e-9 * abs(val)
    mid = (0.5 * math.log(sym_spec.alpha * 1.5 * T / (2 * TWO_PI)) + EULER_GAMMA)
    est = T * window.plateau_mass * mid / math.sqrt(2.0)
    assert abs(val.real - est) <= 0.02 * est
    # frozen regression (deterministic quadrature)
    assert val.real == pytest.approx(5922.769829258416, rel=1e-8)


def _h_ell_oracle(ell, spec, window, T, poly):
    # composite Gauss-Legendre on [1, 2] of phi(x) e^(-2 pi i T nu x) F(a, b, T x),
    # with F from F_func at each node, and nu and the prefactor from their formulas
    tup = find_tuple(spec, ell, T)
    ratio = tup.a / tup.b
    nu = spec.alpha * math.log(ratio) / TWO_PI - ell
    pref = np.exp(1j * spec.beta * math.log(ratio)) / math.sqrt(tup.a * tup.b)
    x, w = gl_panels(1.0, 2.0, 100)
    F = np.array([F_func(tup.a, tup.b, T * xi, poly, spec) for xi in x])
    return pref * T * np.sum(w * window.phi(x) * np.exp(-2j * math.pi * T * nu * x) * F)


_SYM_ALPHA = TWO_PI / math.log(2.0)


@pytest.mark.parametrize("spec, T, theta, ell, interpolated", [
    (ProgressionSpec.from_rational(1, 2, 1), 2000.0, 0.3, 1, True),
    (ProgressionSpec.from_rational(1, 2, 1), 2000.0, 0.3, 2, True),
    # a tuple (2, 1) off resonance: nu = 1e-4, T*nu = 0.2
    (ProgressionSpec(alpha=_SYM_ALPHA * (1 + 1e-4), beta=3.0), 2000.0, 0.3, 1, True),
    # heights start at 1e-6 * alpha*T: F's pole at tt = 0 sits just left of
    # x = 1, and the interpolant of degree 32 does not resolve F
    (ProgressionSpec.from_rational(1, 2, 1, beta=-(1 - 1e-6) * _SYM_ALPHA * 300.0),
     300.0, None, 1, False),
], ids=["sym-mollified-1", "sym-mollified-2", "off-resonance", "heights-near-0"])
def test_h_ell_against_gauss_legendre(spec, T, theta, ell, interpolated, window,
                                      monkeypatch):
    poly = DirichletPoly.one() if theta is None else mollifier_coeffs(T, theta)
    tup = find_tuple(spec, ell, T)
    nodes = []
    F_many = mmod._F_many

    def counted(tables, ts, spec):
        nodes.append((len(tables), len(ts)))
        return F_many(tables, ts, spec)

    monkeypatch.setattr(mmod, "_F_many", counted)
    F = mmod._F_on_window([mmod._f_pair_tables(tup.a, tup.b, poly)], T, spec)
    # one interpolant decides, kept or not: F of one tuple at its 33
    # Chebyshev points; a kept one serves every further node
    assert nodes == [(1, 33)]
    F(np.linspace(1.0, 2.0, 5), slice(None))
    assert nodes[1:] == ([] if interpolated else [(1, 5)])
    want = _h_ell_oracle(ell, spec, window, T, poly)
    assert abs(H_ell(ell, spec, window, T, poly) - want) <= 1e-10 * abs(want)


def test_h_ell_heights_reaching_zero_in_window(window, monkeypatch):
    # alpha*T*x + beta = 0 at x = 1 + 3e-4, and at x = 1 exactly: the
    # correction formula holds for positive heights only, so H_ell and
    # predict_E refuse before the tuple search, naming the CLI's way out
    T = 300.0
    one = DirichletPoly.one()
    for mod in (mmod, moments_oracle):
        monkeypatch.setattr(mod, "find_tuple", None)  # a call raises TypeError
    for beta in (-(1 + 3e-4) * _SYM_ALPHA * T, -_SYM_ALPHA * T):
        spec = ProgressionSpec.from_rational(1, 2, 1, beta=beta)
        with pytest.raises(ValueError, match="alpha\\*T \\+ beta > 0.*--no-predict"):
            H_ell(1, spec, window, T, one)
        with pytest.raises(ValueError, match="--no-predict"):
            predict_E(spec, window, T, one)


@pytest.mark.parametrize("spec, T, theta", [
    (ProgressionSpec.from_rational(1, 3, 2), 2000.0, 0.4),
    (ProgressionSpec(alpha=5.3, beta=0.3), 1000.0, None),
], ids=["1:3:2-mollified", "generic-alpha"])
def test_predict_e_sums_h_ell(spec, T, theta, window):
    # predict_E integrates all its tuples in one trapezoid; H_ell takes each
    # alone at its own start level.  Both agree to 1e-12 relative.
    poly = DirichletPoly.one() if theta is None else mollifier_coeffs(T, theta)
    ells = range(1, mmod._default_ell_max(spec, T, poly) + 1)
    H = [H_ell(ell, spec, window, T, poly) for ell in ells]
    assert sum(h != 0j for h in H) >= 2
    want = 4.0 * sum(H).real
    assert abs(predict_E(spec, window, T, poly) - want) <= 1e-12 * abs(want)


def test_predict_e_alpha_one_negligible(unit_spec, window):
    T = 2000.0
    pred = predict_E(unit_spec, window, T, DirichletPoly.one())
    cont = continuous_twisted_moment(unit_spec, window, T, DirichletPoly.one(), power=2)[0]
    assert pred == 0.0
    assert abs(pred) <= 0.05 * cont


def test_predict_e_symbolic_tracks_delta(sym_spec, window):
    # the predicted correction divided by the continuous moment approximates
    # delta = 2+2*sqrt(2) = 4.8284; at T=2000 the subleading terms still
    # shave ~25% off (measured 3.61 vs 4.83), so the assertion is a loose
    # mechanism check, not the asymptotic limit.
    T = 2000.0
    one = DirichletPoly.one()
    pred = predict_E(sym_spec, window, T, one)
    cont = continuous_twisted_moment(sym_spec, window, T, one, power=2)[0]
    d = delta(sym_spec)
    assert abs(pred / cont - d) <= 0.30 * d


# ---------------------------------------------------------------------------
# polynomial-only (no zeta) second moment: measured vs predicted
# ---------------------------------------------------------------------------

def test_predict_e_prime_trivial_poly(unit_spec, sym_spec, window):
    # |B|^2 = 1: discrete Poisson equals continuous exactly up to machine
    # terms, and the prediction is exactly zero (F' = 0).
    T = 2000.0
    one = DirichletPoly.one()
    for spec in (unit_spec, sym_spec):
        assert predict_E_prime(spec, window, T, one) == 0.0
        ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
        disc = float(np.sum(window.phi(ell / T)))
        assert abs(disc - T * window.plateau_mass) < 1e-8 * T


def test_predict_e_prime_symbolic_matches_measurement(sym_spec, window):
    # the central polynomial-only closure: measured discrete-minus-continuous
    # for |B|^2 against 2 Re sum of T*phi_hat(-T nu)*F'(a,b)/sqrt(ab).  The
    # second case, B = 1 + 0.8 * 3^-s just off the rational alpha = 2pi/ln 3
    # with beta != 0, has the tuple (3, 1) at ell = 1 with nu != 0: only
    # phi_hat(-T nu) gives its measured sign and size.
    near3 = ProgressionSpec(alpha=TWO_PI * (1 + 1.5e-4) / math.log(3), beta=-4.0)
    cases = [(sym_spec, 2000.0, mollifier_coeffs(2000.0, 0.3)),
             (near3, 5000.0, DirichletPoly(np.array([0.0, 1.0, 0.0, 0.8])))]
    for spec, T, poly in cases:
        pred = predict_E_prime(spec, window, T, poly)
        ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
        w = window.phi(ell / T)
        B = poly_grid(poly, spec.alpha * ell + spec.beta)
        disc = float(np.sum(w * (B * np.conj(B)).real))
        t, wq = gl_panels(T, 2 * T, 4000, 10)
        Bq = poly_grid(poly, spec.alpha * t + spec.beta)
        cont = float(np.sum(wq * window.phi(t / T) * (Bq * np.conj(Bq)).real))
        measured = disc - cont
        assert measured == pytest.approx(pred, rel=0.01)
        assert abs(measured) > 100.0  # the correction is macroscopic, not noise


def test_predict_e_prime_alpha_one_small(unit_spec, window):
    T = 2000.0
    moll = mollifier_coeffs(T, 0.3)
    pred = predict_E_prime(unit_spec, window, T, moll)
    assert pred == 0.0  # no tuples at desk scale
    ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
    w = window.phi(ell / T)
    B = poly_grid(moll, unit_spec.alpha * ell + unit_spec.beta)
    disc = float(np.sum(w * (B * np.conj(B)).real))
    t, wq = gl_panels(T, 2 * T, 4000, 10)
    Bq = poly_grid(moll, unit_spec.alpha * t + unit_spec.beta)
    cont = float(np.sum(wq * window.phi(t / T) * (Bq * np.conj(Bq)).real))
    assert abs(disc - cont) <= 0.05 * T * math.log(T)


@pytest.mark.parametrize("predict", [predict_E, predict_E_prime])
def test_predictions_refuse_a_tuple_search_past_budget(predict, window, monkeypatch):
    # alpha = 1e5 at T = 300 would search 285 046 values of ell (13 s, and
    # then a QuadratureError); the range is counted and refused before any
    # find_tuple call.  4096 values pass, and the widest the suite asks for
    # (38, at 2:5:1 and T = 2000) is far inside.
    monkeypatch.setattr(mmod, "find_tuple", lambda *args: pytest.fail("searched"))
    spec = ProgressionSpec(alpha=1e5)
    assert mmod._default_ell_max(spec, 300.0, DirichletPoly.one()) == 285_046
    with pytest.raises(CapError, match=r"ell = 1 \.\. 285046 exceeds the budget of 4096"):
        predict(spec, window, 300.0, DirichletPoly.one())
    found = []
    monkeypatch.setattr(mmod, "find_tuple", lambda spec, ell, T, eps: found.append(ell))
    monkeypatch.setattr(mmod, "_default_ell_max", lambda *args: mmod._TUPLE_ELL_CAP)
    assert predict(spec, window, 300.0, DirichletPoly.one()) == 0.0
    assert found == list(range(1, 4097))


def test_support_annihilation(sym_spec, window):
    # a polynomial vanishing on every multiple of the tuple numerators makes
    # every F'(a,b) = 0 term-by-term: b(a r) = 0 kills the whole prediction.
    coeffs = np.zeros(8)
    coeffs[[1, 3, 5, 7]] = [1.0, -0.4, 0.2, -0.1]
    poly = DirichletPoly(coeffs)
    assert predict_E_prime(sym_spec, window, 2000.0, poly) == 0.0


def test_mollifier_damping(unit_spec, window):
    # mollified vs raw second moment: the mollifier suppresses the moment by
    # roughly 1/ln T; the measured discrete ratio stays below 5/ln T.
    T = 1e4
    moll = mollifier_coeffs(T, 0.3)
    one = DirichletPoly.one()
    num = sample_progression(unit_spec, window, T, moll).twisted_sum(2)
    den = sample_progression(unit_spec, window, T, one).twisted_sum(2)
    assert num / den <= 5.0 / math.log(T)


# ---------------------------------------------------------------------------
# first moment and nonvanishing
# ---------------------------------------------------------------------------

def test_first_moment_near_plateau_mass(unit_spec, window):
    # I = sum phi(ell/T) zeta(...) M(...) should track T*phi_hat(0): the
    # mollifier inverts zeta on average and the plateau carries the mass.
    T = 2000.0
    moll = mollifier_coeffs(T, 0.3)
    I = sample_progression(unit_spec, window, T, moll).twisted_sum(1)
    ref = T * window.phi_hat(0.0).real
    dev = abs(I - ref)
    assert dev <= FIRST_MOMENT_DEV_CONST * T / math.log(T)


def test_first_moment_regression_scaling(unit_spec, window):
    # same constant must absorb T=1000 (frozen regression; measured
    # deviations were 79.3 at T=2000 and 37.7 at T=1000).
    T = 1000.0
    moll = mollifier_coeffs(T, 0.3)
    I = sample_progression(unit_spec, window, T, moll).twisted_sum(1)
    dev = abs(I - T * window.phi_hat(0.0).real)
    assert dev <= FIRST_MOMENT_DEV_CONST * T / math.log(T)


def test_nonvanishing_bound_report(unit_spec, window):
    T = 2000.0
    rep = nonvanishing_bound(sample_progression(unit_spec, window, T,
                                                mollifier_coeffs(T, 0.4)))
    assert 0.0 <= rep.bound <= 1.0
    assert rep.bound >= 0.2
    assert rep.target == pytest.approx(0.4 / 1.4 * window.plateau_mass, abs=1e-15)
    assert rep.bound == pytest.approx(abs(rep.moment_first) ** 2 / (T * rep.moment_second),
                                      rel=1e-12)


@pytest.mark.parametrize("T", [0.4, 1.0], ids=["no-node", "phi-zero-nodes"])
def test_nonvanishing_refuses_zero_second_moment(unit_spec, window, T):
    # [0.4, 0.8] holds no integer; [1, 2] holds 1 and 2, both at phi = 0:
    # either way J = 0 and |I|^2 / (T*J) is undefined
    sample = sample_progression(unit_spec, window, T, mollifier_coeffs(100.0, 0.3))
    assert sample.twisted_sum(2) == 0.0
    with pytest.raises(DegenerateDenominatorError):
        nonvanishing_bound(sample)


def test_nonvanishing_theta_validation(unit_spec, window):
    with pytest.raises(ValueError):
        nonvanishing_bound(sample_progression(unit_spec, window, 2000.0,
                                              mollifier_coeffs(2000.0, 0.6)))
    with pytest.raises(ValueError, match="Mollifier"):
        nonvanishing_bound(sample_progression(unit_spec, window, 300.0, DirichletPoly.one()))


def test_empirical_nonvanishing_monotone(unit_spec, window):
    T = 500.0
    sample = sample_progression(unit_spec, window, T, DirichletPoly.one())
    fracs = [empirical_nonvanishing(sample, th) for th in (0.0, 0.05, 0.1, 0.5, 2.0)]
    assert fracs[0] == 1.0
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[2] >= 1.0 / 3.0


def test_empirical_nonvanishing_at_ell_one(unit_spec, window):
    # log 1 = 0: the bar threshold * (log ell)^(-1/2) is +inf at ell = 1, so
    # the node counts at threshold 0 only
    sample = sample_progression(unit_spec, window, 1.0, DirichletPoly.one())
    assert list(sample.ell) == [1, 2]
    assert empirical_nonvanishing(sample, 0.0) == 1.0
    assert empirical_nonvanishing(sample, 0.1) == 0.5


def test_empirical_nonvanishing_validation(unit_spec, window):
    with pytest.raises(ValueError):
        empirical_nonvanishing(sample_progression(unit_spec, window, 500.0,
                                                  DirichletPoly.one()), -0.1)
    # a hand-built sample can hold nodes ell < 1, where log ell < 0
    low = dataclasses.replace(sample_progression(unit_spec, window, 1.0, DirichletPoly.one()),
                              ell=np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="nodes ell >= 1"):
        empirical_nonvanishing(low, 0.0)
    empty = sample_progression(unit_spec, window, 0.4, DirichletPoly.one())  # [0.4, 0.8]
    assert len(empty.ell) == 0
    with pytest.raises(ValueError, match="empty progression window"):
        empirical_nonvanishing(empty, 0.1)
