"""Tests for the smooth compactly supported window phi and its transform.

Oracles:
  * the plateau mass 1 - edge follows from the ramp symmetry S(u)+S(1-u)=1,
    and is re-derived here by quadrature;
  * phi_hat is cross-checked against scipy's oscillatory-weight quadrature
    (QAWO) and against Gauss-Legendre panels, neither of which shares code
    with the package's trapezoid;
  * Poisson summation ties the whole transform to a plain lattice sum.
"""
import math
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.integrate
from gl_oracle import gl_panels

from zetaprog import QuadratureError, SmoothWindow
from zetaprog import window as window_module
from zetaprog.quadrature import nested_trapezoid, start_level


def test_support_and_plateau(window):
    xs = np.linspace(1.05, 1.95, 401)
    assert np.all(window.phi(xs) == 1.0)
    assert window.phi(0.999999) == 0.0
    assert window.phi(2.000001) == 0.0
    assert window.phi(-3.0) == 0.0
    # strictly between 0 and 1 on the open ramps
    for x in (1.01, 1.04, 1.96, 1.99):
        assert 0.0 < window.phi(x) < 1.0


def test_scalar_and_array_agree(window):
    xs = np.array([0.5, 1.02, 1.5, 1.97, 2.5])
    arr = window.phi(xs)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        assert window.phi(float(x)) == v


def test_plateau_mass_value_and_quadrature(window):
    assert window.plateau_mass == 1.0 - 0.05
    # re-derive by quadrature: integral of phi over [1,2]
    val, err = scipy.integrate.quad(window.phi, 1.0, 2.0, limit=200)
    assert err < 1e-8   # quad's (conservative) error estimate
    assert abs(val - window.plateau_mass) < 1e-10


def test_custom_edge():
    w = SmoothWindow(edge=0.2)
    assert w.plateau_mass == 0.8
    assert w.phi(1.21) == 1.0
    assert 0.0 < w.phi(1.1) < 1.0


@pytest.mark.parametrize("edge", [0.05, 0.3, 1e-310], ids=["0.05", "0.3", "overflow"])
def test_phi_one_ramp_equals_two_ramp_product(edge):
    # phi takes one ramp at the nearer edge; it must equal the product of
    # both ramps bit for bit, on a dense grid over both ramps and outside
    # [1, 2], at random points, at the ends and edges, and where a tiny edge
    # overflows the ramp arguments to +-inf.
    rng = np.random.default_rng(11)
    xs = np.concatenate([np.linspace(0.9, 2.1, 200_001), rng.uniform(0.9, 2.1, 100_000),
                         [1.0, 2.0, 1.0 + edge, 2.0 - edge, np.nextafter(1.0, 0.0),
                          np.nextafter(2.0, 3.0), -np.inf, np.inf]])
    ramp = window_module._ramp
    with np.errstate(over="ignore"):
        want = ramp((xs - 1.0) / edge) * ramp((2.0 - xs) / edge)
    assert np.array_equal(SmoothWindow(edge=edge).phi(xs), want)
    ramps = (want > 0.0) & (want < 1.0)
    if edge > 1e-300:  # both ramps are sampled
        assert np.any(ramps & (xs < 1.5)) and np.any(ramps & (xs > 1.5))
    else:  # every argument off the plateau's ends is +-inf
        assert not np.any(ramps)


@pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.7])
def test_edge_validation(bad):
    with pytest.raises(ValueError):
        SmoothWindow(edge=bad)


def test_ramp_complement_symmetry(window):
    # S(u) + S(1-u) = 1 translates to phi(x) + phi(x + edge-shifted mirror):
    # on the rising ramp, phi(1+u) + phi(1 + (0.05-u)) = 1 has no reason to
    # hold; the true symmetry is phi(1+u) = 1 - phi(1 + 0.05 - u) composed
    # with the mirror x -> 3-x mapping the rising onto the falling ramp.
    for u in (0.01, 0.02, 0.04):
        assert window.phi(1.0 + u) == pytest.approx(window.phi(2.0 - u), abs=1e-15)
        assert window.phi(1.0 + u) + window.phi(1.0 + 0.05 - u) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# smoothness: k-th difference quotients converge for k <= 6.  A function with
# a discontinuous m-th derivative would show |D_k(h/2)/D_k(h)| near 2^(k-m)
# instead of 1.  Ramp-edge points are excluded for the high orders because
# the stencil must not straddle the support boundary at x=1.
# ---------------------------------------------------------------------------

def _diff_quot(f, x, k, h):
    return sum((-1) ** j * comb(k, j) * f(x + (k / 2 - j) * h) for j in range(k + 1)) / h ** k


@pytest.mark.parametrize("k,grid,h", [
    (1, [1.005, 1.01, 1.015, 1.02, 1.03, 1.035, 1.04, 1.045], 2e-3),
    (2, [1.005, 1.01, 1.015, 1.02, 1.03, 1.035, 1.04, 1.045], 2e-3),
    (3, [1.005, 1.01, 1.015, 1.02, 1.03, 1.035, 1.04, 1.045], 2e-3),
    (4, [1.015, 1.02, 1.025, 1.03, 1.035], 5e-4),
    (5, [1.015, 1.02, 1.025, 1.03, 1.035], 5e-4),
    (6, [1.015, 1.02, 1.025, 1.03, 1.035], 5e-4),
])
def test_difference_quotients_converge(window, k, grid, h):
    xstar = max(grid, key=lambda x: abs(_diff_quot(window.phi, x, k, h)))
    coarse = _diff_quot(window.phi, xstar, k, h)
    fine = _diff_quot(window.phi, xstar, k, h / 2)
    assert abs(coarse) > 0.0
    assert abs(fine / coarse - 1.0) < 0.25


def test_difference_quotients_vanish_on_plateau(window):
    for k in range(1, 7):
        assert _diff_quot(window.phi, 1.5, k, 1e-3) == 0.0


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def test_phi_hat_zero_frequency(window):
    assert window.phi_hat(0.0) == complex(window.plateau_mass)


def test_phi_hat_conjugate_symmetry(window):
    for xi in (0.7, 3.3, 12.1):
        assert window.phi_hat(-xi) == np.conj(window.phi_hat(xi))


def test_phi_hat_against_scipy_oscillatory(window):
    # independent oracle: QAWO handles the e^{-2 pi i xi t} weight natively
    for xi in (0.3, 1.7, 12.5):
        om = 2.0 * math.pi * xi
        re, re_err = scipy.integrate.quad(window.phi, 1.0, 2.0, weight="cos", wvar=om, limit=400)
        im, im_err = scipy.integrate.quad(window.phi, 1.0, 2.0, weight="sin", wvar=om, limit=400)
        assert max(re_err, im_err) < 1e-7   # QAWO's own (conservative) estimate
        got = window.phi_hat(xi)
        assert abs(got - complex(re, -im)) < 1e-9


@pytest.mark.parametrize("edge", [0.2, 0.05, 0.01])
@pytest.mark.parametrize("xi", [0.3, 3.0, 40.0, 333.3, 500.0])
def test_phi_hat_against_gauss_legendre(edge, xi):
    # degree-20 panels a quarter oscillation or a quarter ramp wide: doubling
    # them moves the reference by < 4e-15
    w = SmoothWindow(edge)
    x, wq = gl_panels(1.0, 2.0, math.ceil(4 * max(xi, 1.0 / edge)), 20)
    ref = complex(np.sum(wq * w.phi(x) * np.exp(-2j * np.pi * xi * x)))
    assert abs(w.phi_hat(xi) - ref) < 1e-12


def test_phi_hats_batch_matches_phi_hat(window):
    # 421 frequencies, 0 and negative ones among them, take three blocks of
    # the batched transform (204 rows each at 320 nodes per unit); each
    # agrees with its own one-element phi_hat to phi_hat's 1e-12 (a block
    # halves until all its rows agree, a single frequency may stop a level
    # earlier)
    xis = np.arange(-210, 211) * (40.0 / 210)
    per_unit = start_level(1.0, 2.0, max(4 * 40.0, 16 / window.edge))[0]
    assert len(xis) > 2 * (window_module._TRANSFORM_ELEMS // (4 * per_unit))
    got = window_module._phi_hats(window, xis)
    want = np.array([window.phi_hat(xi) for xi in xis])
    assert np.max(np.abs(got - want)) < 1e-12
    assert got[210] == window.plateau_mass and np.all(got[:210] == np.conj(got[:210:-1]))


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
def test_phi_hat_rejects_non_finite_frequency(window, xi):
    with pytest.raises(ValueError):
        window.phi_hat(xi)


@pytest.mark.parametrize("edge, per_unit", [(0.3, 54), (0.49, 33)], ids=["0.3", "0.49"])
def test_phi_hat_starts_at_16_nodes_across_a_ramp(edge, per_unit, monkeypatch):
    # 16/edge > 32 for every edge the window accepts, so the start level of
    # a low frequency holds ceil(16/edge) > 32 nodes per unit: the even
    # numerators of the first call's lattice at twice that
    calls = []

    def recording(level_sum, *args):
        def record(j, p):
            calls.append((j, p))
            return level_sum(j, p)
        return nested_trapezoid(record, *args)

    monkeypatch.setattr(window_module, "nested_trapezoid", recording)
    SmoothWindow(edge).phi_hat(0.3)
    assert calls[0] == (range(2 * per_unit, 4 * per_unit + 1), 2 * per_unit)


@pytest.mark.parametrize("edge, xi", [(1e-7, 3.0), (0.05, 1e300), (0.05, 1e7)])
def test_phi_hat_refuses_past_node_budget_unallocated(edge, xi):
    # 16/edge or 4*xi nodes per unit would put the start level past the
    # trapezoid's budget: refused before any node array exists
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError):
            SmoothWindow(edge).phi_hat(xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_poisson_summation(window):
    # sum of phi(ell/T) over integers equals T * sum of phi_hat(k T); at
    # T=100 the k != 0 transform values are already negligible against the
    # 1e-10 budget, so three terms a side saturate machine precision.
    T = 100.0
    lhs = float(np.sum(window.phi(np.arange(1, 1000) / T)))
    rhs = float(sum((T * window.phi_hat(k * T)).real for k in range(-3, 4)))
    assert abs(lhs - rhs) < 1e-10


def test_phi_hat_decay_profile(window):
    # frozen regression values (2x headroom over direct evaluation):
    # the transform of a C-infinity bump decays faster than any power, but
    # the onset is slow for edge=0.05 -- |phi_hat| is still ~1e-3 at xi=30.
    for xi, cap in [(2.0, 0.08), (5.0, 0.08), (10.0, 0.05), (30.7, 2.5e-3),
                    (100.5, 1e-5), (201.3, 2e-7), (333.3, 5e-8)]:
        assert abs(window.phi_hat(xi)) < cap
    # eventual domination of any fixed power:
    assert 333.3 ** 4 * abs(window.phi_hat(333.3)) < 500.0


def test_phi_hat_alignment_zeros(window):
    # with edge = 0.05 the support is exactly 20 edge-widths, so at xi in
    # 20Z the two ramps sit an integer number of periods apart and cancel
    # exactly; phi_hat vanishes identically there.
    for xi in (20.0, 40.0, 60.0):
        assert abs(window.phi_hat(xi)) < 1e-12
