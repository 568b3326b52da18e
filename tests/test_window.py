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
from zetaprog.quadrature import start_level, trapezoid


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
    # 601 frequencies in [-0.9, 0.9], 0 and negative ones among them, share
    # the level of 1121 nodes per unit (the band below 1 plus 56 nodes
    # across each ramp) and take three blocks of it (233 rows each); 40 more
    # up to 40 take levels of their own.  Each is its own one-element
    # phi_hat: the same level, and one row's sum.
    xis = np.concatenate([np.arange(-300, 301) * (0.9 / 300), np.linspace(1.5, 40.0, 40)])
    per_unit = start_level(1.0, 2.0, 0.9 + window_module.ETA_PHI_HAT / window.edge)[0]
    assert per_unit == 1121 and 600 > 2 * (window_module._TRANSFORM_ELEMS // (per_unit + 1))
    got = window_module._phi_hats(window, xis)
    want = np.array([window.phi_hat(xi) for xi in xis])
    assert np.array_equal(got, want)
    assert got[300] == window.plateau_mass and np.all(got[:300] == np.conj(got[600:300:-1]))


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
def test_phi_hat_rejects_non_finite_frequency(window, xi):
    with pytest.raises(ValueError):
        window.phi_hat(xi)


@pytest.mark.parametrize("edge, per_unit", [(0.3, 187), (0.49, 115)], ids=["0.3", "0.49"])
def test_phi_hat_level_is_its_band_and_margin(edge, per_unit, monkeypatch):
    # 56/edge > 112 for every edge the window accepts, so the one level of
    # a low frequency xi holds ceil(xi + 56/edge) > 112 nodes per unit:
    # 0.3 + 186.67 and 0.3 + 114.29 round up to 187 and 115
    calls = []

    def recording(level_sum, *args):
        def record(j, p):
            calls.append((j, p))
            return level_sum(j, p)
        return trapezoid(record, *args)

    monkeypatch.setattr(window_module, "trapezoid", recording)
    SmoothWindow(edge).phi_hat(0.3)
    assert calls == [(range(per_unit, 2 * per_unit + 1), per_unit)]


@pytest.mark.parametrize("edge, xi", [(1e-7, 3.0), (0.05, 1e300), (0.05, 1e7)])
def test_phi_hat_refuses_past_node_budget_unallocated(edge, xi):
    # 56/edge or xi nodes per unit would put the level past the trapezoid's
    # budget: refused before any node array exists
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


def _ramp_density(u):
    """S'(u) of the ramp S(u) = f(u) / (f(u) + f(1 - u)), f(u) = exp(-1/u),
    at 0 < u < 1."""
    fu, fv = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    return fu * fv * (1.0 / u ** 2 + 1.0 / (1.0 - u) ** 2) / (fu + fv) ** 2


def _ramp_transform(etas, nodes=4000):
    """The cosine and sine parts of integral over [0, 1] of S'(u)
    e^(-2*pi*i*eta*(u - 1/2)) du at every eta, by the trapezoid with `nodes`
    intervals: S' vanishes with all its derivatives at 0 and 1, and its
    transform (G itself) is below rounding past eta = 160, so the rule is
    exact to rounding for eta <= nodes - 160."""
    u = np.arange(1, nodes) / nodes
    d = _ramp_density(u) / nodes
    phase = 2.0 * np.pi * np.outer(etas, u - 0.5)
    return np.cos(phase) @ d, np.sin(phase) @ d


def test_ramp_transform_G():
    # G(eta), the cosine part, is the ramp's transform that sets every
    # trapezoid margin: G(0) = 1, for S' integrates to S(1) - S(0); S' is
    # even about 1/2, since S(u) + S(1 - u) = 1, so the sine part vanishes
    # and G is real and even; and 4000 intervals agree with 2e5
    u = np.linspace(0.01, 0.99, 99)
    assert np.allclose(_ramp_density(u), _ramp_density(1.0 - u), rtol=1e-13, atol=0.0)
    etas = np.array([0.0, 1.0, 5.0, 20.0, 40.0, 80.0])
    G, sine = _ramp_transform(etas)
    assert abs(G[0] - 1.0) < 1e-15 and np.max(np.abs(sine)) < 1e-15
    assert np.all(_ramp_transform(-etas)[0] == G)
    assert np.max(np.abs(G - _ramp_transform(etas, 200_000)[0])) < 1e-15
    assert G[3] == pytest.approx(-4.44e-6, rel=1e-3) and G[4] == pytest.approx(-7.38e-9, rel=1e-3)
    # and the closed form it enters: phi_hat(xi) = e^(-3 pi i xi) (1 - edge)
    # sinc((1 - edge) xi) G(edge xi), whose sinc bounds |phi_hat(xi)| by
    # |G(edge xi)| edge / (pi edge xi); phi_hat meets it to its own 1e-12
    # (at edge 0.25 and xi = 333.3 its alias error reads 1.5e-13)
    for edge in (0.01, 0.05, 0.25, 0.4):
        w = SmoothWindow(edge)
        xis = np.array([0.3, 7.0, 41.5, 333.3])
        closed = (np.exp(-3j * np.pi * xis) * (1.0 - edge) * np.sinc((1.0 - edge) * xis)
                  * _ramp_transform(edge * xis)[0])
        assert np.max(np.abs(window_module._phi_hats(w, xis) - closed)) < 1e-12


@pytest.mark.parametrize("name, scale, contract", [
    ("ETA_RELATIVE", 0.05 / np.pi, 1e-10),
    ("ETA_PHI_HAT", 1.0 / (2.0 * np.pi), 1e-12),
], ids=["relative", "phi-hat"])
def test_alias_margins_are_rederived_from_G(name, scale, contract):
    # A trapezoid whose first alias lies eta / edge past the band errs by at
    # most sup over eta' >= eta of |G(eta')| edge / (pi eta'): for the
    # moments' and H's 1e-10 relative at the default edge 0.05, and for
    # phi_hat's 1e-12 absolute at every edge below 1/2, edge / pi < 1/(2 pi).
    # Each margin is the smallest multiple of 8 at which that bound stays
    # below half its contract.  A scan to 240, where |G| is at rounding,
    # covers every eta' that matters.
    etas = np.arange(1, 4801) * 0.05
    bound = np.abs(_ramp_transform(etas)[0]) * scale / etas
    tail = np.maximum.accumulate(bound[::-1])[::-1]
    eta = next(e for e in range(8, 240, 8) if tail[20 * e - 1] < contract / 2)
    assert getattr(window_module, name) == eta
    # the two readings the constants rest on: 3.4e-11 and 3.4e-13
    assert tail[20 * eta - 1] == pytest.approx({32: 3.39e-11, 56: 3.43e-13}[eta], rel=0.01)
