"""Smoothing weight W in closed form, the AFE square it weights, and
arithmetic transform H: the two transforms of the kernel G(w) = exp(w^2).

They are defined on a vertical line Re w = sigma:

    W(x) = (1/2*pi*i) * integral of x^(-w) G(w) dw / w,
    H(x) = (1/2*pi*i) * integral of zeta(1+2w) x^w G(w) dw / w,

G appears only inside these integrands, and _h_contour writes it as
exp(w*w).  Completing the square in W's integrand gives the closed form
W(x) = erfc(ln(x)/2)/2, which both `eval_W` and `w_many` return.

afe_square is the smoothed |zeta(1/2+it)|^2 of the approximate functional
equation, each term weighted by W.

H is computed by the trapezoid rule at a uniform step on the truncated line
Re w = 1/2, |Im w| <= 12, with zeta(1+2w) from zeta's Euler-Maclaurin
progression engine (this module imports zeta, never the reverse).  The
Gaussian decay of G makes the height cut of 12 already overkill
(truncation below 1e-12 of the peak), and on an analytic
integrand with that decay the trapezoid error falls like exp(-2*pi*d/step),
where d = 1/2 is the distance from the line to the pole at w = 0 (Trefethen &
Weideman, SIAM Review 56, 2014).  The imaginary part of the result is a pure
consistency residual and is checked before being discarded.

Two identities anchor the test oracles:
  * W(x) + W(1/x) = 1 (the pole at w = 0 crossed by a contour shift, since
    G is even);
  * expanding zeta(1+2w) termwise gives H(x) = sum over r of (1/r) W(r^2/x).

Bulk consumers of H (the correction-term double sums) go through `h_many`, a
piecewise Chebyshev interpolant in log x sampled from the same contour -- an
accelerator behind the identical contract, verified against the direct
quadrature in the property suite.
"""
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebpts1

from .errors import CapError, ToleranceError
from .zeta import _euler_maclaurin

__all__ = ["eval_W", "eval_H", "w_many", "h_many", "afe_square"]

EULER_GAMMA = float(np.euler_gamma)

# math.erfc elementwise: within 3e-16 relative of the exact value.
_erfc = np.vectorize(math.erfc, otypes=[float])

# Above X_HI, H is its asymptotic (1/2) log x + gamma; the branch is
# overlap-tested against the direct contour in the property suite.
X_HI = 1e4

# The H contour: the line Re w = _SIGMA, cut at |Im w| <= _HEIGHT_CUT, with
# trapezoid nodes _STEP apart.  A step of 0.075 already matches 1/16 to 2e-14.
_SIGMA = 0.5
_HEIGHT_CUT = 12.0
_STEP = 1.0 / 16.0

# afe_square's default cutoff is t^(1 + _AFE_EPSILON).
_AFE_EPSILON = 0.2


def _positive(x, name: str) -> np.ndarray:
    """x as a float array; ValueError unless every entry is > 0 (NaN included)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"{name} requires x > 0")
    return x


def eval_W(x: float) -> float:
    """Smoothing weight W(x) = erfc(ln(x)/2)/2."""
    return float(w_many(_positive(float(x), "eval_W")))


def w_many(x) -> np.ndarray:
    """Vectorized W over an array of positive x."""
    return 0.5 * _erfc(np.log(_positive(x, "w_many")) / 2.0)


def afe_square(t: float, cap: float | None = None) -> float:
    """Smoothed square |zeta(1/2+it)|^2 from the approximate functional equation:

        2 * sum_{N < cap} (W(2*pi*N/t)/sqrt(N)) * Re[N^-it * sum_{d|N} d^2it].

    The double sum over mn = N is regrouped through the divisor sums
    sigma_2it(N), filled by a d -> multiples sieve in O(cap log cap).  Kept
    as a paper quantity that demos/kernels_and_engines.py shows.
    """
    t = float(t)
    if t < 10.0:
        raise ValueError("afe_square needs t >= 10")
    need = t ** (1.0 + _AFE_EPSILON)
    if cap is None:
        cap = need
    if cap < need:
        raise CapError(f"cap {cap:g} below t^{1.0 + _AFE_EPSILON:g} = {need:g}")
    X = int(np.floor(cap))
    d = np.arange(1, X + 1, dtype=float)
    z = np.exp(2j * t * np.log(d))
    sig = np.zeros(X + 1, dtype=complex)
    for dv in range(1, X + 1):
        sig[dv::dv] += z[dv - 1]
    N = np.arange(1, X + 1, dtype=float)
    weight = w_many(2.0 * np.pi * N / t) / np.sqrt(N)
    assembled = complex(np.sum(weight * np.exp(-1j * t * np.log(N)) * sig[1:]))
    if abs(assembled.imag) > 1e-8:
        raise ToleranceError(
            f"afe_square({t}): imaginary residual {assembled.imag:.3e} exceeds 1e-8")
    return 2.0 * assembled.real


# -- H(x) ---------------------------------------------------------------------


@lru_cache(maxsize=1)
def _zeta_line():
    """Nodes w = _SIGMA + i*h of the truncated line, with trapezoid weights
    and zeta(1 + 2w) cached at the nodes: the heights of s = 1 + 2w are a
    progression on Re s = 1 + 2 _SIGMA, one zeta._euler_maclaurin run."""
    count = round(_HEIGHT_CUT / _STEP)
    w = _SIGMA + 1j * _STEP * np.arange(-count, count + 1)
    return w, _STEP, _euler_maclaurin(2.0 * w.imag, 2.0 * _STEP, 1.0 + 2.0 * _SIGMA)


def _h_contour(u: np.ndarray) -> np.ndarray:
    """The H contour integral at x = exp(u), complex: one (nodes x u) matmul."""
    w, wt, zv = _zeta_line()
    core = wt * zv * np.exp(w * w) / w
    return core @ np.exp(np.outer(w, u)) / (2.0 * np.pi)


def eval_H(x: float) -> float:
    """Arithmetic transform H(x); real, accurate to 1e-8.

    For x >= X_HI returns the asymptotic (1/2) log x + gamma directly; the
    remainder there is below 1e-12.  The pole of zeta(1+2w) at w = 0 stays
    left of the contour, so the (1/2) log x main term emerges numerically,
    never by residue bookkeeping.
    """
    x = float(_positive(float(x), "eval_H"))
    if x >= X_HI:
        return 0.5 * np.log(x) + EULER_GAMMA
    val = complex(_h_contour(np.array([np.log(x)]))[0])
    if abs(val.imag) > 1e-8:
        raise ToleranceError(f"H({x}): imaginary residual {val.imag:.3e} exceeds 1e-8")
    return float(val.real)


_HU_LO = -20.0
_HU_HI = float(np.log(X_HI))
# On 32 equal panels of [_HU_LO, _HU_HI], the Chebyshev coefficients of
# H(exp(u)) fall to their noise floor, below 3e-16 of the largest, by degree
# 12.  One series over the whole range needs degree 90, and its Clenshaw
# recurrence costs 90 passes over every argument array.
_H_PANELS = 32
_H_DEG = 12
_H_PANEL_WIDTH = (_HU_HI - _HU_LO) / _H_PANELS


@lru_cache(maxsize=1)
def _h_table() -> np.ndarray:
    """Interpolants of H(exp(u)) at each panel's Chebyshev points: row k holds
    every panel's coefficient of s^(_H_DEG - k), s in [-1, 1] across the panel.
    ToleranceError when the contour's imaginary residual at a node exceeds
    1e-8, as in eval_H."""
    s = chebpts1(_H_DEG + 1)
    mids = _HU_LO + _H_PANEL_WIDTH * (np.arange(_H_PANELS) + 0.5)
    u = np.add.outer(mids, 0.5 * _H_PANEL_WIDTH * s)
    vals = _h_contour(u.ravel())
    residual = float(np.max(np.abs(vals.imag)))
    if residual > 1e-8:
        raise ToleranceError(f"H table: imaginary residual {residual:.3e} exceeds 1e-8")
    return np.linalg.solve(np.vander(s), vals.real.reshape(u.shape).T)


def h_many(x) -> np.ndarray:
    """Vectorized H over an array of positive x (piecewise Chebyshev interpolant).

    Below exp(-20) the transform is smaller than 1e-44 and is returned as 0;
    above X_HI the asymptotic branch applies as in eval_H.
    """
    u = np.log(_positive(x, "h_many"))
    out = np.zeros_like(u)
    hi = u >= _HU_HI
    out[hi] = 0.5 * u[hi] + EULER_GAMMA
    mid = (u > _HU_LO) & ~hi
    pos = (u[mid] - _HU_LO) / _H_PANEL_WIDTH
    panel = np.minimum(pos.astype(np.intp), _H_PANELS - 1)
    s = 2.0 * (pos - panel) - 1.0
    coef = _h_table()
    val = coef[0].take(panel)
    for row in coef[1:]:
        val *= s
        val += row.take(panel)
    out[mid] = val
    return out
