"""Reference evaluation of zeta(s) and the smoothed square |zeta(1/2+it)|^2.

The reference engine is Euler-Maclaurin with an adaptive cutoff,

    zeta(s) = sum_{n<N} n^-s + N^-s/2 + N^(1-s)/(s-1)
              + sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1),

valid for every complex s != 1, which is what lets the same engine serve the
H-transform contour (s = 1+2w) and the critical line.  Scalar evaluations
reduce the phases t*log n in 80-bit extended precision before taking cos/sin:
at t = 1e5 the raw float64 product already carries ~1e-10 of phase error,
which is exactly the target accuracy.

Grid scans (moment sums, resonance searches) go through a Riemann-Siegel
accelerator behind the same contract: the main sum is grouped by
m = floor(sqrt(t/2pi)) so each group is one cosine matrix, and the remainder
terms C_0..C_4 are Chebyshev fits of the usual Psi-derivative combinations,
built once per process from an FFT-Cauchy Taylor expansion of Psi.  EM/RS
agreement to 1e-6 wherever both run is part of the contract and the suite.
"""
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import bernoulli, loggamma

from .errors import AccuracyError, CapError, PoleError, ToleranceError
from .kernels import DEFAULT_CONTOUR, ContourConfig, w_many

__all__ = ["ZetaEngineConfig", "zeta_em", "zeta_critical", "zeta_critical_grid",
           "afe_square", "main_sum", "main_sum_grid", "zeta_abs2_grid"]

_TWO_PI = 2.0 * np.pi
_TWO_PI_LD = np.longdouble(2) * np.arccos(np.longdouble(-1))
_BERN = bernoulli(32)  # B_0 .. B_32; even indices are what the tail uses

# Above this height the grid path switches from Euler-Maclaurin matrices to
# the Riemann-Siegel accelerator (agreement is ~1.5e-9 at the seam).
RS_MIN_T = 2000.0

# Lowest height engine="rs" accepts.  Against mpmath the accelerator's
# maximum error is 4.4e-6 on [100, 150], 1.6e-6 on [150, 200] and 7.1e-7 on
# [200, 250]; from 300 up it stays below 3.6e-7, inside the 1e-6 contract.
RS_FORCED_MIN_T = 300.0

_EM_HARD_CAP = 4_000_000


@dataclass(frozen=True)
class ZetaEngineConfig:
    em_terms: int = 50
    em_bernoulli_order: int = 12
    afe_epsilon: float = 0.2

    def __post_init__(self):
        if self.em_terms < 10:
            raise ValueError("em_terms must be >= 10")
        if not (2 <= self.em_bernoulli_order <= 15):
            raise ValueError("em_bernoulli_order must lie in [2, 15]")
        if not (0.0 < self.afe_epsilon <= 0.5):
            raise ValueError("afe_epsilon must lie in (0, 0.5]")


DEFAULT_ENGINE = ZetaEngineConfig()


def _em_tail(s, N, korder: int, head=0.0):
    """head + N^-s/2 + N^(1-s)/(s-1) + the Bernoulli correction sum, for scalar
    or array s, added to head term by term (the rounding of in-place sums)."""
    Ns = np.exp(-s * np.log(N))
    tot = head + (0.5 * Ns + Ns * N / (s - 1.0))
    fac = s * Ns / N
    for k in range(1, korder + 1):
        tot = tot + _BERN[2 * k] / math.factorial(2 * k) * fac
        fac = fac * (s + (2 * k - 1)) * (s + 2 * k) / (N * N)
    return tot


def zeta_em(s, cfg: ZetaEngineConfig = DEFAULT_ENGINE) -> complex:
    """Euler-Maclaurin zeta(s), absolute error <= 1e-10 for |Im s| <= 1e5.

    Raises PoleError at s = 1 and AccuracyError if the adaptive cutoff
    2|Im s| would exceed the hard cap.  Conjugation symmetry is exact: the
    lower half plane is evaluated as conj(zeta(conj s)).
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    if s.imag < 0.0:
        return np.conj(zeta_em(np.conj(s), cfg))
    N = max(cfg.em_terms, 50, int(2.0 * abs(s.imag)) + 1)
    if N > _EM_HARD_CAP:
        raise AccuracyError(f"Euler-Maclaurin cutoff {N} exceeds hard cap {_EM_HARD_CAP}")
    n = np.arange(1, N, dtype=np.int64)
    # Phases in 80-bit extended precision, then back to doubles per term.
    ph = np.mod(np.longdouble(s.imag) * np.log(n.astype(np.longdouble)), _TWO_PI_LD)
    mag = n.astype(np.float64) ** (-s.real)
    re = math.fsum(mag * np.cos(ph).astype(np.float64))
    im = -math.fsum(mag * np.sin(ph).astype(np.float64))
    return _em_tail(s, float(N), cfg.em_bernoulli_order, complex(re, im))


def zeta_critical(t: float, cfg: ZetaEngineConfig = DEFAULT_ENGINE) -> complex:
    """zeta(1/2 + it) through the reference engine."""
    return zeta_em(0.5 + 1j * float(t), cfg)


# -- Riemann-Siegel accelerator ----------------------------------------------


def _theta(t):
    t = np.asarray(t, dtype=float)
    return np.imag(loggamma(0.25 + 0.5j * t)) - 0.5 * t * np.log(np.pi)


def _psi_on_circle(p, radius, M):
    z = p + radius * np.exp(2j * np.pi * np.arange(M) / M)
    return np.cos(2.0 * np.pi * (z * z - z - 1.0 / 16.0)) / np.cos(2.0 * np.pi * z)


@lru_cache(maxsize=1)
def _rs_cheb():
    """Chebyshev fits (on p in [0,1]) of the remainder coefficients C_0..C_4.

    The Psi derivatives come from Cauchy-integral Taylor coefficients on a
    radius-0.3 circle (FFT), assembled into the classical combinations; the
    circle keeps clear of the Psi poles at p = 1/4 + k/2... (nearest at
    distance > 0.3 from [0,1] after the cosine cancellation, so the Taylor
    series at each node converges fast).
    """
    deg, M, radius = 160, 512, 0.3
    k = np.arange(deg + 1)
    pts = 0.5 + 0.5 * np.cos(np.pi * (2 * k + 1) / (2 * (deg + 1)))
    D = np.empty((deg + 1, 13))
    fact = np.array([math.factorial(j) for j in range(13)], dtype=float)
    for i, p in enumerate(pts):
        c = np.fft.fft(_psi_on_circle(p, radius, M)) / M
        D[i] = (c[:13].real / radius ** np.arange(13)) * fact
    pi2, pi4, pi6, pi8 = np.pi ** 2, np.pi ** 4, np.pi ** 6, np.pi ** 8
    C = np.empty((deg + 1, 5))
    C[:, 0] = D[:, 0]
    C[:, 1] = -D[:, 3] / (96 * pi2)
    C[:, 2] = D[:, 2] / (64 * pi2) + D[:, 6] / (18432 * pi4)
    C[:, 3] = (-D[:, 1] / (64 * pi2) - D[:, 5] / (3840 * pi4)
               - D[:, 9] / (5308416 * pi6))
    C[:, 4] = (D[:, 0] / (128 * pi2) + D[:, 4] / (3072 * pi4)
               + D[:, 8] / (5898240 * pi6) + D[:, 12] / (2038431744 * pi8))
    xs = 2.0 * pts - 1.0
    return [np.polynomial.chebyshev.chebfit(xs, C[:, j], deg) for j in range(5)]


def _rs_grid(ts: np.ndarray) -> np.ndarray:
    """zeta(1/2+it) via Riemann-Siegel, within 1e-6 for t >= RS_FORCED_MIN_T."""
    ts = np.asarray(ts, dtype=float)
    tau = np.sqrt(ts / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    p = tau - m
    th = _theta(ts)
    Z = np.zeros_like(ts)
    order = np.argsort(m, kind="stable")
    ms = m[order]
    uniq, starts = np.unique(ms, return_index=True)
    bounds = np.append(starts, len(ms))
    for i, mv in enumerate(uniq):
        sel = order[bounds[i]:bounds[i + 1]]
        n = np.arange(1, mv + 1, dtype=float)
        ph = th[sel, None] - ts[sel, None] * np.log(n)[None, :]
        Z[sel] = 2.0 * np.sum(np.cos(ph) / np.sqrt(n)[None, :], axis=1)
    cheb = _rs_cheb()
    x = 2.0 * p - 1.0
    corr = np.zeros_like(ts)
    for j in range(5):
        corr += np.polynomial.chebyshev.chebval(x, cheb[j]) * tau ** (-j)
    Z += np.where((m - 1) % 2 == 0, 1.0, -1.0) * tau ** (-0.5) * corr
    return np.exp(-1j * th) * Z


_EM_GRID_CHUNK = 512


def _em_grid(ts: np.ndarray, cfg: ZetaEngineConfig) -> np.ndarray:
    """Vectorized Euler-Maclaurin on the critical line (moderate heights)."""
    out = np.empty(len(ts), dtype=complex)
    for lo in range(0, len(ts), _EM_GRID_CHUNK):
        chunk = ts[lo:lo + _EM_GRID_CHUNK]
        N = max(cfg.em_terms, 50, int(2.0 * np.max(np.abs(chunk))) + 1)
        n = np.arange(1, N, dtype=float)
        terms = n[None, :] ** (-0.5) * np.exp(-1j * np.outer(chunk, np.log(n)))
        out[lo:lo + _EM_GRID_CHUNK] = _em_tail(0.5 + 1j * chunk, N, cfg.em_bernoulli_order,
                                               np.sum(terms, axis=1))
    return out


def zeta_critical_grid(ts, cfg: ZetaEngineConfig = DEFAULT_ENGINE,
                       engine: str = "auto") -> np.ndarray:
    """zeta(1/2+it) over an array of t, vectorized (negative t by conjugation).

    engine "auto" uses Riemann-Siegel for t >= RS_MIN_T and Euler-Maclaurin
    matrices below; "em" / "rs" force one path (the suite uses that to check
    the two engines against each other).
    """
    ts = np.asarray(ts, dtype=float)
    neg = ts < 0.0
    if np.any(neg):
        out = zeta_critical_grid(np.abs(ts), cfg, engine)
        out[neg] = np.conj(out[neg])
        return out
    out = np.empty(len(ts), dtype=complex)
    if engine == "em":
        rs_mask = np.zeros(len(ts), dtype=bool)
    elif engine == "rs":
        if np.any(ts < RS_FORCED_MIN_T):
            raise ValueError(f"Riemann-Siegel path needs t >= {RS_FORCED_MIN_T}")
        rs_mask = np.ones(len(ts), dtype=bool)
    elif engine == "auto":
        rs_mask = ts >= RS_MIN_T
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if np.any(rs_mask):
        out[rs_mask] = _rs_grid(ts[rs_mask])
    if np.any(~rs_mask):
        out[~rs_mask] = _em_grid(ts[~rs_mask], cfg)
    return out


def zeta_abs2_grid(ts, cfg: ZetaEngineConfig = DEFAULT_ENGINE,
                   engine: str = "auto") -> np.ndarray:
    """|zeta(1/2+it)|^2 over an array of t."""
    z = zeta_critical_grid(ts, cfg, engine)
    return (z * np.conj(z)).real


# -- approximate functional equation ------------------------------------------


def afe_square(t: float, cap: float | None = None,
               cfg: ZetaEngineConfig = DEFAULT_ENGINE,
               contour: ContourConfig = DEFAULT_CONTOUR) -> float:
    """Smoothed square |zeta(1/2+it)|^2 from the approximate functional equation:

        2 * sum_{N < cap} (W(2*pi*N/t)/sqrt(N)) * Re[N^-it * sum_{d|N} d^2it].

    The double sum over mn = N is regrouped through the divisor sums
    sigma_2it(N), filled by a d -> multiples sieve in O(cap log cap).
    """
    t = float(t)
    if t < 10.0:
        raise ValueError("afe_square needs t >= 10")
    need = t ** (1.0 + cfg.afe_epsilon)
    if cap is None:
        cap = need
    if cap < need:
        raise CapError(f"cap {cap:g} below t^(1+afe_epsilon) = {need:g}")
    X = int(np.floor(cap))
    d = np.arange(1, X + 1, dtype=float)
    z = np.exp(2j * t * np.log(d))
    sig = np.zeros(X + 1, dtype=complex)
    for dv in range(1, X + 1):
        sig[dv::dv] += z[dv - 1]
    N = np.arange(1, X + 1, dtype=float)
    weight = w_many(_TWO_PI * N / t, contour) / np.sqrt(N)
    assembled = complex(np.sum(weight * np.exp(-1j * t * np.log(N)) * sig[1:]))
    if abs(assembled.imag) > 1e-8:
        raise ToleranceError(
            f"afe_square({t}): imaginary residual {assembled.imag:.3e} exceeds 1e-8")
    return 2.0 * assembled.real


# -- partial sums --------------------------------------------------------------


def main_sum(t: float, cutoff: int) -> complex:
    """sum_{n <= cutoff} n^(-1/2 - it), direct compensated summation."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    t = float(t)
    n = np.arange(1, int(cutoff) + 1, dtype=np.int64)
    ph = np.mod(np.longdouble(t) * np.log(n.astype(np.longdouble)), _TWO_PI_LD)
    mag = n.astype(np.float64) ** (-0.5)
    re = math.fsum(mag * np.cos(ph).astype(np.float64))
    im = -math.fsum(mag * np.sin(ph).astype(np.float64))
    return complex(re, im)


def main_sum_grid(ts, cutoff: int, cfg: ZetaEngineConfig = DEFAULT_ENGINE) -> np.ndarray:
    """Vectorized main_sum over a t-grid.

    When the cutoff is deep enough inside the Euler-Maclaurin zone
    (cutoff >= max|t|/3) the partial sum is recovered from the zeta engine by
    removing the EM tail:

        sum_{n <= M} n^-s = zeta(s) + M^-s/2 - M^(1-s)/(s-1) - C(M),

    otherwise it falls back to direct chunked summation.  Agreement with the
    scalar main_sum to 1e-10 is part of the test suite.
    """
    ts = np.asarray(ts, dtype=float)
    M = int(cutoff)
    if M < 1:
        raise ValueError("cutoff must be >= 1")
    if M >= np.max(np.abs(ts)) / 3.0 and M >= 50:
        s = 0.5 + 1j * ts
        return (zeta_critical_grid(ts, cfg) - _em_tail(s, M, cfg.em_bernoulli_order)
                + np.exp(-s * np.log(M)))
    out = np.zeros(len(ts), dtype=complex)
    for lo in range(1, M + 1, 4096):
        n = np.arange(lo, min(lo + 4096, M + 1), dtype=float)
        out += np.sum(n[None, :] ** (-0.5) * np.exp(-1j * np.outer(ts, np.log(n))),
                      axis=1)
    return out
