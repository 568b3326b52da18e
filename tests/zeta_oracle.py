"""Zeta and Dirichlet sums at arbitrary heights: the direct paths the package
does not use (it evaluates them on progressions only), kept as independent
references for the tests that need zeta, B or A at Gauss-Legendre nodes or
at random heights.  Their Dirichlet sums use plain float64 exponentials,
not the package's baby-step giant-step kernel."""
import numpy as np

from zetaprog.zeta import RS_MIN_T, _em_tail, _rs_coeffs, _theta

_TWO_PI = 2.0 * np.pi

# Most complex entries one block of dirichlet_grid holds (4 MiB).
_BLOCK_ELEMS = 1 << 18

# Heights per call of _rs_coeffs (each takes 64 complex samples: 8 MiB).
_RS_POINTS = 8192


def dirichlet_grid(ns, coeffs, ts) -> np.ndarray:
    """sum_k coeffs[k] * ns[k]^(-1/2 - it) at every t of an arbitrary array,
    by direct float64 exponentials in blocks of at most _BLOCK_ELEMS points x
    terms."""
    ts = np.asarray(ts, dtype=float)
    ns = np.asarray(ns, dtype=float)
    mags = np.asarray(coeffs, dtype=float) * ns ** -0.5
    lnn = np.log(ns)
    out = np.zeros(len(ts), dtype=complex)
    cols = max(1, min(len(ns), _BLOCK_ELEMS))
    rows = max(1, _BLOCK_ELEMS // cols)
    for lo in range(0, len(ts), rows):
        for k in range(0, len(ns), cols):
            ph = np.outer(ts[lo:lo + rows], lnn[k:k + cols])
            out[lo:lo + rows] += np.exp(-1j * ph) @ mags[k:k + cols]
    return out


def poly_grid(poly, ts) -> np.ndarray:
    """B(1/2 + it) at every t of ts."""
    return dirichlet_grid(*poly.nonzero(), ts)


def _direct_sum(M: int, ts) -> np.ndarray:
    """sum_{n <= M} n^(-1/2-it) at every t of ts."""
    return dirichlet_grid(np.arange(1, M + 1), np.ones(M), ts)


def _euler_maclaurin(ts) -> np.ndarray:
    """Euler-Maclaurin at its own cutoff N = 2 max|t| + 1 (at least 50), four
    times the package's, so that it does not share the rule under test."""
    N = max(50, int(2.0 * np.max(np.abs(ts))) + 1)
    return _em_tail(0.5 + 1j * ts, N, _direct_sum(N - 1, ts))


def _riemann_siegel(ts) -> np.ndarray:
    """Riemann-Siegel with the package's theta and the remainder coefficients
    C_0..C_4 taken pointwise from _rs_coeffs (not from the package's fit),
    in blocks of _RS_POINTS heights; the heights are sorted so that each
    group of equal m = floor(sqrt(t/2pi)) is a run."""
    order = np.argsort(ts, kind="stable")
    t = ts[order]
    tau = np.sqrt(t / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    th = _theta(t)
    Z = np.empty(len(t))
    edges = np.r_[0, np.flatnonzero(np.diff(m)) + 1, len(t)]
    for a, b in zip(edges[:-1], edges[1:]):
        Z[a:b] = 2.0 * (np.exp(1j * th[a:b]) * _direct_sum(m[a], t[a:b])).real
    p = tau - m
    C = np.concatenate([_rs_coeffs(p[lo:lo + _RS_POINTS])
                        for lo in range(0, len(p), _RS_POINTS)])
    corr = np.zeros_like(t)
    for j in range(C.shape[1]):
        corr += C[:, j] * tau ** (-j)
    Z = Z + np.where((m - 1) % 2 == 0, 1.0, -1.0) * tau ** (-0.5) * corr
    out = np.empty(len(ts), dtype=complex)
    out[order] = np.exp(-1j * th) * Z
    return out


def zeta_grid(ts) -> np.ndarray:
    """zeta(1/2+it) at arbitrary heights: Riemann-Siegel where |t| >= RS_MIN_T,
    Euler-Maclaurin at one cutoff below, negative t by conjugation."""
    ts = np.asarray(ts, dtype=float)
    a = np.abs(ts)
    rs = a >= RS_MIN_T
    out = np.empty(len(ts), dtype=complex)
    if np.any(rs):
        out[rs] = _riemann_siegel(a[rs])
    if np.any(~rs):
        out[~rs] = _euler_maclaurin(a[~rs])
    return np.where(ts < 0.0, np.conj(out), out)


def main_sum_grid(ts, M: int) -> np.ndarray:
    """sum_{n <= M} n^(-1/2-it) at arbitrary heights: zeta_grid with the
    Euler-Maclaurin tail removed where the package's resonator would do so
    (M >= max|t|/3), else the direct sum."""
    ts = np.asarray(ts, dtype=float)
    if M >= 50 and M >= np.max(np.abs(ts)) / 3.0:
        s = 0.5 + 1j * ts
        return zeta_grid(ts) - _em_tail(s, M) + np.exp(-s * np.log(M))
    return _direct_sum(M, ts)
