"""Evaluation of zeta(s): the reference engine and the progression engines.

The reference engine is Euler-Maclaurin with an adaptive cutoff,

    zeta(s) = sum_{n<N} n^-s + N^-s/2 + N^(1-s)/(s-1)
              + sum_k B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1),

valid for every complex s != 1; zeta_em keeps its 1e-10 contract from
Re s = 1/2 rightwards and refuses the rest.  This module is the only one
that knows the formula -- its cutoff, its tail, and when the tail can be
inverted: one progression routine, _euler_maclaurin, serves the critical
line (Re s = 1/2), the H-transform contour (kernels, s = 1+2w, Re s = 2) and
zeta_em (one node at sigma = Re s); _main_sum_on_progression gives the
resonator its main sum.  The Bernoulli numbers B_2k are exact rationals
(mpmath) rounded once to float.  One scalar kernel, _dirichlet_sum, serves
main_sum, the direct oracle of progression_sum: the phases t*log n reduced
in 80-bit extended precision (at t = 1e5 a float64 product carries ~1e-10
of phase error, the target accuracy), then math.fsum.

The cutoff N = max|t|/2 + 1 (_em_cutoff) keeps the B_24 tail below its
1e-10 contract with room: against mpmath (dps 30) the largest error read
1.4e-12 on 614 nodes of progression runs below RS_MIN_T and 3.7e-13 for
zeta_em on 102 heights up to |Im s| = 1e5 at sigma in {0.5, 0.75, 2}.
Left of the critical line the error grows like N^-sigma: at |Im s| = 99999.5
it reads 6.0e-11 at sigma = 0 and 1.4e-8 at sigma = -1/2.

The critical line has one engine per method, _euler_maclaurin (one cutoff
per call) and _riemann_siegel, each taking heights on an ascending
progression ts[0] + h*j and summing its heads sum_{n<=M} n^(-1/2-it) in one
progression_sum call.  zeta_on_progression splits a run between them;
zeta_critical_grid is one such run per height.  Riemann-Siegel takes the
main sums of the whole run in one pass (_rs_heads: term n enters from the
first node where m = floor(sqrt(t/2pi)) >= n) and adds the remainder terms
C_0..C_4, the Psi-derivative combinations from an FFT-Cauchy Taylor
expansion of Psi (_rs_coeffs).  About p = 1/2 C_0, C_2, C_4 are even and
C_1, C_3 odd, so C_0, C_1/x, C_2, C_3/x, C_4 (x = 2p - 1) are interpolated
once in u = 2x^2 - 1 at 11 rows to within 1e-13.  The five series are the
columns of one 11 x 5 matrix, evaluated per block of 8192 nodes as a
Chebyshev-Vandermonde product (one table per call, filled block by block)
with the odd columns times x, with theta and the rotation in the same
blocks.
theta(t) is its Stirling series through t^-5, whose next term is below
2e-27 from t = RS_MIN_T up.  EM/RS agreement to 1e-6 wherever
both run is part of the contract; each engine raises AccuracyError outside
its range (below RS_MIN_T and above RS_MAX_T for Riemann-Siegel,
past the cutoff cap _EM_HARD_CAP for Euler-Maclaurin).

progression_sum is a baby-step giant-step factorisation (the
Odlyzko-Schoenhage idea, with a matrix product in place of the FFT): with
j = K*q + r, K = ceil(sqrt(count)), three exponentials per term, about
2*sqrt(count) complex multiplications per term to fill the step tables, and
one complex matrix product replace count exponentials per term, the terms
in blocks of at most _BLOCK_ELEMS table entries through one buffer pair per
call.  _BLOCK_ELEMS also caps the nodes of one run of the samplers
(_on_node_blocks: the progression sampler's levels, and the main sum A), so
no engine sees more than a block and the working set of an evaluation is
fixed whatever its length.  It gives B
to the progression sampler, every head sum to the two engines (and so
zeta(1 + 2w) to the H contour), and the main sum A to the resonator where
the Euler-Maclaurin tail cannot be inverted.  The module imports no other
module of the package but errors.
"""
import math
from functools import lru_cache

import mpmath
import numpy as np

from .errors import AccuracyError, PoleError

__all__ = ["RS_MIN_T", "zeta_em", "zeta_critical_grid",
           "main_sum", "progression_sum", "zeta_on_progression"]

_TWO_PI = 2.0 * np.pi
_TWO_PI_LD = np.longdouble(2) * np.arccos(np.longdouble(-1))
# B_0 .. B_32, each the float nearest the exact rational; even indices are
# what the tail uses.
_BERN = [float(mpmath.bernoulli(n)) for n in range(33)]

# zeta_on_progression switches from Euler-Maclaurin to Riemann-Siegel at this
# height (agreement ~1.5e-9 at the seam); below it Riemann-Siegel refuses.
RS_MIN_T = 2000.0

# Highest height Riemann-Siegel accepts (AccuracyError above).  The float64
# rounding of theta(t) and of t grows with t: against mpmath, on random
# heights, the largest error is 3.9e-7 on [1e7, 2e7], 7.1e-7 on [2e7, 3e7],
# 9.1e-7 on [3e7, 4e7] and 1.3e-6 on [4e7, 5e7].
RS_MAX_T = 2e7

# Most terms an Euler-Maclaurin cutoff may take (AccuracyError past it): the
# cutoff |t|/2 refuses from |t| = 2e6 on.
_EM_HARD_CAP = 1_000_000

# Euler-Maclaurin: at least _EM_MIN_TERMS terms in the head sum, and the
# Bernoulli correction through B_(2*_EM_ORDER) = B_24.
_EM_MIN_TERMS = 50
_EM_ORDER = 12


def _em_tail(s, N, head=0.0):
    """head + N^-s/2 + N^(1-s)/(s-1) + the Bernoulli correction sum, for an
    array s, added to head term by term (the rounding of in-place sums).
    Each order runs in place on two work arrays with the operands of the
    term-by-term formula in its order (numpy's complex product is not
    commutative bit for bit), so the bits are that formula's."""
    fac, work = np.negative(s), np.empty_like(s)
    fac *= np.log(N)
    np.exp(fac, out=fac)  # N^-s
    np.multiply(fac, N, out=work)
    tot = s - 1.0
    work /= tot
    np.multiply(0.5, fac, out=tot)
    tot += work
    tot += head
    np.multiply(s, fac, out=fac)
    fac /= N
    for k in range(1, _EM_ORDER + 1):
        np.multiply(_BERN[2 * k] / math.factorial(2 * k), fac, out=work)
        tot += work
        np.add(s, 2 * k - 1, out=work)
        fac *= work
        np.add(s, 2 * k, out=work)
        fac *= work
        fac /= N * N
    return tot


def _dirichlet_sum(ns, mags, t: float) -> complex:
    """sum_k mags[k] * ns[k]^(-it) at one height, by compensated summation
    (math.fsum), the phases t ln n reduced mod 2pi in 80-bit extended
    precision: main_sum's direct sum."""
    ph = np.mod(np.longdouble(t) * np.log(ns.astype(np.longdouble)), _TWO_PI_LD)
    return complex(math.fsum(mags * np.cos(ph).astype(float)),
                   -math.fsum(mags * np.sin(ph).astype(float)))


def _em_cutoff(ts) -> int:
    """The Euler-Maclaurin cutoff N = max(_EM_MIN_TERMS, floor(max|t|/2) + 1);
    AccuracyError past _EM_HARD_CAP.

    The k-th Bernoulli term shrinks like (|t|/(2 pi N))^(2k), so at N = |t|/2
    each of the _EM_ORDER orders gains (1/pi)^2.  Against mpmath (dps 30) the
    largest error read 1.4e-12 on 614 nodes of progression runs below RS_MIN_T
    (at t = 13.4 on a run that reaches |t| = 2000: the rounding of its 1000
    head terms) and 3.7e-13 for zeta_em on 102 heights up to |Im s| = 1e5 at
    sigma in {0.5, 0.75, 2}.  At N = |t|/3 the same scan reads 3.8e-10 and
    5.1e-10."""
    N = max(_EM_MIN_TERMS, int(0.5 * np.max(np.abs(ts))) + 1)
    if N > _EM_HARD_CAP:
        raise AccuracyError(f"Euler-Maclaurin cutoff {N} exceeds hard cap {_EM_HARD_CAP}")
    return N


def zeta_em(s) -> complex:
    """Euler-Maclaurin zeta(s), absolute error <= 1e-10 for Re s >= 1/2 and
    |Im s| <= 1e5.

    Raises PoleError at s = 1, and AccuracyError for Re s < 1/2 or if the
    adaptive cutoff |Im s|/2 would exceed the hard cap.  It is one node of
    _euler_maclaurin; the lower half plane is conj(zeta(conj s)), exactly.
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    if not s.real >= 0.5:
        raise AccuracyError(f"zeta_em misses its 1e-10 accuracy left of Re s = 1/2; got s = {s}")
    if s.imag < 0.0:
        return zeta_em(s.conjugate()).conjugate()
    return complex(_euler_maclaurin(np.array([s.imag]), 0.0, s.real)[0])


# -- Riemann-Siegel accelerator ----------------------------------------------


def _theta(t):
    """Riemann-Siegel theta by its Stirling series,

        t/2 ln(t/2pi) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3) + 31/(80640 t^5);

    from t = RS_MIN_T up the next term is below 2e-27."""
    t = np.asarray(t, dtype=float)
    r = 1.0 / (t * t)
    return (0.5 * t * (np.log(t / _TWO_PI) - 1.0) - np.pi / 8.0
            + (1.0 / 48.0 + r * (7.0 / 5760.0 + r * (31.0 / 80640.0))) / t)


# Nodes per block of _riemann_siegel's per-node work: its Chebyshev-Vandermonde
# table (11 x 8192 floats, 0.7 MB, allocated once per call) stays in cache.
_RS_BLOCK = 8192


def _rs_coeffs(p) -> np.ndarray:
    """The remainder coefficients C_0..C_4 at each p in [0, 1], as the last
    axis of an array of shape p.shape + (5,).

    The Psi derivatives come from Cauchy-integral Taylor coefficients on a
    radius-0.3 circle (FFT over 64 nodes), assembled into the classical
    combinations.  Psi is entire: the zeros of cos(2 pi z) at 1/4 + k/2 are
    zeros of its numerator too.  The nodes sit at angles (2j + 1) pi/64,
    half a step off the real axis, so that none meets one of those points,
    where the quotient reads 0/0 (nodes at p +- 0.3 meet them from p = 0.05,
    0.45, 0.55 and 0.95).  Against mpmath.taylor (dps 50) the error is below
    1.1e-14.
    """
    p = np.asarray(p, dtype=float)
    M, radius = 64, 0.3
    k = np.arange(13)
    z = p[..., None] + radius * np.exp(1j * np.pi * (2 * np.arange(M) + 1) / M)
    psi = np.cos(2.0 * np.pi * (z * z - z - 1.0 / 16.0)) / np.cos(2.0 * np.pi * z)
    c = np.fft.fft(psi)[..., :13] * np.exp(-1j * np.pi * k / M) / M
    D = c.real / radius ** k * np.array([math.factorial(j) for j in k], dtype=float)
    pi2, pi4, pi6, pi8 = np.pi ** 2, np.pi ** 4, np.pi ** 6, np.pi ** 8
    return np.stack([
        D[..., 0],
        -D[..., 3] / (96 * pi2),
        D[..., 2] / (64 * pi2) + D[..., 6] / (18432 * pi4),
        -D[..., 1] / (64 * pi2) - D[..., 5] / (3840 * pi4) - D[..., 9] / (5308416 * pi6),
        (D[..., 0] / (128 * pi2) + D[..., 4] / (3072 * pi4)
         + D[..., 8] / (5898240 * pi6) + D[..., 12] / (2038431744 * pi8))], axis=-1)


def _euler_maclaurin(ts, h, sigma: float = 0.5) -> np.ndarray:
    """Euler-Maclaurin zeta(sigma + it) on the progression ts = ts[0] + h*j,
    at one cutoff N = _em_cutoff(ts) (AccuracyError past _EM_HARD_CAP): the
    head sum_{n < N} n^(-sigma-it) by progression_sum, its coefficients
    n^(1/2 - sigma) (exactly 1 on the critical line), then _em_tail.  The
    critical line takes sigma = 1/2, the H contour (kernels) sigma = 2."""
    N = _em_cutoff(ts)
    n = np.arange(1, N)
    head = progression_sum(n, n ** (0.5 - sigma), ts[0], h, len(ts))
    return _em_tail(sigma + 1j * ts, N, head)


@lru_cache(maxsize=1)
def _rs_remainder_matrix() -> np.ndarray:
    """C_0..C_4 through their parity about p = 1/2 (Gabcke 1979), as the
    columns of one 11 x 5 matrix of Chebyshev series in u = 2x^2 - 1, x =
    2p - 1: C_0, C_2 and C_4 are even in x, C_1 and C_3 odd, so the columns
    interpolate C_0, C_1/x, C_2, C_3/x, C_4 at the 11 Chebyshev points in u
    (where x = sqrt((u + 1)/2) is never 0), and chebvander(u, 10) @ M with
    its columns 1 and 3 times x gives C_0..C_4 at every x.  11 rows are the
    fewest within 1e-13 of _rs_coeffs on [0, 1]: 9.4e-14 (C_4), 10 rows
    5.1e-12.  The same error as the degree-21 fit in x, whose rows of the
    other parity are all below 1.7e-15, at half the rows."""
    u = np.polynomial.chebyshev.chebpts1(11)
    x = np.sqrt((u + 1.0) / 2.0)
    c = _rs_coeffs((x + 1.0) / 2.0)
    c[:, 1::2] /= x[:, None]
    return np.polynomial.chebyshev.chebfit(u, c, len(u) - 1)


def _rs_heads(ts, h, m) -> np.ndarray:
    """The Riemann-Siegel main sums sum_{n <= m[j]} n^(-1/2-it) at every node
    of the ascending progression ts = ts[0] + h*j, as one progression_sum
    over n = 1 .. m[-1]: term n starts at the first node where m >= n."""
    n = np.arange(1, m[-1] + 1)
    return progression_sum(n, np.ones(len(n)), ts[0], h, len(ts), np.searchsorted(m, n))


def _riemann_siegel(ts, h) -> np.ndarray:
    """Riemann-Siegel zeta(1/2+it) on the progression ts = ts[0] + h*j,
    within 1e-6 for RS_MIN_T <= t <= RS_MAX_T (AccuracyError outside,
    before any work).  The main sum at every node is 2 Re(exp(i theta)
    head), all heads of the run from one _rs_heads call, with m = floor(tau)
    and tau = sqrt(t/2pi); the remainder (-1)^(m-1) tau^(-1/2) sum_j
    C_j(tau - m) tau^-j is added and the sum rotated by exp(-i theta).
    Theta, the rotation and the remainder run in blocks of _RS_BLOCK nodes,
    the remainder as one Chebyshev-Vandermonde product with
    _rs_remainder_matrix() (the 11 rows T_i(u), u = 2x^2 - 1 and x = 2(tau
    - m) - 1, filled in place by the recurrence, in one buffer per call that
    each block fills a slice of), its odd columns C_1/x and C_3/x times x,
    and Horner in 1/tau in place on the contiguous rows of the product; the
    sign and the rotation are written in place as well, the rotation
    straight into out.real and out.imag.  The run must ascend (h >= 0):
    zeta_on_progression, the one caller, hands it ascending runs from
    RS_MIN_T up."""
    if not np.all((ts >= RS_MIN_T) & (ts <= RS_MAX_T)):
        raise AccuracyError(f"Riemann-Siegel runs only on t in "
                            f"[{RS_MIN_T:g}, {RS_MAX_T:g}]; got t in "
                            f"[{np.min(ts):g}, {np.max(ts):g}]")
    tau = np.sqrt(ts / _TWO_PI)
    m = np.floor(tau).astype(np.int64)
    heads = _rs_heads(ts, h, m)
    M = _rs_remainder_matrix().T  # row j: the series of C_j (C_1, C_3 over x)
    out = np.empty(len(ts), dtype=complex)
    table = np.empty((M.shape[1], min(len(ts), _RS_BLOCK)))  # T_i(u) in row i, per block
    for lo in range(0, len(ts), _RS_BLOCK):
        sl = slice(lo, lo + _RS_BLOCK)
        th = _theta(ts[sl])
        cos, sin = np.cos(th), np.sin(th)
        inv = 1.0 / tau[sl]
        x = 2.0 * (tau[sl] - m[sl]) - 1.0
        u = 2.0 * x * x - 1.0
        u2 = 2.0 * u
        V = table[:, :len(x)]
        V[0], V[1] = 1.0, u
        for i in range(2, len(V)):
            np.multiply(V[i - 1], u2, out=V[i])
            np.subtract(V[i], V[i - 2], out=V[i])
        C = M @ V
        C[1::2] *= x
        corr = C[-1]
        for j in range(len(C) - 2, -1, -1):
            corr *= inv
            corr += C[j]
        np.sqrt(inv, out=inv)
        corr *= inv
        np.negative(corr, out=corr, where=(m[sl] & 1) == 0)
        Z = 2.0 * (cos * heads.real[sl] - sin * heads.imag[sl]) + corr
        np.multiply(cos, Z, out=out.real[sl])
        np.negative(sin, out=sin)
        np.multiply(sin, Z, out=out.imag[sl])
    return out


def zeta_critical_grid(ts) -> np.ndarray:
    """zeta(1/2+it) at each t of an array, as a one-node zeta_on_progression
    per height (negative t by conjugation).  Kept for selftest's checks and
    bench/probe.py's RS-table timing."""
    ts = np.asarray(ts, dtype=float)
    z = np.array([zeta_on_progression(t, 0.0, 1)[0] for t in np.abs(ts)], dtype=complex)
    return np.where(ts < 0.0, np.conj(z), z)


# -- partial sums --------------------------------------------------------------


def main_sum(t: float, cutoff: int) -> complex:
    """sum_{n <= cutoff} n^(-1/2 - it), direct compensated summation.  Kept
    as selftest's oracle of the progression's main sums."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    n = np.arange(1, int(cutoff) + 1, dtype=np.int64)
    return _dirichlet_sum(n, n.astype(np.float64) ** (-0.5), float(t))


def _main_sum_on_progression(ts, h, zs, M: int) -> np.ndarray:
    """sum_{n <= M} n^(-1/2-it) on the progression ts = ts[0] + h*j, where
    zs = zeta(1/2 + it), one block of _on_node_blocks at a time.  Deep inside
    the Euler-Maclaurin zone (M >= max|t|/3 over the whole run, and M >=
    _EM_MIN_TERMS) it is zs with the tail at cutoff M inverted, zeta +
    M^-s/2 - M^(1-s)/(s-1) - C(M), elementwise, so the blocks change no bit;
    elsewhere one progression_sum over n = 1 .. M per block, from the
    block's first height."""
    if M >= _EM_MIN_TERMS and M >= np.max(np.abs(ts)) / 3.0:
        def block(sl):
            s = 0.5 + 1j * ts[sl]
            return zs[sl] - _em_tail(s, M) + np.exp(-s * np.log(M))
    else:
        n = np.arange(1, M + 1)

        def block(sl):
            return progression_sum(n, np.ones(M), ts[sl.start], h, sl.stop - sl.start)
    return _on_node_blocks(len(ts), block)


# -- Dirichlet sums sum_k c_k n_k^(-1/2 - it) on a progression -------------------

# The working-set budget of every evaluation on a progression: the most
# complex entries one block of G or E in progression_sum holds (1 MiB), and
# the most nodes one run evaluated by the samplers (moments._sample_level,
# _main_sum_on_progression) holds, so that a run's (Q, K) output stays near
# 2^16 entries too.  Its tables never grow past a few blocks, whatever the
# number of points or terms.
_BLOCK_ELEMS = 1 << 16


def _node_blocks(count: int):
    """Slices of at most _BLOCK_ELEMS consecutive nodes, in order, that
    cover range(count), one at a time."""
    for lo in range(0, count, _BLOCK_ELEMS):
        yield slice(lo, min(lo + _BLOCK_ELEMS, count))


def _on_node_blocks(count: int, evaluate) -> np.ndarray:
    """evaluate(sl), a complex array, for every slice sl of
    _node_blocks(count), in one array of count entries: the block's own
    where one block covers them all, so a run that fits a block is
    evaluated and returned as one run, with no copy."""
    if 0 < count <= _BLOCK_ELEMS:
        return evaluate(slice(0, count))
    out = np.empty(count, dtype=complex)
    for sl in _node_blocks(count):
        out[sl] = evaluate(sl)
    return out


def _check_progression(t0, h, count):
    """(t0, h, count) as floats and an int; ValueError for a negative count
    or a non-finite height t0 + h*j."""
    count = int(count)
    if count < 0:
        raise ValueError("count must be >= 0")
    t0, h = float(t0), float(h)
    if not all(map(math.isfinite, (t0, h, t0 + h * max(count - 1, 0)))):
        raise ValueError("progression heights must be finite")
    return t0, h, count


def progression_sum(ns, coeffs, t0: float, h: float, count: int, starts=None) -> np.ndarray:
    """sum_k coeffs[k] * ns[k]^(-1/2 - i(t0 + h*j)) for j = 0 .. count-1,
    term k summed only at the nodes j >= starts[k] (default: at every node).

    With K = ceil(sqrt(count)), Q = ceil(count/K) and j = K*q + r, the sums
    are the entries of G @ E.T,

        G[q, k] = coeffs[k] ns[k]^(-1/2) e^(-i(t0 + h*K*q) ln ns[k]),
        E[r, k] = e^(-i h r ln ns[k]),

    accumulated over blocks of terms of at most _BLOCK_ELEMS entries of G
    and of E.  One G/E buffer pair and one Q x K product buffer are
    allocated per call, and every block fills them in place.  Each block
    takes three exponentials per term, the first rows
    and the ratios of G[q] = G[q-1] e^(-i h K ln n) and E[r] = E[r-1]
    e^(-i h ln n), in place of count exponentials per term.  The phases
    t0 ln n, h K ln n and h ln n are reduced mod 2pi once per term in 80-bit
    extended precision, and _powers fills G and E by doubling.  Against
    mpmath at count = 1e7 (on the single terms n = 2, 3, 7, 97, 1009, 9973,
    31337, 65537 and 99991, the last four giant rows and 3000 random
    nodes), the entries of G @ E.T stay within 1e-11 rad of the exact
    phases for h <= 1 and heights to 2e7 (9.6e-12 at t0 = 1e7, h = 1), and
    within 5e-13 of their magnitudes; at h = 9.0647 (heights to 9e7) the
    phases read 4.1e-11 rad, the 80-bit rounding of h K ln n times q.  A
    float64 t * ln n at t = 1e5 is off by about 1e-10 rad.

    A term that starts at node s = K*q_s + r_s is masked out of the rows of
    G before q_s; on row q_s the product still counts it at the baby steps
    r < r_s, and one correction product per term takes those out.  A term
    with starts[k] = count is never summed.  ValueError for a negative
    count, a non-finite height, ns that are not all >= 1, coeffs (or
    starts) of another length than ns, or starts outside [0, count].
    """
    t0, h, count = _check_progression(t0, h, count)
    ns = np.asarray(ns)
    coeffs = np.asarray(coeffs, dtype=float)
    if ns.ndim != 1 or coeffs.shape != ns.shape:
        raise ValueError(f"ns and coeffs must be 1-d of one length, got shapes "
                         f"{ns.shape} and {coeffs.shape}")
    if not np.all(ns >= 1):
        raise ValueError("progression_sum needs every n >= 1")
    if starts is not None:
        starts = np.asarray(starts)
        if starts.shape != ns.shape or not np.all((starts >= 0) & (starts <= count)):
            raise ValueError("starts must hold one node index in [0, count] per term")
        live = starts < count
        ns, coeffs, starts = ns[live], coeffs[live], starts[live].astype(np.int64)
    if count == 0:
        return np.zeros(0, dtype=complex)
    mags = coeffs * ns.astype(float) ** -0.5
    K = math.isqrt(count - 1) + 1
    Q = -(-count // K)
    lnn = np.log(ns.astype(np.longdouble))
    phase0 = np.mod(np.longdouble(t0) * lnn, _TWO_PI_LD).astype(float)
    giant = np.mod(np.longdouble(h) * K * lnn, _TWO_PI_LD).astype(float)
    baby = np.mod(np.longdouble(h) * lnn, _TWO_PI_LD).astype(float)
    out = np.zeros((Q, K), dtype=complex)
    step = max(1, _BLOCK_ELEMS // max(Q, K))
    width = min(step, len(ns))
    G_buf, E_buf = np.empty((Q, width), dtype=complex), np.empty((K, width), dtype=complex)
    prod = np.empty((Q, K), dtype=complex)
    for lo in range(0, len(ns), step):
        sl = slice(lo, min(lo + step, len(ns)))
        G, E = G_buf[:, :sl.stop - lo], E_buf[:, :sl.stop - lo]
        _powers(mags[sl] * np.exp(-1j * phase0[sl]), np.exp(-1j * giant[sl]), G)
        _powers(1.0, np.exp(-1j * baby[sl]), E)
        if starts is not None:
            _start_terms(G, E, starts[sl], out)
        out += np.matmul(G, E.T, out=prod)
    return out.ravel()[:count]


def _start_terms(G, E, starts, out):
    """Restrict each term k of the tables G (Q x n) and E (K x n) to the
    nodes j = K*q + r >= starts[k]: zero its rows q < q_s of G, and take
    G[q_s, k] E[r, k] for r < r_s off row q_s of out, in place."""
    K = len(E)
    q_s, r_s = np.divmod(starts, K)
    G[np.arange(len(G))[:, None] < q_s] = 0.0
    cut = np.flatnonzero(r_s)
    if len(cut) == 0:
        return
    rows = q_s[cut]
    corr = (G[rows, cut][:, None] * E[:, cut].T) * (np.arange(K) < r_s[cut, None])
    order = np.argsort(rows, kind="stable")
    rows, corr = rows[order], corr[order]
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    out[rows[first]] -= np.add.reduceat(corr, first, axis=0)


def _powers(first, ratio, out):
    """Fill out, a rows x len(ratio) matrix, with first * ratio^q in row q,
    by doubling: rows [k, 2k) are rows [0, k) times ratio^k, so about
    log2(rows) numpy calls fill it with as many multiplications as row by
    row."""
    rows = len(out)
    out[0] = first
    power, k = ratio, 1
    while k < rows:
        n = min(k, rows - k)
        np.multiply(out[:n], power, out=out[k:k + n])
        k += n
        power = power * power


def zeta_on_progression(t0: float, h: float, count: int) -> np.ndarray:
    """zeta(1/2 + i(t0 + h*j)) for j = 0 .. count-1, every Dirichlet sum
    through progression_sum.

    The run splits into at most three contiguous sub-runs: Euler-Maclaurin
    where |t| < RS_MIN_T, Riemann-Siegel where t >= RS_MIN_T, and where t <=
    -RS_MIN_T the conjugate of Riemann-Siegel on the mirrored run.  The
    heights are monotone, so two bisections find the sub-runs, with no mask
    or index array as long as the run.  Each engine gets its sub-run
    ascending (reversed where its step is negative), so that m =
    floor(sqrt(t/2pi)) never falls along a Riemann-Siegel run, as a view of
    the heights except on the mirrored run.  Raises ValueError for a
    negative count or a non-finite height.
    """
    t0, h, count = _check_progression(t0, h, count)
    ts = t0 + h * np.arange(count)
    out = np.empty(count, dtype=complex)
    up = ts if h >= 0.0 else ts[::-1]
    lo, hi = np.searchsorted(up, -RS_MIN_T, "right"), np.searchsorted(up, RS_MIN_T)
    for (a, b), sign, run in (((lo, hi), 1.0, _euler_maclaurin),
                              ((hi, count), 1.0, _riemann_siegel),
                              ((0, lo), -1.0, _riemann_siegel)):
        if a < b:
            sub = slice(a, b) if h >= 0.0 else slice(count - b, count - a)
            order = slice(None, None, -1 if sign * h < 0.0 else 1)
            part = ts[sub][order]
            z = run(part if sign > 0.0 else -part, abs(h))[order]
            out[sub] = z if sign > 0.0 else np.conj(z)
    return out
