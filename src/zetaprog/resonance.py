"""Resonators adapted to a progression: forcing large/small |zeta| values.

A resonator is a Dirichlet polynomial B whose square |B|^2 correlates with
large (max mode) or small (min mode) values of zeta along the progression
points 1/2 + i(alpha*ell + beta).  The weighted average

    R = sum_ell A |B|^2 phi(ell/T) / sum_ell |B|^2 phi(ell/T),
    A(s) = sum_{n <= T} n^(-s),

is a mean with nonnegative weights, so min Re A <= R <= max Re A over the
window holds exactly.  The top-weighted progression points are where to look
for an extreme |zeta|; extreme_search compares it with |R| against a constant
slack, which is no proof where the slack is below max|A - zeta| (see
ExtremeReport).  R and the search reduce one moments.ProgressionSample over
its phi > 0 nodes.  A is zeta._main_sum_on_progression of that sample, whose
live nodes are consecutive integers, so its run steps by alpha: its own zeta
with the Euler-Maclaurin tail at cutoff floor(T) inverted where floor(T) >=
max|t|/3, else one progression_sum.

The multiplicative coefficients r(p) = L/(sqrt(p) log p), L = sqrt(log N
log log N), live on primes in [L^2, N] minus an excluded set S.
S holds the smallest prime factors of a and b > 1, for each ell <= 2 log T,
of the coprime pair with both members below T^(1/2-eps) and log-defect
|alpha*log(a/b)/(2*pi) - ell| at most T^(eps-1), listed from that band's
ends.  That is not find_tuple's search, whose tuples drive the moment
corrections: at 1:3:2 and T = 3100, S is {2, 3}, not {2, 3, 173}.

Desk-scale note: the paper takes primes in [L^2, exp((log L)^2)] and a
length N <= T^(1/6), both asymptotic.  That window is empty exactly when
log N log log N < e^4, which holds for every N up to _SUPPORT_CAP, hence
[L^2, N]; and N >= 100 exceeds T^(1/6) < 14.3 at every T the 2^23-node
sample budget admits.  So every resonator built here lies outside the regime
where the paper's moment-transfer lemma is proven, and R and the extreme
search are exploratory at desk scale.
"""
import math
from dataclasses import dataclass
from typing import FrozenSet

import mpmath as mp
import numpy as np

from . import zeta as zmod
from .dioph import CF_PRECISION_BITS, DEFAULT_EPS, ProgressionSpec, _check_search, \
    _fractions_between, _progression_x, _ratio
from .errors import CapError, DegenerateDenominatorError
from .moments import DirichletPoly, ProgressionSample
from .sieves import primes_in, smallest_prime_factor, squarefree_products

__all__ = ["Resonator", "EulerPrediction", "ExtremeReport", "build_excluded_set",
           "resonator_coeffs", "ratio_R", "euler_product_prediction", "extreme_search"]

_TWO_PI = 2.0 * math.pi

_SUPPORT_CAP = 5_000_000


@dataclass(frozen=True)
class Resonator:
    """Resonator data: length N, scale L, lowest prime L^2, excluded set, coefficients."""

    N: int
    L: float
    prime_lo: float
    excluded: FrozenSet[int]
    mode: str                # "max" or "min"
    coeffs: DirichletPoly


def build_excluded_set(spec: ProgressionSpec, T: float,
                       eps: float = DEFAULT_EPS) -> FrozenSet[int]:
    """Primes to remove from the resonator support.

    For each ell <= 2 log T, if a coprime pair (a, b) with both members
    below C = T^(1/2-eps) has frequency defect |alpha*log(a/b)/(2*pi) - ell|
    <= T^(-1+eps), the smallest prime factors of a and of b enter the set
    (b = 1 contributes nothing).  At most one pair per ell qualifies, so
    |S| <= 4 log T: with u = 2*pi/alpha and tau = u*T^(eps-1), a/b lies in
    [x e^-tau, x e^tau], x = e^(u*ell) >= e^u, narrower than the gap
    x^2 e^(-2 tau)/C^2 between two such fractions, as 2u T^(-eps) e^(3 tau -
    u) < 1 for T >= 100 and eps in (0, 1/2); 1/1 needs ell <= T^(eps-1) < 1.
    The band's ends are taken at CF_PRECISION_BITS and listed exactly.
    """
    _check_search(T, eps, "build_excluded_set")
    member_cap = (0.5 - eps) * math.log(T)
    freq_tol = T ** (eps - 1.0)
    out = set()
    for ell in range(1, int(2.0 * math.log(T)) + 1):
        if _TWO_PI * ell / spec.alpha >= member_cap + freq_tol * _TWO_PI / spec.alpha:
            continue  # a >= b * exp(2*pi*(ell - T^(eps-1))/alpha) passes a's cap
        with mp.workprec(CF_PRECISION_BITS):
            cap = int(mp.ceil(mp.exp(member_cap))) - 1  # the largest integer below the cap
            u = mp.mpf(_TWO_PI) / spec.alpha
            lo, hi = (mp.exp(u * (ell + mp.mpf(d))) for d in (-freq_tol, freq_tol))
            hits = [(p, q) for p, q in _fractions_between(
                        *_ratio(lo), *_ratio(hi),
                        int(mp.floor(cap / _progression_x(spec, ell))) + 1)
                    if p <= cap]
        if not hits:
            continue
        (a, b), = hits
        # a hit has a/b >= exp(2*pi*(ell - T^(eps-1))/alpha) > 1, so a > b >= 1
        out.add(smallest_prime_factor(a))
        if b > 1:
            out.add(smallest_prime_factor(b))
    return frozenset(out)


def _check_resonator_length(N: int):
    """ValueError unless N >= 100, CapError when N exceeds _SUPPORT_CAP."""
    if N < 100:
        raise ValueError("resonator_coeffs requires N >= 100")
    if N > _SUPPORT_CAP:
        raise CapError(f"resonator length {N} exceeds the memory cap {_SUPPORT_CAP}")


def resonator_coeffs(N: int, mode: str, excluded: FrozenSet[int] = frozenset()) -> Resonator:
    """Build the resonator of length N.

    Coefficients are b(n) = sqrt(n) r(n) (max) or mu(n) sqrt(n) r(n) (min)
    where r is multiplicative with r(p) = L/(sqrt(p) log p) on the admissible
    primes, those in [L^2, N] outside excluded; equivalently each admissible
    prime contributes a factor +-L/log p, and the support is the squarefree
    products staying <= N (sieves.squarefree_products).
    """
    _check_resonator_length(N)
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    L = math.sqrt(math.log(N) * math.log(math.log(N)))
    lo = L * L
    ps = [p for p in primes_in(lo, N) if p not in excluded]
    sign = 1.0 if mode == "max" else -1.0
    vals = squarefree_products(N, ps, [sign * L / math.log(p) for p in ps])
    return Resonator(N=N, L=L, prime_lo=lo, excluded=frozenset(excluded), mode=mode,
                     coeffs=DirichletPoly(values=vals))


def _resonate(sample: ProgressionSample, resonator: Resonator):
    """The live-node mask, the resonator mass |B|^2 phi on it, and R."""
    if not np.array_equal(sample.poly.values, resonator.coeffs.values):
        raise ValueError("the sample's polynomial is not the resonator's coefficients")
    live = sample.phi > 0.0
    B = sample.B[live]
    mass = sample.phi[live] * (B * np.conj(B)).real
    den = float(np.sum(mass))
    if den < 1e-12:
        raise DegenerateDenominatorError(
            f"resonator mass sum {den:.3e} below 1e-12; no usable weight")
    A = zmod._main_sum_on_progression(sample.t[live], sample.spec.alpha, sample.zeta[live],
                                      int(np.floor(sample.T)))
    return live, mass, (complex(np.sum(mass * A)) / den).real


def ratio_R(sample: ProgressionSample, resonator: Resonator) -> float:
    """The resonated average R = sum A|B|^2 phi / sum |B|^2 phi over the
    sample's phi > 0 nodes, A = main_sum with cutoff floor(T).  The sample
    must hold B = the resonator's coefficients (ValueError otherwise).

    Returns the real part.  The imaginary residual (A is complex, the weights
    are real) is a weighted average of Im A, which the weights do not cancel:
    the max-mode resonator of length 100 at alpha = 1, T = 1e4 leaves 1.5e-2.
    """
    return _resonate(sample, resonator)[2]


@dataclass(frozen=True)
class EulerPrediction:
    prediction: float     # product over admissible primes of (1 + b(p)/p)
    envelope_low: float   # exp(-sqrt(log N / log log N))
    envelope_high: float  # exp(+sqrt(log N / log log N))


def euler_product_prediction(resonator: Resonator) -> EulerPrediction:
    """First-order prediction for R: prod (1 + b(p)/p) over the support primes
    (the primes up to the coefficients' length with b(p) != 0), accumulated in
    the log domain, with the envelope exp(+-sqrt(log N / log log N)) for scale."""
    vals = resonator.coeffs.values
    ps = np.array(primes_in(2, resonator.coeffs.length), dtype=np.int64)
    ps = ps[vals[ps] != 0.0]
    ln_pred = 0.0
    for x in vals[ps] / ps:
        ln_pred += math.log1p(x)
    half_width = math.sqrt(math.log(resonator.N) / math.log(math.log(resonator.N)))
    return EulerPrediction(prediction=math.exp(ln_pred),
                           envelope_low=math.exp(-half_width),
                           envelope_high=math.exp(half_width))


@dataclass(frozen=True)
class ExtremeReport:
    """certified compares the global extremum with |R| against the constant
    slack: max|zeta| >= |R| - slack (max mode), min|zeta| <= |R| + slack (min
    mode).  That proves the max-mode bound only where slack bounds max|A - zeta|
    over the live nodes (1.83 at 1:2:1, T = 1e4), and nothing in min mode;
    what holds exactly is min Re A <= R <= max Re A."""

    ell_star: int         # witness point among the resonator's top-decile mass
    t_star: float
    zeta_star: complex
    witness_abs: float
    global_ell: int       # extremum over the whole window, for comparison
    global_abs: float
    median_abs: float
    ratio: float          # the resonated average R
    slack: float          # 2/sqrt(T) + engine tolerance
    certified: bool       # the slack comparison above, not a proof


def extreme_search(sample: ProgressionSample, resonator: Resonator) -> ExtremeReport:
    """Locate the extreme-|zeta| witness the resonator points at.

    Candidate points carry the top decile of the resonator mass |B|^2 phi;
    the witness is the |zeta| extremum among them (per mode), reported next
    to the global extremum over the sample's phi > 0 nodes and the flag
    certified: max |zeta| >= |R| - slack (resp. min |zeta| <= |R| + slack)
    with the constant slack 2/sqrt(T) + 1e-6, which is no proof where it
    falls below max |A - zeta| (see ExtremeReport).  R comes from the same
    sample, as in ratio_R.
    """
    live, mass, ratio = _resonate(sample, resonator)
    ell, ts, Z = sample.ell[live], sample.t[live], sample.zeta[live]
    absZ = np.abs(Z)
    cut = np.quantile(mass, 0.9)
    cand = np.nonzero(mass >= cut)[0]
    pick = np.argmax if resonator.mode == "max" else np.argmin
    i_wit = cand[pick(absZ[cand])]
    i_glob = int(pick(absZ))
    extreme = absZ[i_glob]
    slack = 2.0 / math.sqrt(sample.T) + 1e-6
    if resonator.mode == "max":
        certified = extreme >= abs(ratio) - slack
    else:
        certified = extreme <= abs(ratio) + slack
    return ExtremeReport(
        ell_star=int(ell[i_wit]), t_star=float(ts[i_wit]),
        zeta_star=complex(Z[i_wit]), witness_abs=float(absZ[i_wit]),
        global_ell=int(ell[i_glob]), global_abs=float(extreme),
        median_abs=float(np.median(absZ)), ratio=ratio, slack=slack,
        certified=bool(certified))
