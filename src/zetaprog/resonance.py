"""Resonators adapted to a progression: forcing large/small |zeta| values.

A resonator is a Dirichlet polynomial B whose square |B|^2 correlates with
large (max mode) or small (min mode) values of zeta along the progression
points 1/2 + i(alpha*ell + beta).  The weighted average

    R = sum_ell A |B|^2 phi(ell/T) / sum_ell |B|^2 phi(ell/T),
    A(s) = sum_{n <= T} n^(-s),

is then sandwiched between the extreme |zeta| values over the window, so a
computed R far from 1 certifies that an extreme value exists, and the
top-weighted progression points are where to look for the witness.  R and
the search reduce one moments.ProgressionSample over its phi > 0 nodes.

The multiplicative coefficients r(p) = L/(sqrt(p) log p), L = sqrt(log N
log log N), live on primes in [L^2, exp((log L)^2)] minus an excluded set S.
S removes the primes that would couple the resonator to the diophantine
tuples of the progression (the same tuples that drive the moment
corrections): with those primes gone, b(a_ell) = 0 for every tuple, and the
resonated moments stay tuple-free.

Desk-scale note: both the narrow asymptotic prime window and the length rule
N = T^(1/6) are asymptotic; at reachable N the window [L^2, exp((log L)^2)]
is empty and T^(1/6) is single digits.  The exploratory mode (default)
widens the window to [L^2, N] and only warns when N exceeds T^(1/6), because
exhibiting the mechanism at desk scale requires it; "paper-strict" enforces
both restrictions literally.
"""
import math
import warnings
from dataclasses import dataclass
from typing import FrozenSet

import mpmath as mp
import numpy as np

from . import zeta as zmod
from .dioph import CF_PRECISION_BITS, DEFAULT_EPS, ProgressionSpec, _progression_x, \
    rational_approximations
from .errors import CapError, DegenerateDenominatorError
from .moments import DirichletPoly, ProgressionSample
from .sieves import primes_in, smallest_prime_factor

__all__ = ["Resonator", "EulerPrediction", "ExtremeReport", "ExploratoryWarning",
           "ResidualWarning",
           "build_excluded_set", "resonator_coeffs", "ratio_R",
           "euler_product_prediction", "extreme_search", "asymptotic_prime_window"]

_TWO_PI = 2.0 * math.pi

_SUPPORT_CAP = 5_000_000


class ExploratoryWarning(UserWarning):
    """A parameter choice leaves the asymptotically-proven regime."""


class ResidualWarning(UserWarning):
    """The resonated average R has an imaginary part above 1e-2 of |R|."""


@dataclass(frozen=True)
class Resonator:
    """Resonator data: length N, scale L, prime window, excluded set, coefficients."""

    N: int
    L: float
    prime_lo: float
    prime_hi: float
    excluded: FrozenSet[int]
    mode: str                # "max" or "min"
    coeffs: DirichletPoly
    window_kind: str         # "asymptotic" or "extended"


def asymptotic_prime_window(N: int):
    """The literal admissible prime window ([L^2, exp((log L)^2)]) for length N."""
    L = math.sqrt(math.log(N) * math.log(math.log(N)))
    return L, L * L, math.exp(math.log(L) ** 2)


def build_excluded_set(spec: ProgressionSpec, T: float,
                       eps: float = DEFAULT_EPS) -> FrozenSet[int]:
    """Primes to remove from the resonator support.

    For each ell <= 2 log T, if a coprime pair (a, b) with a*b > 1 and both
    members below T^(1/2-eps) has frequency defect
    |alpha*log(a/b)/(2*pi) - ell| <= T^(-1+eps), the smallest prime factors
    of a and of b enter the set (b = 1 contributes nothing).  At most one
    tuple per ell qualifies in practice, so |S| <= 4 log T.
    """
    if T < 100.0:
        raise ValueError("build_excluded_set requires T >= 100")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    member_cap = (0.5 - eps) * math.log(T)
    freq_tol = T ** (eps - 1.0)
    out = set()
    for ell in range(1, int(2.0 * math.log(T)) + 1):
        # a ~ b * exp(2*pi*ell/alpha); both below exp(member_cap) forces
        # b < exp(member_cap - 2*pi*ell/alpha) up to the tiny frequency slack.
        ln_x = _TWO_PI * ell / spec.alpha
        if ln_x >= member_cap + freq_tol * _TWO_PI / spec.alpha:
            continue
        with mp.workprec(CF_PRECISION_BITS):
            x = _progression_x(spec, ell)
            # |log ratio| <= tau is covered by a symmetric relative band of
            # half-width exp(tau) - 1 (the wider side).
            tau = mp.mpf(_TWO_PI) / spec.alpha * freq_tol
            search_tol = mp.expm1(tau)
            cap = int(mp.floor(mp.exp(member_cap)))
            if mp.mpf(cap) == mp.exp(member_cap):
                cap -= 1
            q_cap = int(mp.floor(cap / x)) + 1
            hits = []
            for p, q, _qual in rational_approximations(x, min(q_cap, cap), search_tol,
                                                       p_cap=cap):
                if p * q <= 1:
                    continue
                defect = abs(spec.alpha * mp.log(mp.mpf(p) / q) / _TWO_PI - ell)
                if defect <= freq_tol:
                    hits.append((float(defect), q, p))
        if not hits:
            continue
        _, b, a = min(hits)
        if a > 1:
            out.add(smallest_prime_factor(a))
        if b > 1:
            out.add(smallest_prime_factor(b))
    return frozenset(out)


def resonator_coeffs(N: int, mode: str, excluded: FrozenSet[int] = frozenset(),
                     window: str = "auto") -> Resonator:
    """Build the resonator of length N.

    Coefficients are b(n) = sqrt(n) r(n) (max) or mu(n) sqrt(n) r(n) (min)
    where r is multiplicative with r(p) = L/(sqrt(p) log p) on admissible
    primes; equivalently each admissible prime contributes a factor
    +-L/log p, and the support is the squarefree products staying <= N
    (enumerated depth-first over the sorted primes).

    window: "asymptotic" uses [L^2, exp((log L)^2)] literally (possibly
    empty), "extended" uses [L^2, N], "auto" falls back from asymptotic to
    extended with an ExploratoryWarning when the narrow window holds no primes.
    """
    if N < 100:
        raise ValueError("resonator_coeffs requires N >= 100")
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    if N > _SUPPORT_CAP:
        raise CapError(f"resonator length {N} exceeds the memory cap {_SUPPORT_CAP}")
    L, lo, hi_narrow = asymptotic_prime_window(N)
    if window == "asymptotic":
        hi, kind = hi_narrow, "asymptotic"
    elif window == "extended":
        hi, kind = float(N), "extended"
    elif window == "auto":
        if hi_narrow >= lo and len(primes_in(int(math.ceil(lo)), int(hi_narrow))) > 0:
            hi, kind = hi_narrow, "asymptotic"
        else:
            hi, kind = float(N), "extended"
            warnings.warn(
                f"narrow prime window [{lo:.2f}, {hi_narrow:.2f}] holds no primes at "
                f"N={N}; extending to [{lo:.2f}, {N}]", ExploratoryWarning)
    else:
        raise ValueError("window must be 'asymptotic', 'extended' or 'auto'")
    ps = [p for p in primes_in(int(math.ceil(lo)), int(math.floor(min(hi, N))))
          if p not in excluded]
    sign = 1.0 if mode == "max" else -1.0
    factors = [sign * L / math.log(p) for p in ps]
    vals = np.zeros(N + 1)
    vals[1] = 1.0
    count = 1

    def extend(start: int, n: int, v: float):
        nonlocal count
        for i in range(start, len(ps)):
            m = n * ps[i]
            if m > N:
                break
            vals[m] = v * factors[i]
            count += 1
            if count > _SUPPORT_CAP:
                raise CapError("resonator support exceeds the memory cap")
            extend(i + 1, m, v * factors[i])

    extend(0, 1, 1.0)
    return Resonator(N=N, L=L, prime_lo=lo, prime_hi=hi,
                     excluded=frozenset(excluded), mode=mode,
                     coeffs=DirichletPoly(values=vals), window_kind=kind)


def _check_validity(N: int, T: float, validity: str):
    cap = T ** (1.0 / 6.0)
    if N <= cap:
        return
    if validity == "paper-strict":
        raise ValueError(f"resonator length N={N} exceeds T^(1/6)={cap:.2f} "
                         "(paper-strict mode)")
    warnings.warn(
        f"resonator length N={N} exceeds T^(1/6)={cap:.2f}; the moment-transfer "
        "lemma is asymptotic there (exploratory mode)", ExploratoryWarning)


def _resonate(sample: ProgressionSample, resonator: Resonator, validity: str):
    """The live-node mask, the resonator mass |B|^2 phi on it, and R."""
    _check_validity(resonator.N, sample.T, validity)
    if not np.array_equal(sample.poly.values, resonator.coeffs.values):
        raise ValueError("the sample's polynomial is not the resonator's coefficients")
    live = sample.phi > 0.0
    B = sample.B[live]
    mass = sample.phi[live] * (B * np.conj(B)).real
    den = float(np.sum(mass))
    if den < 1e-12:
        raise DegenerateDenominatorError(
            f"resonator mass sum {den:.3e} below 1e-12; no usable weight")
    A = zmod.main_sum_grid(sample.t[live], int(np.floor(sample.T)))
    ratio = complex(np.sum(mass * A)) / den
    if abs(ratio.imag) > 1e-2 * abs(ratio):
        warnings.warn(f"resonated average R: imaginary residual {ratio.imag:.3e} above "
                      f"1e-2 relative (ratio {ratio.real:.6f})", ResidualWarning)
    return live, mass, ratio.real


def ratio_R(sample: ProgressionSample, resonator: Resonator,
            validity: str = "exploratory") -> float:
    """The resonated average R = sum A|B|^2 phi / sum |B|^2 phi over the
    sample's phi > 0 nodes, A = main_sum with cutoff floor(T).  The sample
    must hold B = the resonator's coefficients (ValueError otherwise).

    Returns the real part; the imaginary residual (A is complex, the weights
    are real) is checked, with a ResidualWarning above 1e-2 relative.  It is
    a weighted average of Im A, which the weights do not cancel: the max-mode
    resonator of length 100 at alpha = 1, T = 1e4 leaves 1.5e-2.
    """
    return _resonate(sample, resonator, validity)[2]


@dataclass(frozen=True)
class EulerPrediction:
    prediction: float     # product over admissible primes of (1 + b(p)/p)
    envelope_low: float   # exp(-sqrt(log N / log log N))
    envelope_high: float  # exp(+sqrt(log N / log log N))


def euler_product_prediction(resonator: Resonator) -> EulerPrediction:
    """First-order prediction for R: prod (1 + b(p)/p) over the support primes,
    accumulated in the log domain, with the asymptotic envelope
    exp(+-sqrt(log N / log log N)) for scale."""
    vals = resonator.coeffs.values
    ln_pred = 0.0
    for p in primes_in(int(math.ceil(resonator.prime_lo)),
                       int(math.floor(min(resonator.prime_hi, resonator.N)))):
        if p in resonator.excluded:
            continue
        bp = vals[p] if p < len(vals) else 0.0
        if bp != 0.0:
            ln_pred += math.log1p(bp / p)
    half_width = math.sqrt(math.log(resonator.N) / math.log(math.log(resonator.N)))
    return EulerPrediction(prediction=math.exp(ln_pred),
                           envelope_low=math.exp(-half_width),
                           envelope_high=math.exp(half_width))


@dataclass(frozen=True)
class ExtremeReport:
    ell_star: int         # witness point among the resonator's top-decile mass
    t_star: float
    zeta_star: complex
    witness_abs: float
    global_ell: int       # extremum over the whole window, for comparison
    global_abs: float
    median_abs: float
    ratio: float          # the resonated average R
    slack: float          # 2/sqrt(T) + engine tolerance
    certified: bool       # max >= |R| - slack (max mode); min <= |R| + slack (min)


def extreme_search(sample: ProgressionSample, resonator: Resonator,
                   validity: str = "exploratory") -> ExtremeReport:
    """Locate the extreme-|zeta| witness the resonator points at.

    Candidate points carry the top decile of the resonator mass |B|^2 phi;
    the witness is the |zeta| extremum among them (per mode), reported next
    to the global extremum over the sample's phi > 0 nodes and the sandwich
    certificate |R| - slack <= max |zeta| (resp. min |zeta| <= |R| + slack).
    R comes from the same sample, as in ratio_R.
    """
    live, mass, ratio = _resonate(sample, resonator, validity)
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
