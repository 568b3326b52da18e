"""Progressions 1/2 + i(alpha*ell + beta): rationality dichotomy, tuples, delta.

Everything here revolves around x = exp(2*pi*ell/alpha).  If x is rational
for some ell the progression resonates with a fixed fraction m/n and the
discrete second moment picks up the correction

    delta = (2*cos(beta*log(m/n))*sqrt(mn) - 2) / (mn + 1 - 2*sqrt(mn)*cos(beta*log(m/n))),

otherwise delta = 0.  The tuple machinery hunts, for each ell, the unique
coprime pair (a, b) with b below T^(1/2-eps)*exp(-pi*ell/alpha) approximating
x to relative quality T^(-1+eps).

x is taken at 256 bits, and the continued fraction and the band scan below
are exact integer work on that value; only the qualities are taken at
working precision.  Convergents and semiconvergents cover every fraction
with |x - a/b| < 1/(2b^2) (Legendre); the residual top band of denominators,
where the quality tolerance can exceed that threshold, is scanned directly,
making the search provably equivalent to an exhaustive Farey scan.
"""
import functools
import itertools
import math
from dataclasses import astuple, dataclass
from typing import Optional

import mpmath as mp

__all__ = ["RationalForm", "ProgressionSpec", "DiophantineTuple",
           "detect_rational", "minimal_fraction", "delta", "find_tuple",
           "waldschmidt_bound", "rational_approximations"]

CF_PRECISION_BITS = 256
DEFAULT_EPS = 0.05

# Most partial quotients _cf_candidates expands.
_CF_MAX_TERMS = 400

# detect_rational's precision caps: the most bits one ell may need, and the
# most squared bits its scan may work through, summed over ell = 1 ..
# ell_max.  mp.exp at n bits costs about n^2 on mpmath's pure-Python
# backend (1.3 ms at 4000 bits, 28 ms at 16000, 0.31 s at 60000 on one
# core), so the scan's budget is about a second there: a scan at the
# per-ell cap, and 40 ell at alpha = 1 (1e7 squared bits), fit; 3000 ell at
# alpha = 1 (7e11, 18.8 s) do not.
_DETECT_BITS_CAP = 65536
_DETECT_WORK_CAP = 1 << 33

_TWO_PI = 2.0 * math.pi


def _iroot(v: int, k: int) -> Optional[int]:
    """Exact integer k-th root of v >= 1 (k >= 2), or None if v is not a perfect power."""
    if v == 1:
        return 1
    r = int(round(v ** (1.0 / k)))
    # Newton in exact integers to repair the float seed, then verify.
    r = max(r, 1)
    while True:
        nxt = ((k - 1) * r + v // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    for cand in (r - 1, r, r + 1):
        if cand >= 1 and cand ** k == v:
            return cand
    return None


@dataclass(frozen=True)
class RationalForm:
    """Assertion that exp(2*pi*ell0/alpha) = m/n exactly.

    A float alpha cannot certify that, so a float-level detection is a plain
    triple (detect_rational), and only ProgressionSpec.from_rational turns
    one into a form.
    """

    ell0: int
    m: int
    n: int

    def __post_init__(self):
        if self.ell0 < 1 or self.m < 1 or self.n < 1:
            raise ValueError("ell0, m, n must be positive integers")
        if self.m == self.n:
            raise ValueError("m/n must differ from 1")
        if math.gcd(self.m, self.n) != 1:
            raise ValueError(f"m/n = {self.m}/{self.n} is not reduced")


def minimal_fraction(form: RationalForm) -> RationalForm:
    """Apply the power reduction: if m/n = (r/s)^k and d = gcd(ell0, k) > 1,
    the same progression is generated by (ell0/d, r^(k/d), s^(k/d)).

    The output's own power decomposition satisfies gcd(ell0', k') = 1.
    """
    m, n = form.m, form.n
    top = max(m, n)
    for k in range(top.bit_length() - 1, 1, -1):
        r = _iroot(m, k)
        s = _iroot(n, k)
        if r is not None and s is not None:
            d = math.gcd(form.ell0, k)
            if d == 1:
                return form
            return RationalForm(form.ell0 // d, r ** (k // d), s ** (k // d))
    return form


@dataclass(frozen=True)
class ProgressionSpec:
    """The progression parameters: finite alpha > 0, finite beta, and an
    optional exact rational form, a RationalForm (TypeError otherwise)."""

    alpha: float
    beta: float = 0.0
    rational_form: Optional[RationalForm] = None

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        rf = self.rational_form
        if rf is not None and not isinstance(rf, RationalForm):
            raise TypeError(f"rational_form must be a RationalForm, got {rf!r}; trust a "
                            f"detected (ell0, m, n) by ProgressionSpec.from_rational(*found)")
        if rf is not None:
            implied = _TWO_PI * rf.ell0 / math.log(rf.m / rf.n)
            if not abs(self.alpha - implied) <= 1e-12 * self.alpha:
                raise ValueError(
                    f"alpha={self.alpha!r} inconsistent with exp(2*pi*{rf.ell0}/alpha)"
                    f" = {rf.m}/{rf.n} (implied alpha {implied!r})")
            if minimal_fraction(rf) != rf:
                raise ValueError(
                    "rational_form is not minimal; construct via ProgressionSpec.from_rational")

    @classmethod
    def from_rational(cls, ell0: int, m: int, n: int, beta: float = 0.0) -> "ProgressionSpec":
        """Symbolic constructor: alpha such that exp(2*pi*ell0/alpha) = m/n > 1 exactly.

        Reduces the fraction, applies the power reduction, and stores the
        float alpha consistent with the symbolic claim.
        """
        g = math.gcd(m, n)
        form = minimal_fraction(RationalForm(ell0, m // g, n // g))
        if form.m < form.n:
            raise ValueError("need m/n > 1 so that alpha > 0")
        alpha = _TWO_PI * form.ell0 / math.log(form.m / form.n)
        return cls(alpha=alpha, beta=beta, rational_form=form)


@dataclass(frozen=True)
class DiophantineTuple:
    """(ell, a, b, quality) with quality = |a/b - exp(2*pi*ell/alpha)| relative."""

    ell: int
    a: int
    b: int
    quality: float

    def __post_init__(self):
        if self.ell < 1 or self.a < 1 or self.b < 1:
            raise ValueError("ell, a, b must be positive")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("(a, b) must be coprime")
        if self.a * self.b <= 1:
            raise ValueError("need a*b > 1")


def _ratio(v):
    """(N, D) with v = N/D exactly: an mpf at its own bits, a float or an int."""
    if not isinstance(v, mp.mpf):
        return v.as_integer_ratio()
    man, exp = v.man_exp
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _cf_candidates(x, q_cap: int, rel_tol=None):
    """Reduced convergents p/q of x with q <= q_cap and, when rel_tol is
    given, the semiconvergents that may lie within rel_tol of x (relative).

    x and rel_tol are taken at their exact values N/D and tN/tD (_ratio),
    and everything below is integer work on them: the expansion is divmod
    on (N, D) until the remainder is 0 or q exceeds q_cap.  Any
    semiconvergent (p_{k-1}*j + p_{k-2})/(q_{k-1}*j + q_{k-2}) is reduced
    because p_{k-1} q_k - p_k q_{k-1} = +-1.  Those of one step, j = 1..a_k,
    approach x from one side, |p - x*q| = |d_{k-2}| - j*|d_{k-1}| with d = p -
    x*q, so the j within rel_tol form one range up to a_k; its start is an
    exact ceiling, widened by one, and the caller's quality test decides.
    The work is linear in the number of partial quotients and in the length
    of the runs; a run is counted before it is listed (_check_scan), and the
    first step's run of j/1, about x*rel_tol long, is the one that grows.
    """
    out = []
    if q_cap < 1:
        return out
    N, D = _ratio(x)
    if rel_tol is not None:
        tN, tD = _ratio(rel_tol)
    pm2, qm2 = 0, 1
    pm1, qm1 = 1, 0
    num, den = N, D
    for _ in range(_CF_MAX_TERMS):
        a, rem = divmod(num, den)
        j_lo = a
        if rel_tol is not None:  # |d_{k-2}| - j*slope <= rel_tol*x*q_{k-2}, times D*tD
            slope = abs(pm1 * D - N * qm1) * tD + tN * N * qm1
            if slope > 0:  # 0 only when rel_tol = 0 and x is the last convergent
                j_lo = max(1, -((tN * N * qm2 - abs(pm2 * D - N * qm2) * tD) // slope) - 1)
        j_hi = a if qm1 == 0 else min(a, (q_cap - qm2) // qm1)
        _check_scan(j_hi - j_lo + 1, "semiconvergent run")
        for j in range(j_lo, j_hi + 1):
            p = j * pm1 + pm2
            if p >= 1:
                out.append((p, j * qm1 + qm2))
        pm2, qm2, pm1, qm1 = pm1, qm1, a * pm1 + pm2, a * qm1 + qm2
        if qm1 > q_cap or rem == 0:
            break
        num, den = den, rem
    return out


def _check_scan(count: int, what: str):
    """OverflowError when a direct scan would list more than 1 000 000 fractions."""
    if count > 1_000_000:
        raise OverflowError(f"{what} too wide for direct scan")


def _band(N: int, D: int, tN: int, tD: int, q_lo: int, q_cap: int):
    """(p, q) for q = q_lo .. q_cap and every p >= 1 that passes the screen
    of rational_approximations, |p*D - q*N| * tD <= tN*q*N*(1 + 2^-20): the
    p within w/D of q*N/D, w = floor(tN*q*N*(2^20 + 1) / (tD*2^20)).
    OverflowError, before any is listed, when the band may hold more than
    1 000 000 fractions: one per q plus 2*sum(w)/D bounds it."""
    scale, unit = tN * N * ((1 << 20) + 1), tD << 20
    rows = q_cap - q_lo + 1
    _check_scan(rows + scale * (q_lo + q_cap) * rows // (unit * D), "Legendre band")
    widths = ((q, scale * q // unit) for q in range(q_lo, q_cap + 1))
    return ((p, q) for q, w in widths
            for p in range(max(1, -((w - q * N) // D)), (q * N + w) // D + 1))


def rational_approximations(x, q_cap: int, rel_tol, p_cap: Optional[int] = None):
    """All reduced fractions p/q, q <= q_cap, with |p/q - x|/x <= rel_tol.

    x must be an mpf at working precision (or a float).  Combines the continued
    fraction (convergents + semiconvergents) with a direct scan of the top
    denominator band where rel_tol exceeds the Legendre threshold 1/(2q^2),
    every numerator within the tolerance of each denominator there, so the
    result equals an exhaustive Farey scan, also where one denominator has
    several such numerators (x*rel_tol*q >= 1/2).
    Returns a sorted list of (p, q, quality).

    Both run in exact integers on x = N/D and rel_tol = tN/tD, which also
    screen each candidate: |p*D - q*N| * tD <= tN * q * N, with a slack of
    2^-20.  The quality of a survivor, |p/q/x - 1|, is taken at the working
    precision, raised where it falls short to 32 bits below the unit of
    q_cap*x and below rel_tol, and decides against rel_tol there.
    OverflowError, before the scan, when a run of semiconvergents or the
    band would list more than 1 000 000 fractions (the first step's run of
    j/1 alone is about x*rel_tol long).
    """
    if q_cap < 1:
        return []
    N, D = _ratio(x)
    with mp.workprec(max(mp.mp.prec, mp.mag(x) + q_cap.bit_length() + 32,
                         32 - mp.mag(rel_tol) if rel_tol > 0 else 0)):
        rel_tol = mp.mpf(rel_tol)
        tN, tD = _ratio(rel_tol)
        cands = _cf_candidates(x, q_cap, rel_tol)
        # Legendre band: fractions with |x - p/q| >= 1/(2q^2) need not be
        # semiconvergents; that is possible once q >= 1/sqrt(2*x*rel_tol).
        if N * tN > 0:
            q_lo = math.isqrt(D * tD // (2 * N * tN)) + 1
            cands = itertools.chain(cands, _band(N, D, tN, tD, q_lo, q_cap))
        seen = {}
        for p, q in cands:
            if p < 1 or (p_cap is not None and p > p_cap) or math.gcd(p, q) != 1:
                continue
            # the exact quality |p*D - q*N|/(q*N) against tN/tD, with a slack
            # of 2^-20 that keeps every fraction the working precision keeps
            if (abs(p * D - q * N) * tD << 20) > tN * q * N * ((1 << 20) + 1):
                continue
            qual = abs(mp.mpf(p) / q / x - 1)
            if qual <= rel_tol:
                seen.setdefault((p, q), qual)
    return sorted((p, q, qual) for (p, q), qual in seen.items())


def _progression_x(spec: ProgressionSpec, ell: int):
    """exp(2*pi*ell/alpha) at working precision; exact power when symbolic."""
    rf = spec.rational_form
    if rf is not None:
        k, rem = divmod(ell, rf.ell0)
        if rem == 0:  # one rounding, so that the power's own quality reads 0
            return mp.mpf(rf.m ** k) / rf.n ** k
        return (mp.mpf(rf.m) / rf.n) ** (mp.mpf(ell) / rf.ell0)
    return mp.exp(_TWO_PI * ell / mp.mpf(spec.alpha))


def _check_search(T: float, eps: float, caller: str = "find_tuple"):
    """ValueError, naming the caller, unless T >= 100 and eps lies in (0, 1/2)."""
    if T < 100.0:
        raise ValueError(f"{caller} requires T >= 100")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")


@functools.lru_cache
def _search_tol(T: float, eps: float):
    """find_tuple's quality tolerance T^(eps-1) at CF_PRECISION_BITS, the
    same for every ell of a run."""
    with mp.workprec(CF_PRECISION_BITS):
        return mp.mpf(T) ** (eps - 1.0)


def find_tuple(spec: ProgressionSpec, ell: int, T: float,
               eps: float = DEFAULT_EPS) -> Optional[DiophantineTuple]:
    """The unique coprime (a, b), a*b > 1, b < T^(1/2-eps)*exp(-pi*ell/alpha),
    with |a/b - exp(2*pi*ell/alpha)| <= exp(2*pi*ell/alpha) * T^(-1+eps);
    None when no fraction qualifies.

    Uniqueness is the Farey-spacing argument: fractions with denominator
    below K are separated by more than K^-2, which exceeds twice the quality
    tolerance whenever T^eps > 2.
    """
    _check_search(T, eps)
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    ln_bcap = (0.5 - eps) * math.log(T) - math.pi * ell / spec.alpha
    if ln_bcap <= 0.0:
        return None  # no admissible denominator (b >= 1 is already too big)
    with mp.workprec(CF_PRECISION_BITS):
        q_cap = int(mp.ceil(mp.exp(ln_bcap))) - 1  # the largest integer below the cap
        x = _progression_x(spec, ell)
        if x > mp.mpf(2) ** CF_PRECISION_BITS:
            raise OverflowError(
                "exp(2*pi*ell/alpha) exceeds the exact-arithmetic configuration cap")
        hits = [(p, q, qual) for p, q, qual in
                rational_approximations(x, q_cap, _search_tol(T, eps))
                if p * q > 1]
    if not hits:
        return None
    # Qualifying fractions are Farey-separated; take the smallest denominator
    # (they coincide on every progression the suite tests).
    p, q, qual = min(hits, key=lambda h: (h[1], h[0]))
    return DiophantineTuple(ell=ell, a=p, b=q, quality=float(qual))


def detect_rational(spec: ProgressionSpec, ell_max: int,
                    den_max: int) -> Optional[tuple[int, int, int]]:
    """Float-level rationality scan: the first (ell, p, q), q <= den_max, with

        |exp(2*pi*ell/alpha) - p/q| <= 1e-12 / q^2.

    1/q^2 is the Farey/convergent resolution at denominator q, so the
    criterion fires only on anomalously good approximations (partial
    quotient ~1e12), which is what a genuinely rational x produces through
    the float representation of alpha.  A tolerance proportional to x
    instead (or to x/q^2) cannot work: every irrational eventually meets
    it -- generic convergents once 1e-12*x exceeds 1/q^2, and bare integers
    once x is large enough that the integer spacing is below 1e-12*x --
    which would contradict the intended "none" outcome for alpha = 1.  The
    result, minimal_fraction's (ell0, m, n) as a plain triple, is a float-level
    identity, never a certificate: trusting it is from_rational(*found).
    """
    if spec.rational_form is not None:
        raise ValueError("spec already carries a rational_form")
    _check_detect_budget(spec.alpha, ell_max)
    for ell in range(1, ell_max + 1):
        with mp.workprec(_detect_bits(spec.alpha, ell)):
            tol0 = mp.mpf("1e-12")
            x = mp.exp(_TWO_PI * ell / mp.mpf(spec.alpha))
            for p, q in _cf_candidates(x, den_max):
                if p == q:
                    continue
                if abs(x - mp.mpf(p) / q) <= tol0 / (q * q):
                    return astuple(minimal_fraction(RationalForm(ell, p, q)))
    return None


def _detect_bits(alpha: float, ell: int) -> int:
    """The working precision of detect_rational at ell.  Its tolerance is
    absolute, so the mantissa must cover the integer part of x =
    exp(2*pi*ell/alpha) AND the 1e-12/q^2 scale below the point; a fixed
    mantissa would start tracing its own dyadic tail around x ~ 2^(bits -
    40) and hallucinate anomalies."""
    return CF_PRECISION_BITS + int(_TWO_PI * ell / alpha / math.log(2.0)) + 16


def _check_detect_budget(alpha: float, ell_max: int):
    """OverflowError, before any work, when the last ell of detect_rational's
    scan needs more than _DETECT_BITS_CAP bits (the bits grow with ell), or
    when the scan's precision work, sum over ell <= ell_max of the bits
    squared, exceeds _DETECT_WORK_CAP.  The sum is taken in closed form
    over (c + s*ell)^2 >= bits^2, with c = CF_PRECISION_BITS + 16 and s =
    2pi/(alpha ln 2), so its cost does not grow with ell_max."""
    if _detect_bits(alpha, ell_max) > _DETECT_BITS_CAP:
        raise OverflowError("exp(2*pi*ell/alpha) exceeds the exact-arithmetic configuration cap")
    c, s, n = CF_PRECISION_BITS + 16, _TWO_PI / alpha / math.log(2.0), ell_max
    work = n * c * c + c * s * n * (n + 1) + s * s * n * (n + 1) * (2 * n + 1) / 6
    if work > _DETECT_WORK_CAP:
        raise OverflowError(f"the rationality scan of ell = 1 .. {ell_max} needs about "
                            f"{work:.3g} squared bits of precision, past the budget of "
                            f"{_DETECT_WORK_CAP:.3g}")


def delta(spec: ProgressionSpec) -> float:
    """The rational-case moment correction delta(alpha, beta) of the spec's
    exact form; 0 when it has none, i.e. exp(2*pi*ell/alpha) is taken to be
    irrational for all ell > 0, whatever a float alpha approximates."""
    rf = spec.rational_form
    if rf is None:
        return 0.0
    mn = rf.m * rf.n
    c = math.cos(spec.beta * math.log(rf.m / rf.n))
    root = math.sqrt(mn)
    return (2.0 * c * root - 2.0) / (mn + 1.0 - 2.0 * root * c)


def waldschmidt_bound(m: int, p: int) -> float:
    """log of the transcendence lower bound for |exp(pi*m) - p/q|:

        log-bound = -2^72 * log(2m) * log(p) * log(log(p)).

    Returned in the log domain (the raw bound underflows any float).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p <= math.e:
        raise ValueError("p must exceed e (log log p undefined)")
    return -(2.0 ** 72) * math.log(2 * m) * math.log(p) * math.log(math.log(p))
