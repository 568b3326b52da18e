"""Progressions 1/2 + i(alpha*ell + beta): rationality dichotomy, tuples, delta.

Everything here revolves around x = exp(2*pi*ell/alpha).  If x is rational
for some ell the progression resonates with a fixed fraction m/n and the
discrete second moment picks up the correction

    delta = (2*cos(beta*log(m/n))*sqrt(mn) - 2) / (mn + 1 - 2*sqrt(mn)*cos(beta*log(m/n))),

otherwise delta = 0.  The tuple machinery hunts, for each ell, the unique
coprime pair (a, b) with b below T^(1/2-eps)*exp(-pi*ell/alpha) approximating
x to relative quality T^(-1+eps).

x is taken at 256 bits.  _fractions_between lists every fraction of an
exact interval by Stern-Brocot descent, an exhaustive Farey scan: the
tolerance interval around x (qualities at working precision), and the
excluded set's log-defect band.  Detection walks x's convergents only.
"""
import functools
import math
from dataclasses import astuple, dataclass
from typing import Optional

import mpmath as mp

__all__ = ["RationalForm", "ProgressionSpec", "DiophantineTuple",
           "detect_rational", "minimal_fraction", "delta", "find_tuple",
           "waldschmidt_bound", "rational_approximations"]

CF_PRECISION_BITS = 256
DEFAULT_EPS = 0.05

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


def _convergents(x, q_cap: int):
    """The convergents p/q of x with p >= 1 and q <= q_cap, in order: divmod
    on x's exact N/D (_ratio) until the remainder is 0 or q passes q_cap.
    q_k >= F_(k+1), so q_cap < 2^100 ends the walk within 146 quotients."""
    num, den = _ratio(x)
    pm1, qm1, p, q = 0, 1, 1, 0
    while True:
        a, rem = divmod(num, den)
        pm1, qm1, p, q = p, q, a * p + pm1, a * q + qm1
        if q > q_cap:
            return
        if p >= 1:
            yield p, q
        if rem == 0:
            return
        num, den = den, rem


def _simplest(an: int, ad: int, bn: int, bd: int, q_cap: int):
    """The reduced p/q of least q in [a, b] = [an/ad, bn/bd], 0 < a <= b, or
    None once q passes q_cap.  Stern-Brocot descent (Concrete Mathematics,
    4.5): the least integer of [a, b] if it holds one, else n = floor(a) plus
    the simplest of [1/(b - n), 1/(a - n)], with y of that interval mapped
    back to (m*y + m1)/(k*y + k1).  Past the first step y > 1, so k + k1
    bounds q and grows like the Fibonacci numbers: O(log q_cap) steps."""
    m, m1, k, k1 = 1, 0, 0, 1
    while k + k1 <= q_cap:
        c = -(-an // ad)
        if c * bd <= bn:
            return (m * c + m1, k * c + k1) if k * c + k1 <= q_cap else None
        n = c - 1
        an, ad, bn, bd = bd, bn - n * bd, ad, an - n * ad
        m, m1, k, k1 = m * n + m1, m, k * n + k1, k
    return None


def _fractions_between(an: int, ad: int, bn: int, bd: int, q_cap: int):
    """Every reduced p/q, q <= q_cap, in [an/ad, bn/bd] (an/ad > 0): the
    simplest, then the same on either side of it past 1/(q*q_cap), within
    which Farey spacing puts no other.  The fractions of F_q_cap lie at least
    1/q_cap^2 apart, so OverflowError, before any is listed, when the
    width times q_cap^2 exceeds 999 999."""
    if (bn * ad - an * bd) * q_cap * q_cap > 999_999 * ad * bd:
        raise OverflowError("interval too wide to list: it may hold 1 000 000 fractions")
    stack = [(an, ad, bn, bd)]
    while stack:
        an, ad, bn, bd = stack.pop()
        hit = _simplest(an, ad, bn, bd, q_cap) if an * bd <= bn * ad else None
        if hit is not None:
            p, q = hit
            yield hit
            stack += [(an, ad, p * q_cap - 1, q * q_cap), (p * q_cap + 1, q * q_cap, bn, bd)]


def rational_approximations(x, q_cap: int, rel_tol):
    """All reduced fractions p/q, q <= q_cap, with |p/q - x|/x <= rel_tol.

    x must be an mpf at working precision (or a float).  Returns a sorted
    list of (p, q, quality), equal to an exhaustive Farey scan; find_tuple
    is its one caller in the package.

    _fractions_between lists the exact interval x*(1 -+ rel_tol*(1 +
    2^-20)), from x = N/D and rel_tol = tN/tD, clipped at 1/q_cap so that
    p >= 1; the slack keeps every fraction the working precision keeps.  The
    quality |p/q/x - 1| of each is taken at the working precision, raised
    where it falls short to 32 bits below the unit of q_cap*x and below
    rel_tol, and decides against rel_tol there.  OverflowError, before the
    listing, when the interval may hold 1 000 000 fractions.
    """
    if q_cap < 1:
        return []
    N, D = _ratio(x)
    with mp.workprec(max(mp.mp.prec, mp.mag(x) + q_cap.bit_length() + 32,
                         32 - mp.mag(rel_tol) if rel_tol > 0 else 0)):
        rel_tol = mp.mpf(rel_tol)
        tN, tD = _ratio(rel_tol)
        den, half = D * tD << 20, tN * ((1 << 20) + 1)
        lo, hi = N * ((tD << 20) - half), N * ((tD << 20) + half)
        an, ad = (1, q_cap) if lo * q_cap < den else (lo, den)
        out = []
        for p, q in _fractions_between(an, ad, hi, den, q_cap):
            qual = abs(mp.mpf(p) / q / x - 1)
            if qual <= rel_tol:
                out.append((p, q, qual))
    return sorted(out)


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
    """ValueError, naming the caller, unless T >= 100, eps lies in (0, 1/2)
    and the tolerance T^(eps-1) is at least 2^(20 - CF_PRECISION_BITS): a
    finer one reads x's rounding to CF_PRECISION_BITS as a rational x."""
    if T < 100.0:
        raise ValueError(f"{caller} requires T >= 100")
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    if (1.0 - eps) * math.log2(T) > CF_PRECISION_BITS - 20:
        raise ValueError(f"{caller}'s tolerance T^(eps-1) at T = {T!r}, eps = {eps!r} is "
                         f"finer than x's {CF_PRECISION_BITS} bits; lower T or raise eps")


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

    An admissible denominator needs x < T^(1 - 2 eps), and _check_search
    keeps T^(1 - eps) <= 2^(CF_PRECISION_BITS - 20), so x fits its bits.
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
    _check_detect_budget(spec.alpha, ell_max, den_max)
    for ell in range(1, ell_max + 1):
        with mp.workprec(_detect_bits(spec.alpha, ell)):
            tol0 = mp.mpf("1e-12")
            x = mp.exp(_TWO_PI * ell / mp.mpf(spec.alpha))
            for p, q in _convergents(x, den_max):
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


def detect_resolved_ell(alpha: float, ell_max: int) -> int:
    """The last ell <= ell_max (0 for none) whose x = exp(2*pi*ell/alpha) the
    rounding of alpha moves, by about x ln x 2^-53, less than detect_rational's
    criterion at q = 1: past it a form can be missed, so none decides nothing."""
    bar = math.log(1e-12) + 53.0 * math.log(2.0)
    return next((ell - 1 for ell in range(1, ell_max + 1)
                 if _TWO_PI * ell / alpha + math.log(_TWO_PI * ell / alpha) > bar), ell_max)


def _check_detect_budget(alpha: float, ell_max: int, den_max: int):
    """Before any work: ValueError when den_max >= 2^100, whose 1e-12/den_max^2
    lies within 2^32 of x's rounding at _detect_bits (x - p/q would read 0);
    OverflowError when the last ell of detect_rational's scan needs more
    than _DETECT_BITS_CAP bits (the bits grow with ell), or when the scan's
    precision work, sum over ell <= ell_max of the bits squared, exceeds
    _DETECT_WORK_CAP.  The sum is taken in closed form over (c + s*ell)^2
    >= bits^2, with c = CF_PRECISION_BITS + 16 and s = 2pi/(alpha ln 2), so
    its cost does not grow with ell_max."""
    if 2 * den_max.bit_length() + 40 > CF_PRECISION_BITS - 16:
        raise ValueError(f"den_max must lie below 2^{CF_PRECISION_BITS // 2 - 28}: x's "
                         f"bits cannot resolve 1e-12/den_max^2 past it")
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

    Returned in the log domain (the raw bound underflows any float).  Kept
    as a paper quantity that demos/diophantine_tuples.py shows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p <= math.e:
        raise ValueError("p must exceed e (log log p undefined)")
    return -(2.0 ** 72) * math.log(2 * m) * math.log(p) * math.log(math.log(p))
