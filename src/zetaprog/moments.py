"""Dirichlet polynomials, twisted moments, and the correction machinery.

The discrete second moment over a progression and its continuous twin,

    sum over ell of |zeta * B|^2 (1/2 + i(alpha*ell + beta)) * phi(ell/T)
    vs the same integrand integrated in t over [T, 2T],

differ by a correction E, formed by the caller and predicted by predict_E:

    E ~ 4 * Re sum over ell > 0 of H(ell),
    H(ell) = ((a/b)^(i*beta)/sqrt(ab))
             * integral of phi(t/T) e^(-2*pi*i*t*nu(ell)) F(a, b, t) dt,

with (a, b) the diophantine tuple of the ell-th resonance, nu(ell) its tiny
frequency defect, and F assembled from the arithmetic transform H(x).  The
companion first-moment and Dirichlet-polynomial-only corrections (predict_E
and predict_E_prime) follow the Poisson-summation convention: the transform
of the lattice comb contributes T * phi_hat at T times the frequency -- note
the visible T scaling on both factors, which dimensional analysis of the
lattice sum forces even where display formulas leave it implicit.
predict_E_prime takes the pair (a, b) at T * phi_hat(-T * nu), the sign
Poisson summation fixes.

One level sampler evaluates zeta*B and phi(ell/T) at the nodes ell = j / p
of the progression, its runs of heights built from the integers j and p,
one block of at most zeta._BLOCK_ELEMS nodes at a time, through
zeta.zeta_on_progression and zeta.progression_sum: zeta and B are only ever
evaluated on a progression.  The public sample,
sample_progression, is the integers in [T, 2T] (p = 1); every consumer
reduces it over its phi > 0 nodes, and the discrete moments, the
nonvanishing bound and the resonator search share it.  Every integral is
the nested trapezoid of quadrature.py: the continuous moment samples the
progression at the points ell = j / p of [T, 2T], its start level and
first halving as one lattice (which holds the integers, and
continuous_twisted_moment returns the integer sample cut from it, so the
discrete moment costs no evaluation of its own), each call of the rule
summed block by block, from a start of p = ceil(density) nodes per unit,
the integrand's top frequency alpha/2pi * log(t_max * len(B) / 2pi) plus
16 nodes across each window ramp, where the trapezoid of a band-limited
integrand under a smooth window is exact;
where the heights pass through 0, zeta's pole at s = 1 narrows the strip
of analyticity, and the start stays at the power of two above every tuple
frequency (the bound _default_ell_max that predict_E also sums to).  The
same zeta engine feeds both sides of E, so engine error cancels in it.

The correction integrals share phi_hat's windowed transform
(window._windowed_transform), which takes an array of frequencies and
integrates them on one nested trapezoid, a level accepted only when every
frequency agrees: predict_E passes every tuple of ell = 1 .. _default_ell_max
at once, and predict_E_prime every phi_hat(T*nu) at once.  F(a, b, T*x) is
smooth on [1, 2] (each of its H terms is entire in log tt), so it is
resolved once per tuple by a Chebyshev interpolant of degree 32, every
tuple's from one h_many call at the Chebyshev points, kept when its
coefficients above degree 16 are all within 1e-12 of its largest; each
level reads every kept interpolant at its nodes as one product of the
nodes' Chebyshev-Vandermonde matrix with the coefficients.  Where
they are not (heights that start near 0 put F's pole at tt = 0 just left of
x = 1), F itself is evaluated at every trapezoid node.
Heights that reach 0 on [T, 2T] (alpha*T + beta <= 0) have no prediction:
predict_E refuses them.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import zeta as zmod
from .dioph import DEFAULT_EPS, ProgressionSpec, find_tuple
from .errors import CapError, DegenerateDenominatorError
from .kernels import h_many
from .quadrature import NODE_CAP, nested_trapezoid, parity_slices
from .sieves import mobius_table
from .window import SmoothWindow, _phi_hats, _windowed_transform

__all__ = ["DirichletPoly", "Mollifier", "NonvanishingReport",
           "ProgressionSample", "sample_progression", "mollifier_coeffs",
           "continuous_twisted_moment", "F_func", "F_prime",
           "predict_E", "predict_E_prime",
           "nonvanishing_bound", "empirical_nonvanishing"]

_TWO_PI = 2.0 * math.pi

_COEFF_MEMORY_CAP = 50_000_000

# Most values of ell the tuple search of predict_E and predict_E_prime may
# take (CapError past it, before any search).  find_tuple takes about 46 us
# an ell (the 285 046 of alpha = 1e5, T = 300 took 13 s), so a search at
# the budget takes about 0.2 s; the widest range the benchmark asks for is
# 37 values of ell.
_TUPLE_ELL_CAP = 1 << 12

# _F_on_window's interpolant of F on [1, 2]: its degree, and the largest
# coefficient above half the degree, relative to the largest overall.
_F_CHEB_DEGREE = 32
_F_CHEB_TAIL = 1e-12


@dataclass(eq=False)
class DirichletPoly:
    """Coefficients b(n) for 1 <= n <= length, stored densely (index 0 unused)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("values must be a 1-d array with at least b(1)")

    @property
    def length(self) -> int:
        return len(self.values) - 1

    def coeff(self, n: int) -> float:
        if 1 <= n <= self.length:
            return float(self.values[n])
        return 0.0

    def nonzero(self):
        ns = np.nonzero(self.values[1:])[0] + 1
        return ns, self.values[ns]

    @classmethod
    def one(cls) -> "DirichletPoly":
        """The constant polynomial b(1) = 1."""
        return cls(values=np.array([0.0, 1.0]))


@dataclass(eq=False)
class Mollifier(DirichletPoly):
    """b(n) = mu(n) * (1 - log n / log T^theta) for n <= T^theta."""

    theta: float = 0.0
    T: float = 0.0


def _check_mollifier(T: float, theta: float):
    """ValueError unless T >= 100 and theta lies in (0, 1/2)."""
    if T < 100.0:
        raise ValueError("mollifier_coeffs requires T >= 100")
    if not (0.0 < theta < 0.5):
        raise ValueError("theta must lie in (0, 1/2)")


def mollifier_coeffs(T: float, theta: float) -> Mollifier:
    _check_mollifier(T, theta)
    length = int(np.floor(T ** theta))  # T >= 100 and theta > 0 give T^theta > 1
    if length > _COEFF_MEMORY_CAP:
        raise CapError(f"T^theta = {length} exceeds the coefficient memory cap")
    vals = mobius_table(length)
    vals[1:] *= 1.0 - np.log(np.arange(1, length + 1)) / (theta * math.log(T))
    return Mollifier(values=vals, theta=theta, T=T)


# -- the progression sample ------------------------------------------------------


def _check_power(power: int):
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")


def _check_sample_budget(T: float):
    """ValueError unless T is positive and finite, and CapError when the
    integers in [T, 2T] exceed NODE_CAP, the largest level the continuous
    moment can ask for.  Both public samples call it before any evaluation,
    and the CLI before it builds anything."""
    if not (0.0 < T < math.inf):
        raise ValueError("T must be positive and finite")
    count = math.floor(2.0 * T) - math.ceil(T) + 1
    if count > NODE_CAP:
        raise CapError(f"progression sample of {count} nodes exceeds the budget of "
                       f"{NODE_CAP} nodes")


@dataclass(frozen=True, eq=False)
class ProgressionSample:
    """Per node ell of a progression, phi = 0 nodes included: t = alpha*ell +
    beta, phi = phi(ell/T), zeta = zeta(1/2 + it) and B = B(1/2 + it).
    The public samples (sample_progression, continuous_twisted_moment) hold
    the integers in [T, 2T].  Every reduction sums over the phi > 0 nodes
    only."""

    spec: ProgressionSpec
    window: SmoothWindow
    T: float
    poly: DirichletPoly
    ell: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    B: np.ndarray

    def twisted_sum(self, power: int, nodes=slice(None)):
        """sum over the phi > 0 nodes of phi * zeta*B (power=1, complex) or of
        phi * |zeta*B|^2 (power=2, real), of every node or of the slice
        nodes."""
        _check_power(power)
        phi = self.phi[nodes]
        live = phi > 0.0
        w = phi[live]
        vals = self.zeta[nodes][live] * self.B[nodes][live]
        if power == 2:
            return float(np.sum(w * (vals * np.conj(vals)).real))
        return complex(np.sum(w * vals))


def sample_progression(spec: ProgressionSpec, window: SmoothWindow, T: float,
                       poly: DirichletPoly) -> ProgressionSample:
    """Evaluate zeta and B once at every integer ell in [T, 2T] of the
    progression 1/2 + i(alpha*ell + beta), through _sample_level.  Raises as
    _check_sample_budget does, before allocating."""
    _check_sample_budget(T)
    return _sample_level(spec, window, T, poly, _integers(T), 1)


def _sample_level(spec: ProgressionSpec, window: SmoothWindow, T: float,
                  poly: DirichletPoly, j: range, p: int) -> ProgressionSample:
    """The sample at the nodes ell = j / p, j a range of numerators, one
    block of zeta._on_node_blocks at a time: zeta from
    zeta.zeta_on_progression and B from zeta.progression_sum on each block's
    run of heights t0 = alpha * (j[lo]/p) + beta, step alpha * (j.step/p),
    built from j and p so that no step is recovered from rounded nodes,
    written into the sample's arrays.  No engine sees more than a block, so
    its working set is bounded whatever the length of j; a run that fits
    one block is evaluated as one run.  zeta comes first, on every block, so
    heights the zeta engines refuse (AccuracyError) cost no Dirichlet sum; a
    caller that samples block by block, as the continuous moment does, pays
    for the blocks before the refused one.

    t and phi come before the blocks.  Their full-length temporaries, freed
    before the first block, leave the C allocator's trim threshold above a
    block's working set; after a cold start it otherwise hands that working
    set back to the system after each block and faults it in again (a first
    sample at T = 1e6 took 61 000 page faults, against 6 500 with t and phi
    first)."""
    ell = np.arange(j.start, j.stop, j.step, dtype=np.int64)
    if p != 1:
        ell = ell / p  # frees the int64 numerators before the engines run
    t, phi = spec.alpha * ell + spec.beta, window.phi(ell / T)

    def run(sl):
        t0 = spec.alpha * (j[sl.start] / p) + spec.beta
        return t0, spec.alpha * (j.step / p), sl.stop - sl.start

    zeta = zmod._on_node_blocks(len(j), lambda sl: zmod.zeta_on_progression(*run(sl)))
    B = zmod._on_node_blocks(len(j), lambda sl: zmod.progression_sum(*poly.nonzero(), *run(sl)))
    return ProgressionSample(spec=spec, window=window, T=T, poly=poly, ell=ell, t=t, phi=phi,
                             zeta=zeta, B=B)


def _integers(T: float) -> range:
    """The integers in [T, 2T]."""
    return range(math.ceil(T), math.floor(2.0 * T) + 1)


# -- moments -------------------------------------------------------------------


def continuous_twisted_moment(spec: ProgressionSpec, window: SmoothWindow, T: float,
                              poly: DirichletPoly, power: int):
    """(value, integers): value is the integral over ell in [T, 2T] of
    phi(ell/T) * |zeta*B|^2 (power=2, real) or of phi(ell/T) * zeta*B
    (power=1, complex), to 1e-4 relative; integers is the sample of the
    integers in [T, 2T], cut from the rule's first lattice, so every node is
    evaluated once.  integers.twisted_sum(power) is the discrete moment.

    The rule is quadrature.nested_trapezoid on the points ell = j / p of
    [T, 2T], p = per_unit * 2^k, from the start density of
    _continuous_density.  The trapezoid integrates a band-limited integrand
    under a smooth window exactly once the step 1/p puts the first alias
    frequency p above the integrand's top frequency plus the window's.  The
    start step comes from that bound, not from the refinement check: a
    frequency at an even multiple of the step aliases on both levels a
    halving compares, so two agreeing levels do not prove the step fine
    enough.

    Each call of the rule is summed block by block: every block of
    zeta._node_blocks is one sample of the progression, through the level
    sampler that sample_progression calls with the integers and p = 1, its
    run (t0, h) built from the numerators j and p, and only the running
    sums by parity of j outlive it.  The first call holds the start level
    and its first halving, the lattice at p = 2 * per_unit, so a moment
    that fits one block costs one zeta_on_progression and one
    progression_sum run for both levels.  Two successive levels agreeing to
    1e-4 relative are accepted; QuadratureError when none do, or, before
    any evaluation, when the start step exceeds the rule's node budget.
    per_unit is an integer >= 1, so the integer ell is the lattice's node j
    = p * ell.  Those rows of t, phi, zeta and B are copied from each block
    into the integer sample's arrays, allocated once, after the first block
    is evaluated; so the working set is the integer sample and one block,
    its numerators included.
    """
    _check_power(power)
    _check_sample_budget(T)
    integers = []  # the integer sample, cut from the first call's lattice

    def level_sum(j, p):
        cut = not integers
        sums = [0.0, 0.0]
        for sl in zmod._node_blocks(len(j)):
            nodes = j[sl]
            block = _sample_level(spec, window, T, poly, nodes, p)
            if cut:
                if not integers:
                    integers.append(_integer_sample(spec, window, T, poly))
                _cut_integers(block, nodes.start, p, integers[0])
            for i, half in enumerate(parity_slices(nodes)):
                sums[i] += block.twisted_sum(power, half)
        return sums

    density = _continuous_density(spec, window, T, poly)
    value = nested_trapezoid(level_sum, T, 2.0 * T, density,
                             lambda new, old: abs(new - old) <= 1e-4 * max(abs(new), 1e-12))
    return value, integers[0]


def _integer_sample(spec: ProgressionSpec, window: SmoothWindow, T: float,
                    poly: DirichletPoly) -> ProgressionSample:
    """The sample of the integers in [T, 2T], its ell as sample_progression
    takes them and its t, phi, zeta and B allocated, to be filled."""
    j = _integers(T)
    ell = np.arange(j.start, j.stop, dtype=np.int64)
    return ProgressionSample(spec=spec, window=window, T=T, poly=poly, ell=ell,
                             t=np.empty(len(ell)), phi=np.empty(len(ell)),
                             zeta=np.empty(len(ell), dtype=complex),
                             B=np.empty(len(ell), dtype=complex))


def _cut_integers(block: ProgressionSample, j0: int, p: int, integers: ProgressionSample):
    """Copy t, phi, zeta and B of the integers ell = integers.ell[i] in block,
    a sample at the consecutive numerators j0, j0 + 1, ... over p, into row
    i of integers: at an integer node j / p is exact, so t and phi are
    sample_progression's bit for bit."""
    if len(integers.ell) == 0:
        return
    first, last = int(integers.ell[0]), int(integers.ell[-1])
    lo, hi = max(-(-j0 // p), first), min((j0 + len(block.ell) - 1) // p, last)
    if lo > hi:
        return
    src, dst = slice(p * lo - j0, p * hi - j0 + 1, p), slice(lo - first, hi - first + 1)
    for name in ("t", "phi", "zeta", "B"):
        getattr(integers, name)[dst] = getattr(block, name)[src]


def _continuous_density(spec: ProgressionSpec, window: SmoothWindow, T: float,
                        poly: DirichletPoly) -> float:
    """Start nodes per unit ell of the continuous moment's trapezoid.

    Where the heights t = alpha*ell + beta keep one sign over [T, 2T], zeta*B
    carries frequencies up to log(|t| * len(B) / 2pi) / 2pi per unit t (the
    Dirichlet side, and the rotation of chi at theta'(t) = log(t/2pi)/2), and
    so does |zeta*B|^2 = Z^2 |B|^2; per unit ell that is alpha/2pi times it,
    taken at the largest |t|.  The window's ramps, edge * T wide in ell, add
    16 nodes across each.  Where the heights pass through 0, the pole of zeta
    at s = 1 narrows the strip of analyticity, and the start is the power of
    two at or above every tuple frequency (_default_ell_max + 1, the bound
    predict_E sums to) and 16 nodes across each ramp: on 1:2:1 through 0 at
    T = 300, a start at the bound itself (18 per unit, not 32) is 9.3e-9
    relative off a dense Gauss-Legendre reference.
    """
    ramp = 16.0 / (window.edge * T)
    first, last = spec.alpha * T + spec.beta, 2.0 * spec.alpha * T + spec.beta
    if first > 0.0 or last < 0.0:
        t_max = max(abs(first), abs(last))
        return max(0.0, spec.alpha / _TWO_PI * math.log(t_max * poly.length / _TWO_PI)) + ramp
    bound = max(_default_ell_max(spec, T, poly) + 1, ramp)
    return float(1 << (math.ceil(bound) - 1).bit_length())


# -- the correction machinery ---------------------------------------------------


def _f_pair_tables(a: int, b: int, poly: DirichletPoly):
    """Constants of the (m, n) double sum, raveled m-major: weights
    b(m)b(n)g/(mn) and the factors g^2/(2*pi*m*a*n*b) multiplying
    alpha*t+beta inside H.

    With g0 = gcd(m, n), m = g0 m' and n = g0 n', coprime (a, b) give
    g = gcd(m*a, n*b) = g0 gcd(m', b) gcd(n', a) (a prime of m' divides
    neither n' nor, when it divides b, a), and gcd(m', b) = gcd(m',
    gcd(m, b)): every factor divides m or n, so no product m*a is formed
    and nothing wraps, whatever the size of a and b."""
    ns, bs = poly.nonzero()
    m, n = ns[:, None], ns[None, :]
    g0 = np.gcd(m, n)
    gb = np.array([math.gcd(int(k), b) for k in ns])
    ga = np.array([math.gcd(int(k), a) for k in ns])
    g = g0 * np.gcd(m // g0, gb[:, None]) * np.gcd(n // g0, ga[None, :])
    weights = bs[:, None] * bs[None, :] * g / (m * n)
    consts = g.astype(float) ** 2 / (_TWO_PI * m * float(a) * n * float(b))
    return weights.ravel(), consts.ravel()


def _F_many(tables, ts, spec: ProgressionSpec) -> np.ndarray:
    """F at every height of ts for each (weights, consts) of tables (the
    _f_pair_tables of a tuple), as the rows of an array, from one h_many
    call."""
    tt = spec.alpha * np.asarray(ts, dtype=float) + spec.beta
    consts = np.concatenate([c for _, c in tables])
    H = h_many(np.outer(consts, tt).ravel()).reshape(len(consts), len(tt))
    out = np.empty((len(tables), len(tt)))
    lo = 0
    for i, (weights, _) in enumerate(tables):
        out[i] = weights @ H[lo:lo + len(weights)]
        lo += len(weights)
    return out


def F_func(a: int, b: int, t: float, poly: DirichletPoly, spec: ProgressionSpec) -> float:
    """The gcd-collapsed double sum

        F(a,b,t) = sum_{m,n <= length} b(m)b(n)/(mn) * g * H(tt*g^2/(2*pi*m*a*n*b)),

    with g = gcd(m*a, n*b) and tt = alpha*t + beta.  For the constant
    polynomial this is a single term H(tt/(2*pi*a*b)).  Kept as selftest's
    oracle of the batched F tables."""
    if math.gcd(a, b) != 1 or a * b <= 1:
        raise ValueError("need coprime (a, b) with a*b > 1")
    return float(_F_many([_f_pair_tables(a, b, poly)], [float(t)], spec)[0, 0])


def F_prime(a: int, b: int, poly: DirichletPoly) -> float:
    """F'(a, b) = sum_{r >= 1} b(a*r) b(b*r) / r (finite: b vanishes past length)."""
    if math.gcd(a, b) != 1:
        raise ValueError("need coprime (a, b)")
    rmax = poly.length // max(a, b)
    return math.fsum(poly.coeff(a * r) * poly.coeff(b * r) / r
                     for r in range(1, rmax + 1))


def _tuple_phase(spec: ProgressionSpec, tup):
    """(nu, (a/b)^(i*beta)/sqrt(ab)) of a tuple: nu(ell) = alpha*log(a/b)/(2*pi)
    - ell, exactly 0 on the symbolic rational path."""
    pref = np.exp(1j * spec.beta * math.log(tup.a / tup.b)) / math.sqrt(tup.a * tup.b)
    rf = spec.rational_form
    if (rf is not None and tup.ell % rf.ell0 == 0 and tup.a == rf.m ** (tup.ell // rf.ell0)
            and tup.b == rf.n ** (tup.ell // rf.ell0)):
        return 0.0, pref
    return spec.alpha * math.log(tup.a / tup.b) / _TWO_PI - tup.ell, pref


def _check_heights(spec: ProgressionSpec, T: float):
    """ValueError unless every height alpha*t + beta on [T, 2T] is positive."""
    if spec.alpha * T + spec.beta <= 0.0:
        raise ValueError(f"predict_E requires heights alpha*T + beta > 0, got "
                         f"{spec.alpha * T + spec.beta!r}; run with --no-predict")


def _correction_integrals(tuples, spec: ProgressionSpec, window: SmoothWindow, T: float,
                          poly: DirichletPoly) -> np.ndarray:
    """H of each tuple, all from one _windowed_transform.  With t = T*x, H
    is T times the windowed transform of F(a, b, T*x) at T*nu, each to 1e-5
    relative (floored at 1e-9), F as _F_on_window gives it."""
    phases = [_tuple_phase(spec, tup) for tup in tuples]
    F = _F_on_window([_f_pair_tables(tup.a, tup.b, poly) for tup in tuples], T, spec)
    vals = _windowed_transform(window, T * np.array([nu for nu, _ in phases]), F,
                               lambda new, old: np.abs(new - old)
                               <= 1e-5 * np.maximum(np.abs(new), 1e-9))
    return np.array([pref for _, pref in phases]) * T * vals


def _F_on_window(tables, T: float, spec: ProgressionSpec):
    """F(x, rows): F(a, b, T*x) at the nodes x in [1, 2] for the tuples whose
    _f_pair_tables are tables[rows], as the rows of an array.

    Each tuple's F is read from its Chebyshev interpolant of degree
    _F_CHEB_DEGREE on [1, 2], kept where its coefficients above half the
    degree are all within _F_CHEB_TAIL of its largest; elsewhere F itself
    is evaluated at every node.  Every tuple's interpolant comes from one
    _F_many call at the Chebyshev points, and the kept ones are read at the
    nodes as one Chebyshev-Vandermonde product."""
    cheb = np.polynomial.chebyshev
    coef = cheb.chebinterpolate(lambda u: _F_many(tables, T * (1.5 + 0.5 * u), spec).T,
                                _F_CHEB_DEGREE)
    c = np.abs(coef)
    kept = np.max(c[_F_CHEB_DEGREE // 2 + 1:], axis=0) <= _F_CHEB_TAIL * np.max(c, axis=0)

    def F(x, rows):
        idx = np.arange(len(tables))[rows]
        out = np.empty((len(idx), len(x)))
        fit = kept[idx]
        out[fit] = (cheb.chebvander(-3.0 + 2.0 * x, _F_CHEB_DEGREE) @ coef[:, idx[fit]]).T
        if not np.all(fit):
            out[~fit] = _F_many([tables[i] for i in idx[~fit]], T * x, spec)
        return out

    return F


def _default_ell_max(spec: ProgressionSpec, T: float, poly: DirichletPoly) -> int:
    """The last ell predict_E sums to (DirichletPoly holds b(1): length >= 1)."""
    theta_eff = math.log(poly.length) / math.log(T) if T > 1 else 0.0
    per_spec = math.ceil(spec.alpha / _TWO_PI * math.log(2 * spec.alpha * T ** (1 + theta_eff))) + 1
    return max(per_spec, math.ceil(spec.alpha / _TWO_PI * math.log(T ** 2)))


def _tuples(spec: ProgressionSpec, T: float, poly: DirichletPoly, eps: float):
    """The tuples of ell = 1 .. _default_ell_max in order, where one exists;
    CapError, before any search, when that range exceeds _TUPLE_ELL_CAP."""
    ell_max = _default_ell_max(spec, T, poly)
    if ell_max > _TUPLE_ELL_CAP:
        raise CapError(f"the tuple search of ell = 1 .. {ell_max} exceeds the budget of "
                       f"{_TUPLE_ELL_CAP} values of ell")
    found = (find_tuple(spec, ell, T, eps) for ell in range(1, ell_max + 1))
    return [tup for tup in found if tup is not None]


def predict_E(spec: ProgressionSpec, window: SmoothWindow, T: float,
              poly: DirichletPoly, eps: float = DEFAULT_EPS) -> float:
    """Predicted discrete-minus-continuous correction: 4 * Re sum H(ell),
    every tuple's H from one _correction_integrals call."""
    _check_heights(spec, T)
    tuples = _tuples(spec, T, poly, eps)
    if not tuples:
        return 0.0
    return 4.0 * float(sum(_correction_integrals(tuples, spec, window, T, poly).real))


def predict_E_prime(spec: ProgressionSpec, window: SmoothWindow, T: float,
                    poly: DirichletPoly, eps: float = DEFAULT_EPS) -> float:
    """Predicted correction for the Dirichlet-polynomial-only second moment:

        2 * Re sum over ell of ((a/b)^(i*beta)/sqrt(ab)) * T * phi_hat(-T*nu) * F'(a,b).

    Poisson summation gives the pair (a, b) the share (a/b)^(i*beta)/sqrt(ab)
    * T * phi_hat(-T * nu), both T factors together, even though the compact
    display of the correction leaves the scaling implicit.  Every phi_hat
    comes from one window._phi_hats call.
    """
    terms = [(tup, F_prime(tup.a, tup.b, poly)) for tup in _tuples(spec, T, poly, eps)]
    terms = [(_tuple_phase(spec, tup), fp) for tup, fp in terms if fp != 0.0]
    if not terms:
        return 0.0
    hats = _phi_hats(window, [-T * nu for (nu, _), _ in terms])
    total = 0.0
    for ((_, pref), fp), hat in zip(terms, hats):
        total += 2.0 * (pref * T * hat * fp).real
    return total


# -- nonvanishing ------------------------------------------------------------------


@dataclass(frozen=True)
class NonvanishingReport:
    bound: float           # |I|^2 / (T*J), valid at finite T by Cauchy-Schwarz
    target: float          # the asymptotic theta/(theta+1) * phi_hat(0)
    moment_first: complex  # I
    moment_second: float   # J


def nonvanishing_bound(sample: ProgressionSample) -> NonvanishingReport:
    """Cauchy-Schwarz lower bound |I|^2/(T*J) on the proportion of sampled
    points where zeta * mollifier does not vanish, with the asymptotic
    target reported alongside.  I and J are the first and second twisted
    sums of the sample, whose polynomial must be a Mollifier;
    DegenerateDenominatorError when J is 0, as where no node has phi > 0."""
    moll = sample.poly
    if not isinstance(moll, Mollifier):
        raise ValueError("nonvanishing_bound needs a sample of a Mollifier")
    first = sample.twisted_sum(1)
    second = sample.twisted_sum(2)
    if second == 0.0:
        raise DegenerateDenominatorError("the second moment J is 0: the bound "
                                         "|I|^2 / (T*J) is undefined")
    bound = abs(first) ** 2 / (sample.T * second)
    target = moll.theta / (moll.theta + 1.0) * sample.window.plateau_mass
    return NonvanishingReport(bound=bound, target=target,
                              moment_first=first, moment_second=second)


def _check_threshold(threshold: float):
    """ValueError unless threshold >= 0; the CLI calls it before the sample."""
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")


def empirical_nonvanishing(sample: ProgressionSample, threshold: float) -> float:
    """Fraction of the sample's nodes ell (all of them, phi = 0 included) with
    |zeta(1/2 + i(alpha*ell + beta))| > threshold * (log ell)^(-1/2).

    At threshold 0 this reports 1.0: exact vanishing at a sampled point is
    undetectable in floating point.  At ell = 1 the bar is +inf for any
    threshold > 0.  ValueError for nodes ell < 1, where log ell < 0.
    """
    _check_threshold(threshold)
    if len(sample.ell) == 0:
        raise ValueError("empty progression window")
    if np.any(sample.ell < 1):
        raise ValueError("empirical_nonvanishing needs nodes ell >= 1")
    if threshold == 0.0:
        return float(np.mean(np.abs(sample.zeta) > 0.0))
    with np.errstate(divide="ignore"):  # (log 1)^(-1/2) = +inf
        cut = threshold * np.log(sample.ell.astype(float)) ** (-0.5)
    return float(np.mean(np.abs(sample.zeta) > cut))
