"""Dirichlet polynomials, twisted moments, and the correction machinery.

The discrete second moment over a progression and its continuous twin,

    sum over ell of |zeta * B|^2 (1/2 + i(alpha*ell + beta)) * phi(ell/T)
    vs the same integrand integrated in t over [T, 2T],

differ by a correction E that the tuple machinery predicts:

    E ~ 4 * Re sum over ell > 0 of H(ell),
    H(ell) = ((a/b)^(i*beta)/sqrt(ab))
             * integral of phi(t/T) e^(-2*pi*i*t*nu(ell)) F(a, b, t) dt,

with (a, b) the diophantine tuple of the ell-th resonance, nu(ell) its tiny
frequency defect, and F assembled from the arithmetic transform H(x).  The
companion first-moment and Dirichlet-polynomial-only corrections (predict_E
and predict_E_prime) follow the Poisson-summation convention: the transform
of the lattice comb contributes T * phi_hat(T * frequency) -- note the
visible T scaling on both factors, which dimensional analysis of the lattice
sum forces even where display formulas leave it implicit.

One sampler, sample_progression, evaluates zeta*B and phi(ell/T) at nodes
ell of the progression; every consumer reduces a sample over its phi > 0
nodes, and the discrete moments, the nonvanishing bound and the resonator
search share one sample of the integers in [T, 2T].  The continuous moment
samples the dyadic grid ell = j / 2^k, a trapezoid rule whose first alias
frequency 2^k starts above every tuple frequency (the bound _default_ell_max
that predict_E also sums to); each halving samples only the new midpoints,
until two levels agree to 1e-4 relative (QuadratureError past the fourth).
The same zeta engine feeds both sides, so engine error cancels in E.
"""
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import zeta as zmod
from .dioph import DEFAULT_EPS, ProgressionSpec, find_tuple
from .errors import CapError, QuadratureError
from .kernels import DEFAULT_CONTOUR, ContourConfig, h_many, w_many
from .quadrature import gl_panels
from .sieves import mobius_table
from .window import SmoothWindow

__all__ = ["DirichletPoly", "Mollifier", "MomentReport", "NonvanishingReport",
           "ProgressionSample", "sample_progression",
           "mollifier_coeffs", "eval_poly", "eval_poly_grid",
           "discrete_twisted_moment", "continuous_twisted_moment",
           "F_func", "F_func_series", "F_prime", "H_ell",
           "predict_E", "predict_E_prime", "moment_report",
           "nonvanishing_bound", "empirical_nonvanishing", "CapWarning"]

_TWO_PI = 2.0 * math.pi
_TWO_PI_LD = np.longdouble(2) * np.arccos(np.longdouble(-1))

_COEFF_MEMORY_CAP = 50_000_000


class CapWarning(UserWarning):
    """A truncated series' tail contribution is not provably negligible."""


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


def mollifier_coeffs(T: float, theta: float) -> Mollifier:
    if T < 100.0:
        raise ValueError("mollifier_coeffs requires T >= 100")
    if not (0.0 < theta < 0.5):
        raise ValueError("theta must lie in (0, 1/2)")
    length = max(int(np.floor(T ** theta)), 1)
    if length > _COEFF_MEMORY_CAP:
        raise MemoryError(f"T^theta = {length} exceeds the coefficient memory cap")
    mu = mobius_table(length)
    log_cap = theta * math.log(T)
    vals = np.zeros(length + 1)
    n = np.arange(1, length + 1)
    vals[1:] = mu[1:] * (1.0 - np.log(n) / log_cap)
    return Mollifier(values=vals, theta=theta, T=T)


def eval_poly(poly: DirichletPoly, t: float) -> complex:
    """B(1/2 + it) by compensated summation (phases reduced in 80-bit)."""
    t = float(t)
    if t < 0.0:
        return np.conj(eval_poly(poly, -t))
    ns, bs = poly.nonzero()
    if len(ns) == 0:
        return 0j
    ph = np.mod(np.longdouble(t) * np.log(ns.astype(np.longdouble)), _TWO_PI_LD)
    mag = bs * ns.astype(float) ** (-0.5)
    re = math.fsum(mag * np.cos(ph).astype(float))
    im = -math.fsum(mag * np.sin(ph).astype(float))
    return complex(re, im)


def eval_poly_grid(poly: DirichletPoly, ts) -> np.ndarray:
    """B(1/2 + it) over an array of t (outer-product path)."""
    ts = np.asarray(ts, dtype=float)
    ns, bs = poly.nonzero()
    if len(ns) == 0:
        return np.zeros(len(ts), dtype=complex)
    mag = bs * ns.astype(float) ** (-0.5)
    return np.exp(-1j * np.outer(ts, np.log(ns.astype(float)))) @ mag.astype(complex)


# -- the progression sample ------------------------------------------------------


# Most nodes the trapezoid's start level may hold.  The start density grows
# with alpha, and the fourth level adds four times the start's nodes, each
# holding a few hundred bytes of working arrays: past this a large alpha
# would allocate gigabytes before the first sum.
_TRAPEZOID_START_NODE_CAP = 1 << 21

# Most nodes one sample may hold: the fourth trapezoid level's midpoints, the
# largest node set the continuous moment can request.
_SAMPLE_NODE_CAP = 4 * _TRAPEZOID_START_NODE_CAP


def _check_power(power: int):
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")


def _check_T(T: float):
    if not (0.0 < T < math.inf):
        raise ValueError("T must be positive and finite")


@dataclass(frozen=True, eq=False)
class ProgressionSample:
    """Per node ell of a progression, phi = 0 nodes included: t = alpha*ell +
    beta, phi = phi(ell/T), zeta = zeta(1/2 + it) and B = B(1/2 + it).
    Every reduction sums over the phi > 0 nodes only."""

    spec: ProgressionSpec
    window: SmoothWindow
    T: float
    poly: DirichletPoly
    ell: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    zeta: np.ndarray
    B: np.ndarray

    def twisted_sum(self, power: int):
        """sum over the phi > 0 nodes of phi * zeta*B (power=1, complex) or of
        phi * |zeta*B|^2 (power=2, real)."""
        _check_power(power)
        live = self.phi > 0.0
        w = self.phi[live]
        vals = self.zeta[live] * self.B[live]
        if power == 2:
            return float(np.sum(w * (vals * np.conj(vals)).real))
        return complex(np.sum(w * vals))


def sample_progression(spec: ProgressionSpec, window: SmoothWindow, T: float,
                       poly: DirichletPoly, ell: Optional[np.ndarray] = None
                       ) -> ProgressionSample:
    """Evaluate zeta and B once at every node ell (default: the integers in
    [T, 2T]) of the progression 1/2 + i(alpha*ell + beta).  Raises ValueError
    unless T is positive and finite, and CapError, before allocating, past
    _SAMPLE_NODE_CAP nodes."""
    _check_T(T)
    count = math.floor(2.0 * T) - math.ceil(T) + 1 if ell is None else len(ell)
    if count > _SAMPLE_NODE_CAP:
        raise CapError(f"progression sample of {count} nodes exceeds the budget of "
                       f"{_SAMPLE_NODE_CAP} nodes")
    if ell is None:
        ell = np.arange(math.ceil(T), math.floor(2.0 * T) + 1, dtype=np.int64)
    t = spec.alpha * ell + spec.beta
    return ProgressionSample(spec=spec, window=window, T=T, poly=poly, ell=ell, t=t,
                             phi=window.phi(ell / T), zeta=zmod.zeta_critical_grid(t),
                             B=eval_poly_grid(poly, t))


# -- moments -------------------------------------------------------------------


def discrete_twisted_moment(spec: ProgressionSpec, window: SmoothWindow, T: float,
                            poly: DirichletPoly, power: int):
    """sum over integers ell in [T, 2T] of (zeta*B)(1/2+i(alpha*ell+beta)) weighted:

    power=2 gives the real sum of |zeta*B|^2 * phi(ell/T); power=1 the complex
    sum of zeta*B*phi(ell/T).
    """
    return sample_progression(spec, window, T, poly).twisted_sum(power)


def continuous_twisted_moment(spec: ProgressionSpec, window: SmoothWindow, T: float,
                              poly: DirichletPoly, power: int):
    """integral over ell in [T, 2T] of the same integrand, to 1e-4 relative.

    The rule is the trapezoid on the dyadic grid ell = j / 2^k.  phi(ell/T)
    vanishes with all its derivatives at both ends, so the rule needs no
    endpoint weights and converges spectrally once the step 2^-k puts the
    first alias frequency 2^k above every frequency the integrand carries.
    In ell those are alpha*log(a/b)/(2*pi) for the ratios a/b the integrand
    mixes, the diophantine tuple frequencies among them; _default_ell_max
    (the bound predict_E sums to) lies above all of them, so 2^k is the
    smallest power of two strictly above it.  The start step comes from that
    bound, not from the refinement check: a frequency at an even multiple of
    the step aliases on both levels a halving compares, so two agreeing
    levels do not prove the step fine enough.

    Each level samples the progression at its phi > 0 nodes: the start level
    at all of them, each halving of the step only at the new odd-j midpoints,
    added to the running sum.  Two successive levels agreeing to 1e-4
    relative are accepted; a fourth level that still disagrees raises
    QuadratureError, as does a start step needing more than
    _TRAPEZOID_START_NODE_CAP nodes.
    """
    _check_power(power)
    _check_T(T)
    per_unit = 1 << _default_ell_max(spec, T, poly).bit_length()
    lo, hi = math.floor(T * per_unit), math.ceil(2.0 * T * per_unit)
    if hi - lo + 1 > _TRAPEZOID_START_NODE_CAP:
        raise QuadratureError(
            f"continuous_twisted_moment needs {per_unit} nodes per unit ell over "
            f"[{T!r}, {2.0 * T!r}], above the budget of {_TRAPEZOID_START_NODE_CAP} nodes")

    def level_sum(ell):  # the grid reaches past [T, 2T]; nodes with phi = 0 add nothing
        live = ell[window.phi(ell / T) > 0.0]
        return sample_progression(spec, window, T, poly, live).twisted_sum(power)

    j = np.arange(lo, hi + 1, dtype=np.int64)
    val = level_sum(j / per_unit) / per_unit
    for _ in range(3):
        per_unit, lo, hi = 2 * per_unit, 2 * lo, 2 * hi
        mid = np.arange(lo + 1, hi, 2, dtype=np.int64)
        new = 0.5 * val + level_sum(mid / per_unit) / per_unit
        if abs(new - val) <= 1e-4 * max(abs(new), 1e-12):
            return new
        val = new
    raise QuadratureError("continuous_twisted_moment did not converge at 1e-4 relative")


# -- the correction machinery ---------------------------------------------------


def _f_pair_tables(a: int, b: int, poly: DirichletPoly):
    """Constants of the (m, n) double sum: weights b(m)b(n)g/(mn) and the
    factors g^2/(2*pi*m*a*n*b) multiplying alpha*t+beta inside H."""
    ns, bs = poly.nonzero()
    weights = []
    consts = []
    for m, bm in zip(ns, bs):
        for n, bn in zip(ns, bs):
            g = math.gcd(int(m) * a, int(n) * b)
            weights.append(bm * bn * g / (m * n))
            consts.append(g * g / (_TWO_PI * m * a * n * b))
    return np.array(weights), np.array(consts)


def _F_batch(a: int, b: int, ts, poly: DirichletPoly, spec: ProgressionSpec,
             contour: ContourConfig) -> np.ndarray:
    tt = spec.alpha * np.asarray(ts, dtype=float) + spec.beta
    weights, consts = _f_pair_tables(a, b, poly)
    X = np.outer(consts, tt)
    H = h_many(X.ravel(), contour).reshape(X.shape)
    return weights @ H


def F_func(a: int, b: int, t: float, poly: DirichletPoly, spec: ProgressionSpec,
           contour: ContourConfig = DEFAULT_CONTOUR) -> float:
    """The gcd-collapsed double sum

        F(a,b,t) = sum_{m,n <= length} b(m)b(n)/(mn) * g * H(tt*g^2/(2*pi*m*a*n*b)),

    with g = gcd(m*a, n*b) and tt = alpha*t + beta.  For the constant
    polynomial this is a single term H(tt/(2*pi*a*b))."""
    if math.gcd(a, b) != 1 or a * b <= 1:
        raise ValueError("need coprime (a, b) with a*b > 1")
    return float(_F_batch(a, b, np.array([float(t)]), poly, spec, contour)[0])


def F_func_series(a: int, b: int, t: float, poly: DirichletPoly,
                  spec: ProgressionSpec, r_cap: int = 10_000,
                  mn_cap: int = 1_000_000) -> float:
    """The untransformed series for F (the W-side of the identity):

        sum_{r>=1} (1/r) sum_{h,k} b(k) b(h) sum_{mk=ar, nh=br} W(2*pi*m*n/tt),

    truncated at r <= r_cap and m*n <= mn_cap.  Intended as the independent
    oracle for F_func; warns if the last decade of r still contributes more
    than 1e-6 relative (caps insufficient).
    """
    if math.gcd(a, b) != 1 or a * b <= 1:
        raise ValueError("need coprime (a, b) with a*b > 1")
    tt = spec.alpha * float(t) + spec.beta
    ns, bs = poly.nonzero()
    total = 0.0
    tail = 0.0
    decade = r_cap // 10
    for k, bk in zip(ns, bs):
        k = int(k)
        k1 = k // math.gcd(a, k)
        for h, bh in zip(ns, bs):
            h = int(h)
            h1 = h // math.gcd(b, h)
            step = k1 * h1 // math.gcd(k1, h1)
            rs = np.arange(step, r_cap + 1, step, dtype=np.int64)
            if len(rs) == 0:
                continue
            mn = (a * rs // k) * (b * rs // h)
            keep = mn <= mn_cap
            rs, mn = rs[keep], mn[keep]
            if len(rs) == 0:
                continue
            terms = bk * bh * w_many(_TWO_PI * mn / tt) / rs
            total += float(np.sum(terms))
            tail += float(np.sum(terms[rs > decade]))
    if abs(tail) > 1e-6 * max(abs(total), 1e-30):
        warnings.warn(
            f"F_func_series caps (r<={r_cap}, mn<={mn_cap}) may be insufficient: "
            f"last r-decade contributes {tail:.3e} against total {total:.3e}",
            CapWarning)
    return total


def F_prime(a: int, b: int, poly: DirichletPoly) -> float:
    """F'(a, b) = sum_{r >= 1} b(a*r) b(b*r) / r (finite: b vanishes past length)."""
    if math.gcd(a, b) != 1:
        raise ValueError("need coprime (a, b)")
    rmax = poly.length // max(a, b)
    return math.fsum(poly.coeff(a * r) * poly.coeff(b * r) / r
                     for r in range(1, rmax + 1))


def _tuple_frequency(spec: ProgressionSpec, tup) -> float:
    """nu(ell) = alpha*log(a/b)/(2*pi) - ell; exactly 0 on the symbolic rational path."""
    rf = spec.rational_form
    if (rf is not None and not rf.candidate and tup.ell % rf.ell0 == 0
            and tup.a == rf.m ** (tup.ell // rf.ell0)
            and tup.b == rf.n ** (tup.ell // rf.ell0)):
        return 0.0
    return spec.alpha * math.log(tup.a / tup.b) / _TWO_PI - tup.ell


def H_ell(ell: int, spec: ProgressionSpec, window: SmoothWindow, T: float,
          poly: DirichletPoly, contour: ContourConfig = DEFAULT_CONTOUR,
          eps: float = DEFAULT_EPS) -> complex:
    """The ell-th correction integral (0 when no tuple exists):

        ((a/b)^(i*beta)/sqrt(ab)) * integral over [T,2T] of
            phi(t/T) * exp(-2*pi*i*t*nu) * F(a, b, t) dt.

    The frequency nu is below T^(eps-1) by the tuple condition, so the
    integrand is slowly modulated; a fixed-panel Gauss-Legendre rule with one
    doubling check suffices.
    """
    tup = find_tuple(spec, ell, T, eps)
    if tup is None:
        return 0j
    nu = _tuple_frequency(spec, tup)
    pref = np.exp(1j * spec.beta * math.log(tup.a / tup.b)) / math.sqrt(tup.a * tup.b)
    prev = None
    for panels in (64, 128, 256):
        t, wq = gl_panels(float(T), 2.0 * float(T), panels, 10)
        integrand = (window.phi(t / T) * np.exp(-2j * np.pi * t * nu)
                     * _F_batch(tup.a, tup.b, t, poly, spec, contour))
        val = complex(np.sum(wq * integrand))
        if prev is not None and abs(val - prev) <= 1e-5 * max(abs(val), 1e-9 * T):
            return pref * val
        prev = val
    raise QuadratureError(f"H_ell({ell}) quadrature did not stabilize")


def _default_ell_max(spec: ProgressionSpec, T: float, poly: DirichletPoly) -> int:
    theta_eff = math.log(max(poly.length, 1)) / math.log(T) if T > 1 else 0.0
    per_spec = math.ceil(spec.alpha / _TWO_PI * math.log(2 * spec.alpha * T ** (1 + theta_eff))) + 1
    return max(per_spec, _required_ell_max(spec, T))


def _required_ell_max(spec: ProgressionSpec, T: float) -> int:
    return math.ceil(spec.alpha / _TWO_PI * math.log(T ** 2))


def predict_E(spec: ProgressionSpec, window: SmoothWindow, T: float,
              poly: DirichletPoly, ell_max: Optional[int] = None,
              contour: ContourConfig = DEFAULT_CONTOUR,
              eps: float = DEFAULT_EPS) -> float:
    """Predicted discrete-minus-continuous correction: 4 * Re sum H(ell)."""
    if ell_max is None:
        ell_max = _default_ell_max(spec, T, poly)
    elif ell_max < _required_ell_max(spec, T):
        raise ValueError(
            f"ell_max={ell_max} cannot cover all contributing ell "
            f"(need >= {_required_ell_max(spec, T)})")
    total = 0j
    for ell in range(1, ell_max + 1):
        total += H_ell(ell, spec, window, T, poly, contour, eps)
    return 4.0 * total.real


def predict_E_prime(spec: ProgressionSpec, window: SmoothWindow, T: float,
                    poly: DirichletPoly, ell_max: Optional[int] = None,
                    eps: float = DEFAULT_EPS) -> float:
    """Predicted correction for the Dirichlet-polynomial-only second moment:

        2 * Re sum over ell of ((a/b)^(i*beta)/sqrt(ab)) * T * phi_hat(T*nu) * F'(a,b).

    The transform is evaluated as T * phi_hat(T * nu): the Poisson summation
    behind the prediction produces both T factors together, even though the
    compact display of the correction leaves the scaling implicit.
    """
    if ell_max is None:
        ell_max = _default_ell_max(spec, T, poly)
    elif ell_max < _required_ell_max(spec, T):
        raise ValueError(
            f"ell_max={ell_max} cannot cover all contributing ell "
            f"(need >= {_required_ell_max(spec, T)})")
    total = 0.0
    for ell in range(1, ell_max + 1):
        tup = find_tuple(spec, ell, T, eps)
        if tup is None:
            continue
        fp = F_prime(tup.a, tup.b, poly)
        if fp == 0.0:
            continue
        nu = _tuple_frequency(spec, tup)
        pref = np.exp(1j * spec.beta * math.log(tup.a / tup.b)) / math.sqrt(tup.a * tup.b)
        total += 2.0 * (pref * T * window.phi_hat(T * nu) * fp).real
    return total


# -- reports and nonvanishing ---------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    discrete: float
    continuous: float
    E: float
    predicted_E: float
    ratio: float
    params: dict


def moment_report(sample: ProgressionSample, predict: bool = True,
                  contour: ContourConfig = DEFAULT_CONTOUR,
                  eps: float = DEFAULT_EPS) -> MomentReport:
    """Second-moment comparison bundle for the integer sample: measured
    discrete and continuous moments, their difference E, and (optionally)
    the tuple-machinery prediction for E."""
    spec, window, T, poly = sample.spec, sample.window, sample.T, sample.poly
    disc = sample.twisted_sum(2)
    cont = continuous_twisted_moment(spec, window, T, poly, power=2)
    pred = predict_E(spec, window, T, poly, contour=contour, eps=eps) if predict else float("nan")
    params = {
        "alpha": spec.alpha, "beta": spec.beta, "T": T, "edge": window.edge,
        "poly_length": poly.length,
        "poly_kind": type(poly).__name__,
    }
    if isinstance(poly, Mollifier):
        params["theta"] = poly.theta
    return MomentReport(discrete=disc, continuous=cont, E=disc - cont,
                        predicted_E=pred, ratio=disc / cont, params=params)


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
    sums of the sample, whose polynomial must be a Mollifier."""
    moll = sample.poly
    if not isinstance(moll, Mollifier):
        raise ValueError("nonvanishing_bound needs a sample of a Mollifier")
    first = sample.twisted_sum(1)
    second = sample.twisted_sum(2)
    bound = abs(first) ** 2 / (sample.T * second)
    target = moll.theta / (moll.theta + 1.0) * sample.window.plateau_mass
    return NonvanishingReport(bound=bound, target=target,
                              moment_first=first, moment_second=second)


def empirical_nonvanishing(sample: ProgressionSample, threshold: float) -> float:
    """Fraction of the sample's nodes ell (all of them, phi = 0 included) with
    |zeta(1/2 + i(alpha*ell + beta))| > threshold * (log ell)^(-1/2).

    At threshold 0 this reports 1.0: exact vanishing at a sampled point is
    undetectable in floating point.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    if len(sample.ell) == 0:
        raise ValueError("empty progression window")
    cut = threshold * np.log(sample.ell.astype(float)) ** (-0.5)
    return float(np.mean(np.abs(sample.zeta) > cut))
