"""Dirichlet polynomials and correction terms by routes the package does not
take, kept as references for the tests: B at one height by compensated
summation, the ell-th correction integral on its own, and F by its W series
in place of the gcd-collapsed H sum."""
import math
import warnings

import numpy as np

from zetaprog import DirichletPoly, ProgressionSpec, SmoothWindow, find_tuple, w_many
from zetaprog import moments as mmod
from zetaprog import zeta as zmod
from zetaprog.dioph import DEFAULT_EPS

_TWO_PI = 2.0 * math.pi


class CapWarning(UserWarning):
    """A truncated series' tail contribution is not provably negligible."""


def eval_poly(poly: DirichletPoly, t: float) -> complex:
    """B(1/2 + it) through zeta._dirichlet_sum: compensated summation, the
    phases reduced in 80-bit; negative t by conjugation."""
    t = float(t)
    if t < 0.0:
        return eval_poly(poly, -t).conjugate()
    ns, bs = poly.nonzero()
    if len(ns) == 0:
        return 0j
    return zmod._dirichlet_sum(ns, bs * ns.astype(float) ** (-0.5), t)


def H_ell(ell: int, spec: ProgressionSpec, window: SmoothWindow, T: float,
          poly: DirichletPoly, eps: float = DEFAULT_EPS) -> complex:
    """The ell-th correction integral (0 when no tuple exists):

        ((a/b)^(i*beta)/sqrt(ab)) * integral over [T,2T] of
            phi(t/T) * exp(-2*pi*i*t*nu) * F(a, b, t) dt,

    the one-tuple case of moments._correction_integrals.  ValueError when
    the heights alpha*T*x + beta reach 0 on [1, 2], before the tuple search.
    """
    mmod._check_heights(spec, T)
    tup = find_tuple(spec, ell, T, eps)
    if tup is None:
        return 0j
    return complex(mmod._correction_integrals([tup], spec, window, T, poly)[0])


def F_func_series(a: int, b: int, t: float, poly: DirichletPoly,
                  spec: ProgressionSpec, r_cap: int = 10_000,
                  mn_cap: int = 1_000_000) -> float:
    """The untransformed series for F (the W-side of the identity):

        sum_{r>=1} (1/r) sum_{h,k} b(k) b(h) sum_{mk=ar, nh=br} W(2*pi*m*n/tt),

    truncated at r <= r_cap and m*n <= mn_cap.  The independent oracle for
    F_func; warns with CapWarning if the last decade of r still contributes
    more than 1e-6 relative (caps insufficient).
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
            mn = (a * rs // k) * (b * rs // h)
            keep = mn <= mn_cap
            rs, mn = rs[keep], mn[keep]
            terms = bk * bh * w_many(_TWO_PI * mn / tt) / rs
            total += float(np.sum(terms))
            tail += float(np.sum(terms[rs > decade]))
    if abs(tail) > 1e-6 * max(abs(total), 1e-30):
        warnings.warn(
            f"F_func_series caps (r<={r_cap}, mn<={mn_cap}) may be insufficient: "
            f"last r-decade contributes {tail:.3e} against total {total:.3e}",
            CapWarning)
    return total
