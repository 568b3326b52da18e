"""
Mollified first moment and the nonvanishing proportion
======================================================

The mollifier M flattens zeta on average: the windowed first moment of
zeta*M over a progression should sit near T * phi_hat(0).  Cauchy-Schwarz
then turns first and second moments into a lower bound on the proportion
of sample points where zeta does not vanish.
"""
import math

import numpy as np

import zetaprog as zp

window = zp.SmoothWindow()

# first moment at alpha = 1: deviation is a few units out of T*0.95
T = 500.0
spec1 = zp.ProgressionSpec(alpha=1.0)
moll = zp.mollifier_coeffs(T, 0.3)
print("mollifier coefficients b(n), n <= T^0.3 =", moll.length, ":")
ns, bs = moll.nonzero()
for n, b in zip(ns, bs):
    print(f"  b({n}) = {b:+.6f}")

I = zp.discrete_twisted_moment(spec1, window, T, moll, power=1)
ref = T * window.phi_hat(0.0).real
print(f"\nalpha=1:  I = {I:.4f}   T*phi_hat(0) = {ref:.2f}   "
      f"|deviation| = {abs(I - ref):.2f}")

# the symmetric point is different: every Poisson frequency lands on a
# power of two, where the convolution (1*b)(2^j) = ln2/(theta lnT) decays
# only like 1/ln T.  The deviation is ~0.83*T here and crosses 0.25*T
# around T ~ 2e9 -- visible structure, not noise.
sym = zp.ProgressionSpec.from_rational(1, 2, 1)
I2 = zp.discrete_twisted_moment(sym, window, T, moll, power=1)
print(f"sym:      I = {I2:.4f}   deviation = {abs(I2 - ref):.2f} "
      f"(~{abs(I2 - ref) / T:.2f}*T; decays like 1/ln T)")

# the same 2-adic resonance shows up with no zeta at all: the pure
# polynomial average sum phi |B|^2 acquires a discrete-minus-continuous
# correction that predict_E_prime gives in closed form
ell = np.arange(math.ceil(T), math.floor(2 * T) + 1, dtype=float)
disc = float(np.sum(window.phi(ell / T)
                    * np.abs(zp.eval_poly_grid(moll, sym.alpha * ell)) ** 2))
t = np.linspace(T, 2 * T, 2_000_001)
cont = float(np.trapezoid(window.phi(t / T)
                          * np.abs(zp.eval_poly_grid(moll, sym.alpha * t)) ** 2, t))
print(f"\npolynomial-only closure at sym: measured {disc - cont:+.4f}   "
      f"predicted {zp.predict_E_prime(sym, window, T, moll):+.4f}")

# nonvanishing: |I|^2 / (T*J) lower-bounds the nonvanishing proportion.
# One sample of zeta and the mollifier on the progression serves I, J and
# the empirical count below.
T = 2000.0
sample = zp.sample_progression(spec1, window, T, zp.mollifier_coeffs(T, 0.4))
rep = zp.nonvanishing_bound(sample)
print(f"\nnonvanishing at T={T:g}, theta=0.4:")
print(f"  |I|^2/(T*J) = {rep.bound:.4f}")
print(f"  asymptotic target theta/(theta+1)*phi_hat(0) = {rep.target:.4f}")
print(f"  I = {rep.moment_first:.3f},  J = {rep.moment_second:.2f}")

# empirical check: count points where |zeta| clears a (log ell)^(-1/2) bar
for thr in (0.05, 0.1, 0.5, 1.0):
    frac = zp.empirical_nonvanishing(sample, thr)
    print(f"  fraction with |zeta| > {thr:4.2f}*(ln ell)^(-1/2): {frac:.4f}")

# theta controls the mollifier length; longer mollifiers push the bound up
print("\nbound as a function of theta:")
for theta in (0.1, 0.2, 0.3, 0.4, 0.45):
    moll = zp.mollifier_coeffs(T, theta)
    b = zp.nonvanishing_bound(zp.sample_progression(spec1, window, T, moll)).bound
    print(f"  theta={theta:4.2f}  length={int(T ** theta):3d}  bound={b:.4f}")
