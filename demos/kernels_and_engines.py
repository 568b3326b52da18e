"""
The smooth window, the kernels, and the zeta engines
====================================================

Everything upstream of the moments: the C-infinity window phi and its
transform, the W kernel in closed form and the H kernel by contour
quadrature with its Chebyshev table, and the two zeta engines
(Euler-Maclaurin and Riemann-Siegel) on a progression of heights.
"""
import math

import numpy as np

import zetaprog as zp

# --- the window -----------------------------------------------------------
w = zp.SmoothWindow()            # edge = 0.05
print("phi(1.0) =", w.phi(1.0), "  phi(1.5) =", w.phi(1.5),
      "  phi(2.0) =", w.phi(2.0))
print("plateau_mass =", w.plateau_mass, " (= 1 - edge exactly)")

# phi_hat decays faster than any power; the dips at multiples of 20 are
# exact zeros (the support is exactly 20 edge-widths, so the two ramps
# cancel a full period apart)
print("\n|phi_hat(xi)|:")
for xi in (0.0, 5.0, 19.9, 20.0, 30.7, 100.5, 333.3):
    print(f"  xi={xi:6.1f}   {abs(w.phi_hat(xi)):.3e}")

# --- the kernels ------------------------------------------------------------
# W(x) = (1/2) erfc(ln x / 2): Gaussian decay in ln x, NOT a power law
print("\nW(x):")
for x in (0.01, 1.0, 4 * math.pi, 100.0):
    print(f"  W({x:8.3f}) = {zp.eval_W(x):.6e}")

# H(x) = sum_r W(r^2/x)/r crosses over to its asymptote (ln x)/2 + gamma
print("\nH(x) vs (ln x)/2 + gamma:")
for x in (1.0, 20.0, 300.0, 1e4, 1e8):
    asym = 0.5 * math.log(x) + 0.5772156649015329
    print(f"  H({x:8.0f}) = {zp.eval_H(x):12.8f}   asymptote {asym:12.8f}")

# the vectorized Chebyshev route for H agrees with the scalar contour quadrature
xs = np.geomspace(0.5, 5e3, 7)
print("\nmax |h_many - eval_H| on a log grid:",
      np.max(np.abs(zp.h_many(xs) - [zp.eval_H(float(x)) for x in xs])))

# --- zeta engines -----------------------------------------------------------
# Euler-Maclaurin is the reference; on a progression the Riemann-Siegel
# engine takes over above t = 2000 where the main sum would get expensive
t = 1000.0
print("\nzeta(1/2 + 1000i):")
print("  EM: ", zp.zeta_em(0.5 + 1j * t))

t0, h = 5000.0, 45000.0
print("progression 5000, 50000 (Riemann-Siegel above t=2000):",
      zp.zeta_on_progression(t0, h, 2))
print("scalar EM at the same heights:                       ",
      np.array([zp.zeta_em(0.5 + 1j * t) for t in (t0, t0 + h)]))

# the approximate functional equation squared: cheap |zeta|^2, relative
# error ~2% at the low end of [1e3, 1e4] and well under 1% above
print("\nAFE |zeta|^2 vs direct:")
for t in (1500.0, 5000.0, 9000.0):
    afe = zp.afe_square(t)
    direct = abs(zp.zeta_em(0.5 + 1j * t)) ** 2
    print(f"  t={t:7.0f}   afe={afe:9.5f}   direct={direct:9.5f}   "
          f"rel {abs(afe - direct) / (1 + direct):.2e}")

# hard accuracy cap: the engines refuse t where the error budget breaks
try:
    zp.zeta_em(0.5 + 3e6j)
except zp.AccuracyError as e:
    print("\nzeta_em(0.5 + 3e6 i) raises AccuracyError:", e)
