"""
The rational dichotomy and the correction factor delta
======================================================

Sampling |zeta|^2 at 1/2 + i*(alpha*ell + beta) either reproduces the
continuous mean (generic alpha) or inflates it by 1 + delta(alpha, beta)
(when exp(2*pi/alpha) is rational).  This script walks the dichotomy.
"""
import math

import zetaprog as zp

# the symmetric point: exp(2*pi/alpha) = 2, i.e. alpha = 2*pi/ln 2
sym = zp.ProgressionSpec.from_rational(1, 2, 1)
print("alpha =", sym.alpha)
print("delta =", zp.delta(sym))
print("2 + 2*sqrt(2) =", 2 + 2 * math.sqrt(2))

# a different rational point, exp(2*pi/alpha) = 9/4; here delta is a
# rational number, 2*(3/2) repeating through the closed form:
#   (2*sqrt(mn) - 2) / (mn + 1 - 2*sqrt(mn))  at beta = 0
spec94 = zp.ProgressionSpec.from_rational(1, 9, 4)
print("\ndelta(9/4) =", zp.delta(spec94), "  (= 10/25 exactly)")

# beta shifts rotate the cosine in the closed form.  At beta = pi/ln 2 the
# symmetric-point correction flips sign: cos(beta*ln 2) = cos(pi) = -1.
flipped = zp.ProgressionSpec.from_rational(1, 2, 1, beta=math.pi / math.log(2.0))
print("delta(sym, beta=pi/ln2) =", zp.delta(flipped))
print("2 - 2*sqrt(2)           =", 2 - 2 * math.sqrt(2))

# sweep beta through one period
print("\nbeta/ln2-period sweep:")
for k in range(9):
    beta = k * math.pi / (4 * math.log(2.0))
    s = zp.ProgressionSpec.from_rational(1, 2, 1, beta=beta)
    print(f"  beta = {beta:8.4f}   delta = {zp.delta(s):+.6f}")

# generic alpha: no rational form, delta = 0
print("\ndelta(alpha=1) =", zp.delta(zp.ProgressionSpec(alpha=1.0)))
print("delta(alpha=pi) =", zp.delta(zp.ProgressionSpec(alpha=math.pi)))

# detect_rational recovers (ell0, m, n) from the float alpha alone.  A float
# cannot certify exact rationality, so the result is a plain triple, not a
# RationalForm: the float spec keeps delta = 0, and trusting the detection
# is the explicit step ProgressionSpec.from_rational(*found).
float_spec = zp.ProgressionSpec(alpha=sym.alpha)
found = zp.detect_rational(float_spec, ell_max=4, den_max=50)
print("\ndetected from float alpha:", found)
print("delta of the float spec:", zp.delta(float_spec))
print("delta once trusted:", zp.delta(zp.ProgressionSpec.from_rational(*found)))
