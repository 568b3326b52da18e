"""
Diophantine tuples behind the discrete-moment corrections
=========================================================

A progression contributes off-diagonal mass exactly when some fraction a/b
approximates exp(2*pi*ell/alpha) to quality T^(eps-1).  find_tuple hunts
for the minimal such fraction under the denominator budget
b < T^(1/2-eps) * exp(-pi*ell/alpha).
"""
import math

import zetaprog as zp

# rational progressions: the tuple is the exact power, quality 0
sym = zp.ProgressionSpec.from_rational(1, 2, 1)
for ell in (1, 2, 3, 4):
    tup = zp.find_tuple(sym, ell, T=1e4)
    print(f"sym    ell={ell}: {tup}")

spec32 = zp.ProgressionSpec.from_rational(1, 3, 2)
for ell in (1, 2):
    print(f"3/2    ell={ell}: {zp.find_tuple(spec32, ell, T=1e4)}")

# generic alpha: the budget shrinks like exp(-pi*ell/alpha) and the search
# comes back empty at desk scale -- that emptiness IS the theorem's input
spec1 = zp.ProgressionSpec(alpha=1.0)
for ell in (1, 2, 3):
    print(f"alpha=1 ell={ell} T=1e6:", zp.find_tuple(spec1, ell, T=1e6))

# under the hood: every fraction of the tolerance interval, listed by
# Stern-Brocot descent.  rational_approximations exposes them.
x = math.exp(2 * math.pi)        # ~535.49
print("\nbest rational approximations to exp(2*pi) with b <= 40:")
for a, b, q in zp.rational_approximations(x, 40, rel_tol=1e-3):
    print(f"  {a:6d}/{b:<3d}  quality {float(q):.3e}")

# the Waldschmidt transcendence floor: any fraction's defect sits far above
# it.  Logs only -- the raw bound underflows every float.
print("\nWaldschmidt floor (log scale) vs the actual defect of round(e^{2 pi ell}):")
for ell in (1, 2, 3):
    a = round(math.exp(2 * math.pi * ell))
    # log |e^{2 pi ell} - a| via the relative defect
    defect = math.log(abs(math.exp(2 * math.pi * ell) - a))
    floor = zp.waldschmidt_bound(2 * ell, a)
    print(f"  ell={ell}:  log-defect {defect:8.2f}   floor {floor:.3e}")

# the denominator budget T^(1/2-eps)*exp(-pi/alpha) gates admission: the
# exact fraction 10/7 only fits once T clears ~112
spec107 = zp.ProgressionSpec.from_rational(1, 10, 7)
for T in (1e2, 2e2, 1e4):
    print(f"\n10/7 at T={T:g}:" if T == 1e2 else f"10/7 at T={T:g}:",
          zp.find_tuple(spec107, 1, T))
