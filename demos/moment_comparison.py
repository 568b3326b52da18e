"""
Discrete vs continuous second moment, and closing the gap
=========================================================

The discrete sum sum_ell phi(ell/T) |zeta M|^2 over a progression is
compared against its continuous counterpart.  At alpha = 1 they track
each other; at the symmetric point the discrete sum is inflated, and
predict_E reproduces the measured excess from the diophantine tuples.

Runtime: ~0.5 s on 2 cores, import included (the T=2000 grids run through the
Riemann-Siegel engine).
"""
import math
import time

import zetaprog as zp

window = zp.SmoothWindow()
T = 2000.0
one = zp.DirichletPoly.one()
moll = zp.mollifier_coeffs(T, 0.3)

# --- generic sampling: alpha = 1 ----------------------------------------
spec1 = zp.ProgressionSpec(alpha=1.0)
t0 = time.time()
# one call: the continuous moment, and the integer sample whose twisted
# sum is the discrete moment, each node evaluated once
c, ints = zp.continuous_twisted_moment(spec1, window, T, one, power=2)
d = ints.twisted_sum(2)
print(f"alpha=1, plain |zeta|^2:   disc={d:10.2f}  cont={c:10.2f}  "
      f"rel gap {abs(d - c) / c:.4f}")

c, ints = zp.continuous_twisted_moment(spec1, window, T, moll, power=2)
d = ints.twisted_sum(2)
print(f"alpha=1, mollified:        disc={d:10.2f}  cont={c:10.2f}  "
      f"rel gap {abs(d - c) / c:.4f}")

# --- the symmetric point: the (1 + delta) inflation ----------------------
sym = zp.ProgressionSpec.from_rational(1, 2, 1)
c_sym, sym_ints = zp.continuous_twisted_moment(sym, window, T, one, power=2)
d = sym_ints.twisted_sum(2)
print(f"\nsym, plain |zeta|^2:       disc={d:10.2f}  cont={c_sym:10.2f}  "
      f"ratio {d / c_sym:.4f}")
print(f"1 + delta = {1 + zp.delta(sym):.4f}   "
      f"(the ratio climbs toward this as T grows; at T=2000 it is ~0.5% shy)")

# --- closure: predicted excess vs measured excess ------------------------
# The correction E = disc - cont is predicted from the diophantine tuples
# alone (no zeta evaluations).  Tolerance in the acceptance suite:
# max(10% of E, 5% of cont).
print("\nclosure on the standard grid:")
for spec, label in ((spec1, "alpha=1"), (sym, "sym")):
    for beta in (0.0, 1.0):
        s = (zp.ProgressionSpec(alpha=spec.alpha, beta=beta)
             if spec.rational_form is None
             else zp.ProgressionSpec.from_rational(1, 2, 1, beta=beta))
        for poly, plab in ((one, "plain"), (moll, "moll ")):
            c, ints = zp.continuous_twisted_moment(s, window, T, poly, power=2)
            d = ints.twisted_sum(2)
            pred = zp.predict_E(s, window, T, poly)
            print(f"  {label:7s} beta={beta:3.1f} {plab}:  E={d - c:9.2f}  "
                  f"predicted={pred:9.2f}")

print(f"\ntotal {time.time() - t0:.1f} s")
