"""
Resonators: steering the average toward extreme values
======================================================

A resonator B re-weights the progression average of zeta by |B|^2.  With
multiplicative coefficients +-L/ln p on the primes in [L^2, N], the weighted
average R drifts above 1 (max mode) or below 1 (min mode), and the points
carrying the resonator's mass witness large (resp. small) |zeta|.

Runtime: ~0.75 s on 2 cores, about 0.12 s of it importing the package and
0.11 s for the three T=1e5 samples, nearly all of that their Riemann-Siegel
zeta; the resonator sums B come from zeta.progression_sum, and R reuses each
sample's zeta.
"""
import zetaprog as zp

spec = zp.ProgressionSpec(alpha=1.0)
window = zp.SmoothWindow()

# the paper's prime window [L^2, exp((ln L)^2)] is empty until N is
# astronomical, so the resonator takes the primes in [L^2, N]
rmax = zp.resonator_coeffs(100, "max")
print("prime window:", rmax.prime_lo, "to", rmax.N, " L =", rmax.L)

ns, bs = rmax.coeffs.nonzero()
print("\nresonator support (squarefree products of small primes):")
for n, b in list(zip(ns, bs))[:8]:
    print(f"  b({n}) = {b:+.4f}")
print(f"  ... {len(ns)} terms total")

# the resonated average at T = 1e5, each from one sample of zeta and the
# resonator on the progression; the searches below reduce the same samples.
# N = 100 exceeds the paper's length T^(1/6) = 6.8, as every resonator at
# desk scale does: R is exploratory here
T = 1e5
rmin = zp.resonator_coeffs(100, "min")
s_max = zp.sample_progression(spec, window, T, rmax.coeffs)
s_min = zp.sample_progression(spec, window, T, rmin.coeffs)
R_max = zp.ratio_R(s_max, rmax)
R_min = zp.ratio_R(s_min, rmin)
# b(1) = 1 alone: the trivial resonator
r_triv = zp.Resonator(N=100, L=rmax.L, prime_lo=rmax.prime_lo, excluded=frozenset(),
                      mode="max", coeffs=zp.DirichletPoly.one())
triv = zp.ratio_R(zp.sample_progression(spec, window, T, r_triv.coeffs), r_triv)
print(f"\nR (trivial resonator) = {triv:.5f}   (plain average of A, ~1)")
print(f"R (max mode)          = {R_max:.5f}")
print(f"R (min mode)          = {R_min:.5f}")

# the Euler product over the support primes predicts R to first order
e = zp.euler_product_prediction(rmax)
print(f"\nEuler-product prediction (max): {e.prediction:.5f} "
      f"(envelope {e.envelope_low:.3f} .. {e.envelope_high:.3f})")
print(f"Euler-product prediction (min): "
      f"{zp.euler_product_prediction(rmin).prediction:.5f}")

# extreme search: the witness among the resonator's top-decile mass
rep = zp.extreme_search(s_max, rmax)
print(f"\nmax-mode extreme search at T={T:g}:")
print(f"  witness |zeta| = {rep.witness_abs:.3f} at ell = {rep.ell_star}")
print(f"  global max     = {rep.global_abs:.3f} at ell = {rep.global_ell}")
print(f"  median |zeta|  = {rep.median_abs:.3f}")
# certified compares with a constant slack 2/sqrt(T) + 1e-6; it is a proof
# only where that slack bounds |A - zeta| over the window (see ExtremeReport)
print(f"  max >= |R| - slack? {rep.global_abs:.3f} >= "
      f"{abs(rep.ratio) - rep.slack:.3f}  certified={rep.certified}")

rep2 = zp.extreme_search(s_min, rmin)
print(f"\nmin-mode: witness |zeta| = {rep2.witness_abs:.2e}, "
      f"global min = {rep2.global_abs:.2e}, certified={rep2.certified}")

# excluding primes from the support (e.g. the 2-adic direction on the
# symmetric progression) annihilates those Euler factors exactly
sym = zp.ProgressionSpec.from_rational(1, 2, 1)
excl = zp.build_excluded_set(sym, 1e4)
r_excl = zp.resonator_coeffs(100, "max", excluded=excl)
print(f"\nexcluded primes on the symmetric progression: {sorted(excl)}")
print(f"b(2) with exclusion: {r_excl.coeffs.coeff(2)}  (annihilated)")
