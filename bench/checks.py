"""Correctness gate for one experiment: the CLI's JSON report and CSV rows.

Three kinds of check, each with its tolerance taken from the contract of
the function that computed the value:

* oracles: sampled zeta values against mpmath.zeta at the engines' 1e-6
  absolute contract, the closed-form delta(alpha, beta) of the exact forms,
  reference_T_phihat0 = T * (1 - edge), and the resonator's support size
  recounted from its prime window and excluded set;
* consistency: t = alpha * ell + beta on sampled rows and at the witness;
* references recorded from the baseline commit for the shipped seeds
  (bench/reference/<workload>.json), keyed by the experiment's argv.
"""
import json
import math

import mpmath

EDGE = 0.05          # the CLI's default window edge, which no experiment changes
ZETA_ABS_TOL = 1e-6  # EM/RS accuracy contract on zeta(1/2 + it)

# (relative, absolute, absolute per unit T) tolerances for recorded values:
#   discrete sums: the engines' 1e-6 per point, relative to the sum;
#   continuous moments: continuous_twisted_moment's 1e-4 relative;
#   predicted corrections: 1e-4 relative, floored at H_ell's 1e-9*T scale;
#   resonator ratio and median |zeta|: the engines' 1e-6 absolute;
#   Euler-product prediction: a float product of the same coefficients.
REFERENCE_TOLERANCE = {
    "moment": {"discrete": (1e-6, 0.0, 0.0), "continuous": (1e-4, 0.0, 0.0),
               "predicted_E": (1e-4, 0.0, 1e-8)},
    "firstmoment": {"discrete": (1e-6, 0.0, 0.0), "continuous": (1e-4, 0.0, 0.0),
                    "poly_only_correction": (1e-4, 0.0, 1e-8)},
    "resonate": {"ratio": (0.0, ZETA_ABS_TOL, 0.0), "prediction": (1e-12, 0.0, 0.0),
                 "median_abs": (0.0, ZETA_ABS_TOL, 0.0)},
}
EXACT_FIELDS = {"resonate": ("excluded_primes", "ell_star", "support_size")}


def _c(v):
    return complex(v["re"], v["im"]) if isinstance(v, dict) else v


def extract(subcommand: str, results: dict) -> dict:
    """The values of a report that the reference file records."""
    if subcommand == "moment":
        return {k: results[k] for k in ("discrete", "continuous", "predicted_E")}
    if subcommand == "firstmoment":
        return {"discrete": results["discrete"], "continuous": results["continuous"],
                "poly_only_correction": results["poly_only_correction"]}
    ext = results["extreme"]
    return {"excluded_primes": results["excluded_primes"],
            "ell_star": ext["ell_star"],
            "support_size": results["resonator"]["support_size"],
            "ratio": ext["ratio"],
            "prediction": results["euler_prediction"]["prediction"],
            "median_abs": ext["median_abs"]}


def _read_row(csv_path: str, pos: int) -> list:
    """The CSV's data row at 0-based position pos (the header excluded)."""
    with open(csv_path) as fh:
        return fh.readlines()[pos + 1].strip().split(",")


def _zeta(t: float) -> complex:
    with mpmath.workdps(20):
        return complex(mpmath.zeta(mpmath.mpc(0.5, t)))


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _mollifier_B(T: float, theta, t: float) -> complex:
    """B(1/2 + it) of the CLI's polynomial: 1, or the mollifier
    b(n) = mu(n) * (1 - log n / (theta log T)) for n <= T^theta."""
    if theta is None:
        return 1.0
    length = max(int(math.floor(T ** theta)), 1)
    log_cap = theta * math.log(T)
    with mpmath.workdps(20):
        s = mpmath.mpc(0.5, t)
        tot = mpmath.mpf(0)
        for n in range(1, length + 1):
            mu = _mobius(n)
            if mu:
                tot += mu * (1 - math.log(n) / log_cap) * mpmath.power(n, -s)
        return complex(tot)


def _delta(form, beta: float) -> float:
    if form is None:
        return 0.0
    _, m, n = form
    c = math.cos(beta * math.log(m / n))
    root = math.sqrt(m * n)
    return (2.0 * c * root - 2.0) / (m * n + 1.0 - 2.0 * root * c)


def _support_size(N: int, excluded) -> int:
    """1 plus the squarefree products <= N of the resonator's primes: the
    primes in [L^2, N] outside the excluded set (the extended window, which
    'auto' selects for every N this benchmark uses)."""
    L = math.sqrt(math.log(N) * math.log(math.log(N)))
    lo = math.ceil(L * L)
    ps = [p for p in range(max(2, lo), N + 1)
          if all(p % q for q in range(2, math.isqrt(p) + 1)) and p not in excluded]

    def count(start, prod):
        total = 0
        for i in range(start, len(ps)):
            nxt = prod * ps[i]
            if nxt > N:
                break
            total += 1 + count(i + 1, nxt)
        return total

    return 1 + count(0, 1)


def _close(got, want, rel, floor):
    return abs(_c(got) - _c(want)) <= rel * abs(_c(want)) + floor


def _check_t(exp, ell, t, problems, where):
    want = exp.slope() * ell + exp.beta
    if not abs(t - want) <= 1e-12 * abs(want):
        problems.append(f"{where}: t={t!r} but alpha*ell+beta={want!r}")


def check(exp, report: dict, csv_path: str, reference) -> list:
    """Problems found in one experiment's outputs (empty when it passes)."""
    problems = []
    if report.get("subcommand") != exp.subcommand:
        return [f"report subcommand {report.get('subcommand')!r}"]
    res = report["results"]
    sub = exp.subcommand
    # One sampled row per experiment, spread over the window by the index.
    pick = (exp.index * 7919) % exp.points
    row = _read_row(csv_path, pick)
    ell, t = int(row[0]), float(row[1])
    _check_t(exp, ell, t, problems, "csv row")
    z = _zeta(t)
    if sub == "moment":
        B = _mollifier_B(exp.T, exp.theta, t)
        got, want = float(row[3]), abs(z) ** 2 * abs(B) ** 2
        tol = 2.0 * ZETA_ABS_TOL * abs(B) ** 2 * (abs(z) + ZETA_ABS_TOL) + 1e-12 * want
        if not abs(got - want) <= tol:
            problems.append(f"|zeta*B|^2 at t={t!r}: {got!r} vs mpmath {want!r}")
        if res["E"] != res["discrete"] - res["continuous"] or \
                res["ratio"] != res["discrete"] / res["continuous"]:
            problems.append("E or ratio inconsistent with discrete and continuous")
        if not abs(res["delta"] - _delta(exp.form, exp.beta)) <= 1e-12:
            problems.append(f"delta {res['delta']!r} vs closed form "
                            f"{_delta(exp.form, exp.beta)!r}")
    elif sub == "firstmoment":
        B = _mollifier_B(exp.T, exp.theta, t)
        got, want = complex(float(row[3]), float(row[4])), z * B
        if not abs(got - want) <= ZETA_ABS_TOL * abs(B) + 1e-12:
            problems.append(f"zeta*B at t={t!r}: {got!r} vs mpmath {want!r}")
        ref0 = exp.T * (1.0 - EDGE)
        if not abs(res["reference_T_phihat0"] - ref0) <= 1e-12 * ref0:
            problems.append(f"reference_T_phihat0 {res['reference_T_phihat0']!r} "
                            f"vs T*(1-edge) {ref0!r}")
    else:
        if not abs(float(row[2]) - abs(z)) <= ZETA_ABS_TOL:
            problems.append(f"|zeta| at t={t!r}: {row[2]} vs mpmath {abs(z)!r}")
        ext = res["extreme"]
        _check_t(exp, ext["ell_star"], ext["t_star"], problems, "witness")
        zs = _c(ext["zeta_star"])
        zm = _zeta(ext["t_star"])
        if not abs(zs - zm) <= ZETA_ABS_TOL:
            problems.append(f"zeta_star {zs!r} vs mpmath {zm!r}")
        if exp.form is not None:
            _, m, n = exp.form
            need = {p for p in range(2, m * n + 1) if (m * n) % p == 0
                    and all(p % q for q in range(2, p))}
            if not need <= set(res["excluded_primes"]):
                problems.append(f"excluded {res['excluded_primes']} misses {sorted(need)}")
        size = _support_size(exp.N, set(res["excluded_primes"]))
        if res["resonator"]["support_size"] != size:
            problems.append(f"support_size {res['resonator']['support_size']} "
                            f"vs recount {size}")
    want = reference.get(exp.key) if reference else None
    if want is not None:
        got = extract(sub, res)
        for name in EXACT_FIELDS.get(sub, ()):
            if got[name] != want[name]:
                problems.append(f"{name} {got[name]!r} vs reference {want[name]!r}")
        for name, (rel, floor, per_T) in REFERENCE_TOLERANCE[sub].items():
            if not _close(got[name], want[name], rel, floor + per_T * exp.T):
                problems.append(f"{name} {got[name]!r} vs reference {want[name]!r}")
    return problems


def load_reference(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
