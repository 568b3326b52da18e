"""Command-line orchestration: experiments in, JSON/CSV reports out.

Subcommands: moment, delta, dioph, firstmoment, nonvanish, resonate, selftest.
Every run emits a versioned JSON report (schema_version at top level, full
parameter echo, results, run_meta with wall time and engine versions) and,
where a per-ell/per-t table makes sense, a CSV with a frozen header row.

Reports are byte-deterministic for a fixed configuration and seed except for
the run_meta block (wall time cannot be replayed); consumers comparing runs
should strip run_meta first.  Exit codes: 0 ok, 1 failed check or
computation error, 2 bad configuration.
"""
import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from . import dioph as dmod
from . import moments as mmod
from . import resonance as rmod
from . import zeta as zmod
from .errors import ZetaprogError
from .window import SmoothWindow

SCHEMA_VERSION = 1


# -- plumbing ------------------------------------------------------------------


def _versions():
    import mpmath
    import scipy
    return {
        "zetaprog": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, subcommand, params, results, t0, csv_rows=None, csv_header=None):
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "params": _jsonable(params),
        "results": _jsonable(results),
        "run_meta": {
            "wall_time_s": round(time.monotonic() - t0, 3),
            "versions": _versions(),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_rows is not None and args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(",".join(csv_header) + "\n")
            for row in csv_rows:
                fh.write(",".join(_csv_cell(c) for c in row) + "\n")


def _csv_cell(c):
    if isinstance(c, float):
        return repr(c)
    return str(c)


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_rational(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("--alpha-rational expects ell0:m:n")
    try:
        ell0, m, n = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --alpha-rational {text!r}: {exc}")
    return ell0, m, n


def _parse_ells(text):
    out = []
    for chunk in text.split(","):
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    if not out or any(e < 1 for e in out):
        raise argparse.ArgumentTypeError(f"bad ell range {text!r}")
    return out


def _spec_from(args) -> dmod.ProgressionSpec:
    if args.alpha_rational is not None:
        ell0, m, n = args.alpha_rational
        return dmod.ProgressionSpec.from_rational(ell0, m, n, beta=args.beta)
    if args.alpha is None:
        raise ValueError("one of --alpha / --alpha-rational is required")
    return dmod.ProgressionSpec(alpha=args.alpha, beta=args.beta)


def _spec_params(spec: dmod.ProgressionSpec):
    p = {"alpha": spec.alpha, "beta": spec.beta}
    if spec.rational_form is not None:
        rf = spec.rational_form
        p["alpha_rational"] = {"ell0": rf.ell0, "m": rf.m, "n": rf.n,
                               "candidate": rf.candidate}
    return p


def _add_progression(parser, required=True):
    g = parser.add_mutually_exclusive_group(required=required)
    g.add_argument("--alpha", type=_finite_float, help="progression slope (float)")
    g.add_argument("--alpha-rational", type=_parse_rational, metavar="L0:M:N",
                   help="exact form: exp(2*pi*L0/alpha) = M/N")
    parser.add_argument("--beta", type=_finite_float, default=0.0, help="progression offset")


def _add_outputs(parser):
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here "
                        "(default: stdout)")
    parser.add_argument("--csv", metavar="PATH", help="write the per-sample CSV here")


# -- subcommands ---------------------------------------------------------------


def _poly_from(args, T):
    if getattr(args, "theta", None) is not None:
        return mmod.mollifier_coeffs(T, args.theta)
    return mmod.DirichletPoly.one()


def _cmd_moment(args, t0):
    spec = _spec_from(args)
    sample = mmod.sample_progression(spec, SmoothWindow(edge=args.edge), args.T,
                                     _poly_from(args, args.T))
    report = mmod.moment_report(sample, predict=not args.no_predict, eps=args.eps)
    results = asdict(report)
    rf = spec.rational_form
    if rf is None or rf.candidate:
        results["delta"] = 0.0
    else:
        results["delta"] = dmod.delta(spec)
    vals = sample.zeta * sample.B
    rows = [(int(l), float(t), float(wi), float(np.abs(v) ** 2))
            for l, t, wi, v in zip(sample.ell, sample.t, sample.phi, vals)]
    params = {**_spec_params(spec), "T": args.T, "edge": args.edge,
              "eps": args.eps, "theta": getattr(args, "theta", None),
              "predict": not args.no_predict}
    _emit(args, "moment", params, results, t0, rows,
          ["ell", "t", "phi", "abs_zeta_B_sq"])
    return 0


def _cmd_delta(args, t0):
    spec = _spec_from(args)
    results = {}
    if spec.rational_form is None and args.detect:
        cand = dmod.detect_rational(spec, args.ell_max, args.den_max)
        if cand is not None:
            results["detected_form"] = {"ell0": cand.ell0, "m": cand.m,
                                        "n": cand.n, "candidate": True}
    results["delta"] = dmod.delta(spec)
    results["exact"] = spec.rational_form is not None and not spec.rational_form.candidate
    params = {**_spec_params(spec), "detect": args.detect,
              "ell_max": args.ell_max, "den_max": args.den_max}
    _emit(args, "delta", params, results, t0)
    return 0


def _cmd_dioph(args, t0):
    spec = _spec_from(args)
    rows = []
    found = []
    for ell in _parse_ells(args.ell):
        tup = dmod.find_tuple(spec, ell, args.T, args.eps)
        if tup is None:
            rows.append((ell, "none", "none", "none"))
        else:
            rows.append((ell, tup.a, tup.b, float(tup.quality)))
            found.append({"ell": ell, "a": tup.a, "b": tup.b,
                          "quality": tup.quality})
    params = {**_spec_params(spec), "T": args.T, "eps": args.eps, "ell": args.ell}
    _emit(args, "dioph", params, {"tuples": found, "searched": _parse_ells(args.ell)},
          t0, rows, ["ell", "a", "b", "quality"])
    return 0


def _cmd_firstmoment(args, t0):
    spec = _spec_from(args)
    window = SmoothWindow(edge=args.edge)
    poly = _poly_from(args, args.T)
    sample = mmod.sample_progression(spec, window, args.T, poly)
    disc = sample.twisted_sum(1)
    cont = mmod.continuous_twisted_moment(spec, window, args.T, poly, power=1)
    pred = mmod.predict_E_prime(spec, window, args.T, poly, eps=args.eps)
    ref = args.T * window.phi_hat(0.0).real
    results = {
        "discrete": disc, "continuous": cont,
        "discrete_minus_continuous": disc - cont,
        "reference_T_phihat0": ref,
        "poly_only_correction": pred,
        "abs_deviation_from_reference": abs(disc - ref),
    }
    vals = sample.zeta * sample.B
    rows = [(int(l), float(t), float(wi), float(v.real), float(v.imag))
            for l, t, wi, v in zip(sample.ell, sample.t, sample.phi, vals)]
    params = {**_spec_params(spec), "T": args.T, "edge": args.edge,
              "eps": args.eps, "theta": getattr(args, "theta", None)}
    _emit(args, "firstmoment", params, results, t0, rows,
          ["ell", "t", "phi", "re_zeta_B", "im_zeta_B"])
    return 0


def _cmd_nonvanish(args, t0):
    spec = _spec_from(args)
    sample = mmod.sample_progression(spec, SmoothWindow(edge=args.edge), args.T,
                                     _poly_from(args, args.T))
    rep = mmod.nonvanishing_bound(sample)
    emp = mmod.empirical_nonvanishing(sample, args.threshold)
    results = {**asdict(rep), "empirical_fraction": emp,
               "threshold": args.threshold}
    params = {**_spec_params(spec), "T": args.T, "theta": args.theta,
              "edge": args.edge, "threshold": args.threshold}
    _emit(args, "nonvanish", params, results, t0)
    return 0


def _cmd_resonate(args, t0):
    spec = _spec_from(args)
    excluded = rmod.build_excluded_set(spec, args.T, args.eps)
    res = rmod.resonator_coeffs(args.N, args.mode, excluded, window=args.prime_window)
    euler = rmod.euler_product_prediction(res)
    sample = mmod.sample_progression(spec, SmoothWindow(edge=args.edge), args.T, res.coeffs)
    rep = rmod.extreme_search(sample, res, validity=args.validity)
    results = {
        "excluded_primes": excluded,
        "resonator": {"N": res.N, "L": res.L, "prime_lo": res.prime_lo,
                      "prime_hi": res.prime_hi, "mode": res.mode,
                      "window_kind": res.window_kind,
                      "support_size": int(np.count_nonzero(res.coeffs.values))},
        "euler_prediction": asdict(euler),
        "extreme": asdict(rep),
    }
    mass = sample.phi * np.abs(sample.B) ** 2
    rows = [(int(l), float(t), float(np.abs(z)), float(m))
            for l, t, z, m in zip(sample.ell, sample.t, sample.zeta, mass)]
    params = {**_spec_params(spec), "T": args.T, "N": args.N, "mode": args.mode,
              "eps": args.eps, "edge": args.edge,
              "prime_window": args.prime_window, "validity": args.validity}
    _emit(args, "resonate", params, results, t0, rows,
          ["ell", "t", "abs_zeta", "resonator_mass"])
    return 0


# -- selftest ------------------------------------------------------------------


def _selftest_checks(rng):
    """Curated fast invariant checks; each yields (name, passed, detail)."""
    from .kernels import eval_H, eval_W

    def close(a, b, tol):
        return abs(a - b) <= tol

    checks = []

    w = SmoothWindow()
    checks.append(("window_plateau", float(w.phi(1.5)) == 1.0, f"phi(1.5)={w.phi(1.5)}"))
    ph0 = w.phi_hat(0.0)
    checks.append(("window_phihat0", close(ph0.real, w.plateau_mass, 1e-9),
                   f"phi_hat(0)={ph0.real!r} vs plateau_mass={w.plateau_mass!r}"))

    wv = eval_W(1e-8)
    checks.append(("kernel_W_small_x", close(wv, 1.0, 1e-7), f"W(1e-8)={wv!r}"))
    xs = rng.uniform(0.2, 5.0, size=3)
    comp = [abs(eval_W(x) + eval_W(1 / x) - 1.0) for x in xs]
    checks.append(("kernel_W_complement", max(comp) < 1e-8,
                   f"max |W(x)+W(1/x)-1| = {max(comp):.2e}"))
    from .kernels import w_many
    hv = eval_H(50.0)
    r = np.arange(1, 5000)
    series = float(np.sum(w_many(r * r / 50.0) / r))
    checks.append(("kernel_H_series", close(hv, series, 1e-6),
                   f"H(50)={hv!r} vs series={series!r}"))

    z2 = zmod.zeta_em(2.0 + 0j)
    checks.append(("zeta_em_2", close(z2.real, math.pi ** 2 / 6, 1e-10),
                   f"zeta(2)={z2.real!r}"))
    t_seam = 2500.0
    em = zmod.zeta_critical_grid(np.array([t_seam]), engine="em")[0]
    rs = zmod.zeta_critical_grid(np.array([t_seam]), engine="rs")[0]
    checks.append(("zeta_em_vs_rs", abs(em - rs) < 1e-6, f"|em-rs|={abs(em - rs):.2e}"))
    ts = rng.uniform(100.0, 300.0, size=4)
    ms_grid = zmod.main_sum_grid(ts, 400)
    ms_scal = np.array([zmod.main_sum(t, 400) for t in ts])
    checks.append(("main_sum_grid_vs_scalar", float(np.max(np.abs(ms_grid - ms_scal))) < 1e-9,
                   f"max diff {np.max(np.abs(ms_grid - ms_scal)):.2e}"))

    sp = dmod.ProgressionSpec.from_rational(1, 2, 1)
    dv = dmod.delta(sp)
    checks.append(("delta_2_1", close(dv, 2 + 2 * math.sqrt(2), 1e-12),
                   f"delta={dv!r}"))
    tup = dmod.find_tuple(sp, 2, 1e4)
    checks.append(("find_tuple_powers", tup is not None and (tup.a, tup.b) == (4, 1)
                   and tup.quality == 0.0, f"tuple={tup}"))

    moll = mmod.mollifier_coeffs(1e4, 0.4)
    checks.append(("mollifier_b1", moll.coeff(1) == 1.0, f"b(1)={moll.coeff(1)!r}"))
    f_closed = mmod.F_func(2, 1, 1e4, mmod.DirichletPoly.one(), sp)
    f_series = mmod.F_func_series(2, 1, 1e4, mmod.DirichletPoly.one(), sp)
    checks.append(("F_transform_identity",
                   close(f_closed, f_series, 1e-4 * abs(f_closed)),
                   f"closed={f_closed!r} series={f_series!r}"))

    res = rmod.resonator_coeffs(200, "max", window="extended")
    checks.append(("resonator_b1", res.coeffs.coeff(1) == 1.0,
                   f"b(1)={res.coeffs.coeff(1)!r}"))
    S = rmod.build_excluded_set(sp, 1e4)
    checks.append(("excluded_contains_2", 2 in S, f"S={sorted(S)}"))

    return checks


def _cmd_selftest(args, t0):
    rng = np.random.default_rng(args.seed)
    checks = _selftest_checks(rng)
    results = {
        "checks": [{"name": n, "passed": bool(p), "detail": d}
                   for n, p, d in checks],
        "n_passed": sum(1 for _, p, _ in checks if p),
        "n_total": len(checks),
    }
    _emit(args, "selftest", {"seed": args.seed}, results, t0)
    return 0 if results["n_passed"] == results["n_total"] else 1


# -- entry point ----------------------------------------------------------------


def build_parser():
    root = argparse.ArgumentParser(
        prog="zetaprog",
        description="Moments, diophantine corrections, and resonance extremes of "
                    "zeta on vertical arithmetic progressions.")
    root.add_argument("--version", action="version", version=f"zetaprog {__version__}")
    sub = root.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("moment", help="discrete vs continuous second moment + "
                       "predicted correction")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float, help="mollify with exponent theta")
    p.add_argument("--edge", type=_finite_float, default=0.05)
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    p.add_argument("--no-predict", action="store_true")
    _add_outputs(p)
    p.set_defaults(fn=_cmd_moment)

    p = sub.add_parser("delta", help="the rational-case correction delta(alpha, beta)")
    _add_progression(p)
    p.add_argument("--detect", action="store_true",
                   help="scan a float alpha for candidate rational structure")
    p.add_argument("--ell-max", type=int, default=40)
    p.add_argument("--den-max", type=int, default=100_000)
    _add_outputs(p)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("dioph", help="diophantine tuples (a, b) per ell")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--ell", type=str, required=True, help="e.g. 3 or 1..5 or 1,2,7")
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    _add_outputs(p)
    p.set_defaults(fn=_cmd_dioph)

    p = sub.add_parser("firstmoment", help="discrete first moment vs its references")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--edge", type=_finite_float, default=0.05)
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    _add_outputs(p)
    p.set_defaults(fn=_cmd_firstmoment)

    p = sub.add_parser("nonvanish", help="mollified nonvanishing lower bound")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.3)
    p.add_argument("--edge", type=_finite_float, default=0.05)
    p.add_argument("--threshold", type=_finite_float, default=1e-3,
                   help="|zeta| cutoff (in units of (log ell)^-1/2) for the "
                        "empirical fraction")
    _add_outputs(p)
    p.set_defaults(fn=_cmd_nonvanish)

    p = sub.add_parser("resonate", help="resonator ratio and extreme-value search")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--N", type=int, required=True, help="resonator length")
    p.add_argument("--mode", choices=("max", "min"), required=True)
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    p.add_argument("--edge", type=_finite_float, default=0.05)
    p.add_argument("--prime-window", choices=("auto", "asymptotic", "extended"),
                   default="auto")
    p.add_argument("--validity", choices=("exploratory", "paper-strict"),
                   default="exploratory")
    _add_outputs(p)
    p.set_defaults(fn=_cmd_resonate)

    p = sub.add_parser("selftest", help="run the curated invariant checks")
    p.add_argument("--seed", type=int, default=0)
    _add_outputs(p)
    p.set_defaults(fn=_cmd_selftest)

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        return args.fn(args, t0)
    except (ValueError, OverflowError) as exc:
        print(f"zetaprog {args.subcommand}: bad configuration: {exc}", file=sys.stderr)
        return 2
    except ZetaprogError as exc:
        print(f"zetaprog {args.subcommand}: computation failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
