"""Command-line orchestration: experiments in, JSON/CSV reports out.

Subcommands: moment, delta, dioph, firstmoment, nonvanish, resonate, selftest.
Every run emits a versioned JSON report (schema_version at top level, full
parameter echo, results, run_meta with wall time and engine versions).  The
echo is the parsed options, the progression's as its spec holds them, and the
pre-checks are keyed on the options, so a new option needs no edit to either.
The results hold what the run computed: no option the echo states, and no
field that can take one value only.  moment, dioph, firstmoment and
resonate, the subcommands with a per-ell table, also take --csv and write
that table with a frozen header row; the others refuse --csv.  The argument
parser is built once per process, so a caller that runs main many times pays
only for parsing.

CSV cells are written as Python writes them: integers by str, floats by
repr (the shortest text that reads back to the same double).  A table of
float64 and integer columns is made by orjson a block of whole rows at a
time, one call per block of _CSV_BLOCK_CELLS cells, and each block goes to
the file as soon as it is made, so the writer holds one block, never the
whole table.  orjson's text equals repr's except for NaN, +-inf and nonzero
magnitudes outside [1e-4, 1e16); those cells are written by repr.  Any other
table, such as dioph's with its "none" cells, is joined cell by cell.
orjson is imported by the first run that writes a table, so import and runs
without --csv do not load it.

moment and firstmoment build their results here from one pass: the integer
sample moments.continuous_twisted_moment cuts from its first lattice, then the
prediction, whose unbudgeted work the sample's refusals guard.

Reports are byte-deterministic for a fixed configuration and seed except for
the run_meta block (wall time cannot be replayed); consumers comparing runs
should strip run_meta first.  Exit codes: 0 ok, 1 failed check or
computation error, 2 bad configuration.
"""
import argparse
import functools
import itertools
import json
import math
import os
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
from .quadrature import NODE_CAP, nested_trapezoid, parity_slices
from .window import SmoothWindow

SCHEMA_VERSION = 4

# A numeric table is formatted and written this many cells at a time (whole
# rows, about 150 KB of text), so the writer's working set does not grow
# with the table.
_CSV_BLOCK_CELLS = 8192


# -- plumbing ------------------------------------------------------------------


def _versions():
    import mpmath
    return {
        "zetaprog": __version__,
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
    }


def _jsonable(obj):
    """obj with numpy scalars as Python numbers, complex as {"re", "im"}, and
    every non-finite float as None (JSON null: RFC 8259 has no NaN or
    Infinity)."""
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, spec, results, t0, csv_header=None, csv_columns=None):
    """Write the report, and the table with --csv; params echo the parsed options."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("fn", "subcommand", "json", "csv", "alpha", "alpha_rational", "beta")}
    if spec is not None:
        params.update(_spec_params(spec))
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "params": _jsonable(params),
        "results": _jsonable(results),
        "run_meta": {
            "wall_time_s": round(time.monotonic() - t0, 3),
            "versions": _versions(),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    blocks = None
    if csv_columns is not None and args.csv:  # first, so a refused table writes no report
        blocks = _csv_blocks(csv_header, csv_columns)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if blocks is not None:
        with open(args.csv, "wb") as fh:
            fh.writelines(blocks)


def _csv_cell(c):
    if isinstance(c, float):
        return repr(c)
    return str(c)


def _csv_blocks(header, columns):
    """The CSV text of a header and equal-length columns as an iterable of
    bytes blocks: the header line, then one row per index, each cell
    _csv_cell of its entry.  ValueError for columns of unequal length is
    raised here, before any block is made.

    A table whose every column is a native-order float64 ndarray or an
    integer ndarray strictly inside (-2**53, 2**53) is made in blocks of
    _CSV_BLOCK_CELLS cells, whole rows each, by _orjson_blocks.  Any other
    table is converted by tolist() and joined cell by cell."""
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    head = (",".join(header) + "\n").encode()
    if not columns or not lengths[0]:
        return (head,)
    if not all(map(_fits_orjson, columns)):
        rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
        return head, "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows).encode()
    return itertools.chain((head,), _orjson_blocks(columns))


def _orjson_blocks(columns):
    """The rows of float64 and integer columns, _CSV_BLOCK_CELLS cells at a
    time: each block of rows is copied into one reused row-major float64
    block and written by one orjson call.  Its shortest round-trip floats
    spell every value as repr does except NaN and +-inf (null) and nonzero
    magnitudes below 1e-4 or from 1e16 up (0.00001, 1e16 for 1e-05, 1e+16),
    whose cells are redone by repr.  The dump's every k-th comma ends a row,
    and an integer cell drops the ".0" it gains as a float."""
    import orjson  # only a run that writes a table pays for the import
    n, k = len(columns[0]), len(columns)
    rows = max(1, _CSV_BLOCK_CELLS // k)
    buf = np.empty((min(rows, n), k))
    ints = np.array([j for j, col in enumerate(columns) if col.dtype.kind in "iu"], dtype=int)
    for lo in range(0, n, rows):
        block = buf[:min(rows, n - lo)]
        for j, col in enumerate(columns):
            block[:, j] = col[lo:lo + len(block)]
        flat = block.reshape(-1)
        body = np.frombuffer(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY),
                             np.uint8)[1:].copy()
        # cell i spans (edges[i], edges[i + 1]); the closing "]" ends the last row
        edges = np.concatenate(([-1], np.flatnonzero(body == ord(",")), [len(body) - 1]))
        body[edges[k::k]] = ord("\n")
        if ints.size:
            keep = np.ones(len(body), dtype=bool)
            dot = edges[1:].reshape(len(block), k)[:, ints] - 2
            keep[dot], keep[dot + 1] = False, False
            body = body[keep]
        mag = np.abs(flat)
        redo = np.flatnonzero((mag < 1e-4) & (mag != 0) | ~(mag < 1e16))
        if not redo.size:
            yield body.tobytes()
            continue
        # a redone cell's place in the compacted body: two bytes fewer for
        # each integer cell before it
        row, j = np.divmod(redo, k)
        shift = 2 * (row * ints.size + np.searchsorted(ints, j))
        starts, stops = edges[redo] + 1 - shift, edges[redo + 1] - shift
        text, pieces, last = body.tobytes(), [], 0
        for start, stop, x in zip(starts.tolist(), stops.tolist(), flat[redo].tolist()):
            pieces += [text[last:start], repr(x).encode()]
            last = stop
        pieces.append(text[last:])
        yield b"".join(pieces)


def _fits_orjson(col):
    """Whether orjson's text of col as float64 is its _csv_cell text, but
    for the cells _orjson_blocks redoes by repr."""
    if not isinstance(col, np.ndarray) or not col.dtype.isnative:
        return False
    if col.dtype == np.float64:
        return True
    return col.dtype.kind in "iu" and -2 ** 53 < int(col.min()) and int(col.max()) < 2 ** 53


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_at_least(lo):
    """The argparse type of an integer option that refuses values below lo."""
    def parse(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return int(text)
    parse.__name__ = "int"  # argparse's "invalid int value" for a non-integer
    return parse


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
    ends = []
    for chunk in text.split(","):
        lo, dots, hi = chunk.partition("..")
        try:
            ends.append((int(lo), int(hi if dots else lo)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad ell range {text!r}") from None
    count = sum(max(0, hi - lo + 1) for lo, hi in ends)  # before building any list
    if count > NODE_CAP:
        raise argparse.ArgumentTypeError(f"{count} values exceed the budget of {NODE_CAP}")
    out = list(dict.fromkeys(e for lo, hi in ends for e in range(lo, hi + 1)))
    if not out or any(e < 1 for e in out):
        raise argparse.ArgumentTypeError(f"bad ell range {text!r}")
    return out


def _spec_from(args) -> dmod.ProgressionSpec:
    if args.alpha_rational is not None:
        ell0, m, n = args.alpha_rational
        return dmod.ProgressionSpec.from_rational(ell0, m, n, beta=args.beta)
    return dmod.ProgressionSpec(alpha=args.alpha, beta=args.beta)


def _spec_params(spec: dmod.ProgressionSpec):
    p = {"alpha": spec.alpha, "beta": spec.beta}
    if spec.rational_form is not None:
        rf = spec.rational_form
        p["alpha_rational"] = {"ell0": rf.ell0, "m": rf.m, "n": rf.n}
    return p


def _add_progression(parser):
    g = parser.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", type=_finite_float, help="progression slope (float)")
    g.add_argument("--alpha-rational", type=_parse_rational, metavar="L0:M:N",
                   help="exact form: exp(2*pi*L0/alpha) = M/N")
    parser.add_argument("--beta", type=_finite_float, default=0.0,
                        help="progression offset; write a negative value in exponent "
                             "form with '=', as --beta=-1e3")


def _add_outputs(parser, table=False):
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here "
                        "(default: stdout)")
    if table:
        parser.add_argument("--csv", metavar="PATH", help="write the per-ell table here")


# -- subcommands ---------------------------------------------------------------


def _poly_from(args):
    if args.theta is not None:
        return mmod.mollifier_coeffs(args.T, args.theta)
    return mmod.DirichletPoly.one()


def _check_run(args, spec):
    """The checks of the builders a run on spec will reach, in the order it
    reaches them, each keyed on the option that carries it, then the node
    budget, all before any work: finite heights alpha*T + beta and 2*alpha*T
    + beta, which every builder would meet as inf; the mollifier's T and
    theta (--theta); the search's T and eps where the run has --eps and
    predicts (build_excluded_set with --N, else find_tuple); predict_E's
    heights (moment's predict); the resonator's N (--N); --threshold; and an
    integer in [T, 2T], for a report over no node compares nothing.  Every
    caller builds its SmoothWindow first, so a bad --edge is refused before
    any of these."""
    lo, hi = spec.alpha * args.T + spec.beta, 2.0 * spec.alpha * args.T + spec.beta
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"the heights alpha*T + beta = {lo!r} and 2*alpha*T + beta = "
                         f"{hi!r} must be finite; lower --alpha, --beta or --T")
    if getattr(args, "theta", None) is not None:  # resonate has no --theta
        mmod._check_mollifier(args.T, args.theta)
    if hasattr(args, "eps") and getattr(args, "predict", True):  # only moment may not predict
        dmod._check_search(args.T, args.eps,
                           "build_excluded_set" if hasattr(args, "N") else "find_tuple")
    if getattr(args, "predict", False):  # only moment has --no-predict
        mmod._check_heights(spec, args.T)
    if hasattr(args, "N"):  # only resonate has --N
        rmod._check_resonator_length(args.N)
    if getattr(args, "threshold", None) is not None:  # only nonvanish has --threshold
        mmod._check_threshold(args.threshold)
    mmod._check_sample_budget(args.T)
    if math.floor(2.0 * args.T) < math.ceil(args.T):
        raise ValueError(f"the window [T, 2T] holds no integer node at T = {args.T!r}")


def _cmd_moment(args, t0):
    spec, window = _spec_from(args), SmoothWindow(edge=args.edge)
    _check_run(args, spec)
    poly = _poly_from(args)
    cont, sample = mmod.continuous_twisted_moment(spec, window, args.T, poly, power=2)
    disc = sample.twisted_sum(2)
    pred = mmod.predict_E(spec, window, args.T, poly, eps=args.eps) if args.predict else math.nan
    results = {"discrete": disc, "continuous": cont, "E": disc - cont, "predicted_E": pred,
               "ratio": disc / cont, "delta": dmod.delta(spec)}
    _emit(args, spec, results, t0, ["ell", "t", "phi", "abs_zeta_B_sq"],
          [sample.ell, sample.t, sample.phi, np.abs(sample.zeta * sample.B) ** 2])
    return 0


def _cmd_delta(args, t0):
    spec = _spec_from(args)
    results = {}
    if spec.rational_form is None and args.detect:
        found = dmod.detect_rational(spec, args.ell_max, args.den_max)
        if found is not None:
            results["detected_form"] = dict(zip(("ell0", "m", "n"), found))
    results["delta"] = dmod.delta(spec)
    _emit(args, spec, results, t0)
    return 0


def _cmd_dioph(args, t0):
    spec = _spec_from(args)
    rows = []
    found = []
    for ell in args.ell:
        tup = dmod.find_tuple(spec, ell, args.T, args.eps)
        if tup is None:
            rows.append((ell, "none", "none", "none"))
        else:
            rows.append((ell, tup.a, tup.b, float(tup.quality)))
            found.append({"ell": ell, "a": tup.a, "b": tup.b,
                          "quality": tup.quality})
    _emit(args, spec, {"tuples": found}, t0, ["ell", "a", "b", "quality"], list(zip(*rows)))
    return 0


def _cmd_firstmoment(args, t0):
    spec, window = _spec_from(args), SmoothWindow(edge=args.edge)
    _check_run(args, spec)
    poly = _poly_from(args)
    cont, sample = mmod.continuous_twisted_moment(spec, window, args.T, poly, power=1)
    disc = sample.twisted_sum(1)
    pred = mmod.predict_E_prime(spec, window, args.T, poly, eps=args.eps)
    ref = args.T * window.plateau_mass
    results = {
        "discrete": disc, "continuous": cont,
        "discrete_minus_continuous": disc - cont,
        "reference_T_phihat0": ref,
        "poly_only_correction": pred,
        "abs_deviation_from_reference": abs(disc - ref),
    }
    vals = sample.zeta * sample.B
    _emit(args, spec, results, t0, ["ell", "t", "phi", "re_zeta_B", "im_zeta_B"],
          [sample.ell, sample.t, sample.phi, vals.real, vals.imag])
    return 0


def _cmd_nonvanish(args, t0):
    spec, window = _spec_from(args), SmoothWindow(edge=args.edge)
    _check_run(args, spec)
    sample = mmod.sample_progression(spec, window, args.T, _poly_from(args))
    rep = mmod.nonvanishing_bound(sample)
    emp = mmod.empirical_nonvanishing(sample, args.threshold)
    results = {**asdict(rep), "empirical_fraction": emp}
    _emit(args, spec, results, t0)
    return 0


def _cmd_resonate(args, t0):
    spec, window = _spec_from(args), SmoothWindow(edge=args.edge)
    _check_run(args, spec)
    excluded = rmod.build_excluded_set(spec, args.T, args.eps)
    res = rmod.resonator_coeffs(args.N, args.mode, excluded)
    euler = rmod.euler_product_prediction(res)
    sample = mmod.sample_progression(spec, window, args.T, res.coeffs)
    rep = rmod.extreme_search(sample, res)
    results = {
        "excluded_primes": excluded,
        "resonator": {"L": res.L, "prime_lo": res.prime_lo,
                      "support_size": int(np.count_nonzero(res.coeffs.values))},
        "euler_prediction": asdict(euler),
        "extreme": asdict(rep),
    }
    _emit(args, spec, results, t0, ["ell", "t", "abs_zeta", "resonator_mass"],
          [sample.ell, sample.t, np.abs(sample.zeta), sample.phi * np.abs(sample.B) ** 2])
    return 0


# -- selftest ------------------------------------------------------------------


def _selftest_checks(rng):
    """Curated fast invariant checks; each yields (name, passed, detail)."""
    from .kernels import eval_H, eval_W, w_many

    def close(a, b, tol):
        return abs(a - b) <= tol

    checks = []

    w = SmoothWindow()
    checks.append(("window_plateau", float(w.phi(1.5)) == 1.0, f"phi(1.5)={w.phi(1.5)}"))
    ph0 = w.phi_hat(0.0).real

    def mass_sums(j, p):
        phi = w.phi(np.arange(j.start, j.stop, j.step) / p)
        return [float(np.sum(phi[half])) for half in parity_slices(j)]

    mass = nested_trapezoid(mass_sums, 1.0, 2.0, 16.0 / w.edge,
                            lambda new, old: abs(new - old) <= 1e-12)
    checks.append(("window_phihat0", close(mass, 1.0 - w.edge, 1e-9) and close(ph0, mass, 1e-9),
                   f"phi_hat(0)={ph0!r}, trapezoid mass={mass!r}, 1 - edge={1.0 - w.edge!r}"))

    wv = eval_W(1e-8)
    checks.append(("kernel_W_small_x", close(wv, 1.0, 1e-7), f"W(1e-8)={wv!r}"))
    xs = rng.uniform(0.2, 5.0, size=3)
    comp = [abs(eval_W(x) + eval_W(1 / x) - 1.0) for x in xs]
    checks.append(("kernel_W_complement", max(comp) < 1e-8,
                   f"max |W(x)+W(1/x)-1| = {max(comp):.2e}"))
    hv = eval_H(50.0)
    r = np.arange(1, 5000)
    series = float(np.sum(w_many(r * r / 50.0) / r))
    checks.append(("kernel_H_series", close(hv, series, 1e-6),
                   f"H(50)={hv!r} vs series={series!r}"))

    z2 = zmod.zeta_em(2.0 + 0j)
    checks.append(("zeta_em_2", close(z2.real, math.pi ** 2 / 6, 1e-10),
                   f"zeta(2)={z2.real!r}"))
    t_seam = 2500.0
    em = zmod.zeta_em(0.5 + 1j * t_seam)
    rs = zmod.zeta_critical_grid([t_seam])[0]
    checks.append(("zeta_em_vs_rs", abs(em - rs) < 1e-6, f"|em-rs|={abs(em - rs):.2e}"))
    t_first, h = rng.uniform(100.0, 200.0), 25.0
    ts = t_first + h * np.arange(4)
    ms_grid = zmod._main_sum_on_progression(ts, h, zmod.zeta_on_progression(t_first, h, 4), 400)
    ms_scal = np.array([zmod.main_sum(t, 400) for t in ts])
    checks.append(("main_sum_grid_vs_scalar", float(np.max(np.abs(ms_grid - ms_scal))) < 1e-9,
                   f"max diff {np.max(np.abs(ms_grid - ms_scal)):.2e}"))
    t_first, h = rng.uniform(1000.0, 2000.0), 9.0647
    bsgs = zmod.progression_sum(np.arange(1, 401), np.ones(400), t_first, h, 97)
    direct = np.array([zmod.main_sum(t, 400) for t in t_first + h * np.arange(97)])
    checks.append(("progression_sum_vs_direct", float(np.max(np.abs(bsgs - direct))) < 1e-10,
                   f"max diff {np.max(np.abs(bsgs - direct)):.2e}"))
    # crosses RS_MIN_T and the m-group edge t = 2pi * 18^2
    t_first, h = zmod.RS_MIN_T - 10.0 * math.pi, 0.37
    prog = zmod.zeta_on_progression(t_first, h, 301)
    grid = zmod.zeta_critical_grid(t_first + h * np.arange(301))
    checks.append(("zeta_on_progression_vs_grid", float(np.max(np.abs(prog - grid))) < 1e-9,
                   f"max diff {np.max(np.abs(prog - grid)):.2e}"))

    sp = dmod.ProgressionSpec.from_rational(1, 2, 1)
    dv = dmod.delta(sp)
    checks.append(("delta_2_1", close(dv, 2 + 2 * math.sqrt(2), 1e-12),
                   f"delta={dv!r}"))
    tup = dmod.find_tuple(sp, 2, 1e4)
    checks.append(("find_tuple_powers", tup is not None and (tup.a, tup.b) == (4, 1)
                   and tup.quality == 0.0, f"tuple={tup}"))

    moll = mmod.mollifier_coeffs(1e4, 0.4)
    checks.append(("mollifier_b1", moll.coeff(1) == 1.0, f"b(1)={moll.coeff(1)!r}"))
    # F(2, 1, t) for b = 1 is H(tt/4pi), tt = alpha*t + beta: its W series
    f_closed = mmod.F_func(2, 1, 1e4, mmod.DirichletPoly.one(), sp)
    f_series = float(np.sum(w_many(4.0 * math.pi * r * r / (sp.alpha * 1e4 + sp.beta)) / r))
    checks.append(("F_transform_identity",
                   close(f_closed, f_series, 1e-4 * abs(f_closed)),
                   f"closed={f_closed!r} series={f_series!r}"))

    res = rmod.resonator_coeffs(200, "max")
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
    _emit(args, None, results, t0)
    return 0 if results["n_passed"] == results["n_total"] else 1


# -- entry point ----------------------------------------------------------------


@functools.cache
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
    p.add_argument("--edge", type=_finite_float, default=SmoothWindow.edge)
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    p.add_argument("--no-predict", dest="predict", action="store_false")
    _add_outputs(p, table=True)
    p.set_defaults(fn=_cmd_moment)

    p = sub.add_parser("delta", help="the rational-case correction delta(alpha, beta)")
    _add_progression(p)
    p.add_argument("--detect", action="store_true",
                   help="scan a float alpha for candidate rational structure")
    p.add_argument("--ell-max", type=_int_at_least(1), default=40)
    p.add_argument("--den-max", type=_int_at_least(1), default=100_000,
                   help="largest denominator --detect tries; must lie below 2^100, "
                        "past which x's precision cannot resolve 1e-12/q^2")
    _add_outputs(p)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("dioph", help="diophantine tuples (a, b) per ell")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--ell", type=_parse_ells, required=True, help="e.g. 3 or 1..5 or 1,2,7")
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    _add_outputs(p, table=True)
    p.set_defaults(fn=_cmd_dioph)

    p = sub.add_parser("firstmoment", help="discrete first moment vs its references")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--edge", type=_finite_float, default=SmoothWindow.edge)
    p.add_argument("--eps", type=_finite_float, default=dmod.DEFAULT_EPS)
    _add_outputs(p, table=True)
    p.set_defaults(fn=_cmd_firstmoment)

    p = sub.add_parser("nonvanish", help="mollified nonvanishing lower bound")
    _add_progression(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float, default=0.3)
    p.add_argument("--edge", type=_finite_float, default=SmoothWindow.edge)
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
    p.add_argument("--edge", type=_finite_float, default=SmoothWindow.edge)
    _add_outputs(p, table=True)
    p.set_defaults(fn=_cmd_resonate)

    p = sub.add_parser("selftest", help="run the curated invariant checks")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_outputs(p)
    p.set_defaults(fn=_cmd_selftest)

    return root


def _check_outputs(args):
    """ValueError for a --json or --csv path that cannot be written: a
    directory, a file without write permission, or a new file in a missing
    or unwritable directory; and for --json and --csv naming one file, where
    the second report would overwrite the first.  Checked before any work,
    so that a run never fails after it, nor after writing the other report."""
    paths = [p for p in (getattr(args, "json", None), getattr(args, "csv", None)) if p]
    for path in paths:
        target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ValueError(f"cannot write a report to {path!r}")
    if len(paths) == 2 and (os.path.samefile(*paths) if all(map(os.path.exists, paths))
                            else os.path.realpath(paths[0]) == os.path.realpath(paths[1])):
        raise ValueError(f"--json and --csv name the same file {paths[0]!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        _check_outputs(args)
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
