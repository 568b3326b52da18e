"""Command-line interface: exit codes, JSON/CSV shape, determinism."""
import argparse
import ast
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_boundary import FLOATS

import zetaprog.cli as cli
from zetaprog import ProgressionSpec, SmoothWindow
from zetaprog.cli import main
from zetaprog.errors import QuadratureError


def _run_json(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    rc = main(argv + ["--json", str(path)])
    return rc, json.loads(path.read_text())


def test_delta_symbolic(tmp_path):
    rc, doc = _run_json(["delta", "--alpha-rational", "1:2:1", "--beta", "0"], tmp_path)
    assert rc == 0
    assert doc["schema_version"] == 4
    assert doc["subcommand"] == "delta"
    # the exact form is stated once, in params
    assert doc["params"]["alpha_rational"] == {"ell0": 1, "m": 2, "n": 1}
    assert "exact" not in doc["results"]
    assert abs(doc["results"]["delta"] - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12


def test_delta_detection(tmp_path):
    alpha = 2.0 * math.pi / math.log(2.0)
    rc, doc = _run_json(["delta", "--alpha", repr(alpha), "--detect"], tmp_path)
    assert rc == 0
    res = doc["results"]
    assert res["delta"] == 0.0          # candidates never feed the formula
    assert "alpha_rational" not in doc["params"] and "exact" not in res
    assert res["detected_form"] == {"ell0": 1, "m": 2, "n": 1}


@pytest.mark.parametrize("argv, rc, message", [
    (["--alpha", "0.01", "--ell-max", "16"], 0, ""),
    (["--alpha", "0.0003"], 2,
     "bad configuration: exp(2*pi*ell/alpha) exceeds the exact-arithmetic configuration cap"),
], ids=["alpha-0.01", "alpha-0.0003"])
def test_detection_past_int_str_limit(argv, rc, message, tmp_path, capsys):
    # exp(2*pi*ell/alpha) passes Python's 4300-digit limit for int-to-str
    # conversion from ell = 16 at alpha = 0.01 and from ell = 1 at alpha =
    # 0.0003: the search finds nothing or refuses, and never formats it
    out = tmp_path / "x.json"
    assert main(["delta", "--detect"] + argv + ["--json", str(out)]) == rc
    assert message in capsys.readouterr().err
    if rc == 0:
        assert "detected_form" not in json.loads(out.read_text())["results"]


def test_detection_refuses_den_max_past_precision(tmp_path, capsys):
    # at 10^41 the scan once exited 0 with a form 1.0e-82 from x = e^(2*pi)
    out = tmp_path / "x.json"
    argv = ["delta", "--alpha", "1", "--detect", "--den-max", str(10 ** 41)]
    assert main(argv + ["--json", str(out)]) == 2
    assert "bad configuration: den_max must lie below 2^100" in capsys.readouterr().err
    assert not out.exists()


def test_report_to_stdout_is_the_json_report(tmp_path, capsys):
    # without --json the same report goes to stdout
    argv = ["delta", "--alpha-rational", "1:2:1", "--beta", "0.5"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    rc, doc = _run_json(argv, tmp_path)
    assert rc == 0
    del printed["run_meta"], doc["run_meta"]
    assert printed == doc


def test_dioph_csv_golden(tmp_path):
    csv = tmp_path / "t.csv"
    rc = main(["dioph", "--alpha", "1", "--T", "1e6", "--ell", "1..5",
               "--json", str(tmp_path / "d.json"), "--csv", str(csv)])
    assert rc == 0
    want = ("ell,a,b,quality\n"
            "1,none,none,none\n"
            "2,none,none,none\n"
            "3,none,none,none\n"
            "4,none,none,none\n"
            "5,none,none,none\n")
    assert csv.read_text() == want


def test_dioph_symbolic_rows(tmp_path):
    rc, doc = _run_json(["dioph", "--alpha-rational", "1:2:1", "--T", "1e4",
                         "--ell", "1,3"], tmp_path)
    assert rc == 0
    rows = doc["results"]["tuples"]
    by_ell = {r["ell"]: r for r in rows}
    assert (by_ell[1]["a"], by_ell[1]["b"]) == (2, 1)
    assert (by_ell[3]["a"], by_ell[3]["b"]) == (8, 1)
    assert by_ell[1]["quality"] == 0.0


def test_moment_outputs_and_determinism(tmp_path):
    args = ["moment", "--alpha", "1", "--T", "300"]
    rc1, doc1 = _run_json(args, tmp_path, "a.json")
    rc2, doc2 = _run_json(args, tmp_path, "b.json")
    assert rc1 == rc2 == 0
    doc1.pop("run_meta")
    doc2.pop("run_meta")
    assert doc1 == doc2
    res = doc1["results"]
    assert res["discrete"] > 0.0
    assert res["E"] == res["discrete"] - res["continuous"]
    assert res["ratio"] == res["discrete"] / res["continuous"]
    assert isinstance(res["predicted_E"], float)
    # without a prediction predicted_E is null, and nothing else moves: the
    # prediction reads no value of the sample
    rc3, doc3 = _run_json(args + ["--no-predict"], tmp_path, "c.json")
    assert rc3 == 0
    assert doc3["results"] == {**res, "predicted_E": None}


def test_moment_csv_deterministic(tmp_path):
    c1, c2 = tmp_path / "1.csv", tmp_path / "2.csv"
    base = ["moment", "--alpha", "1", "--T", "300", "--json"]
    assert main(base + [str(tmp_path / "x.json"), "--csv", str(c1)]) == 0
    assert main(base + [str(tmp_path / "y.json"), "--csv", str(c2)]) == 0
    body = c1.read_text()
    assert body == c2.read_text()
    assert body.splitlines()[0] == "ell,t,phi,abs_zeta_B_sq"


def test_firstmoment_complex_serialization(tmp_path):
    rc, doc = _run_json(["firstmoment", "--alpha", "1", "--T", "500",
                         "--theta", "0.3"], tmp_path)
    assert rc == 0
    mom = doc["results"]["discrete"]
    assert set(mom.keys()) == {"im", "re"}
    ref = doc["results"]["reference_T_phihat0"]
    assert ref == pytest.approx(500.0 * 0.95, rel=1e-12)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_report_is_strict_json(tmp_path):
    # Without a prediction predicted_E is NaN, which the report writes as
    # null: RFC 8259 parsers (jq, JSON.parse) refuse NaN and Infinity, and
    # parse_constant makes json.loads refuse them too.
    path = tmp_path / "x.json"
    assert main(["moment", "--alpha", "1", "--T", "300", "--no-predict",
                 "--json", str(path)]) == 0
    doc = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert doc["results"]["predicted_E"] is None
    assert doc["results"]["discrete"] > 0.0
    nan, inf = float("nan"), float("inf")
    assert cli._jsonable([np.float64(nan), -inf, complex(inf, 2.0), 1.5]) == \
        [None, None, {"re": None, "im": 2.0}, 1.5]


def test_nonvanish(tmp_path):
    rc, doc = _run_json(["nonvanish", "--alpha", "1", "--T", "500",
                         "--theta", "0.4"], tmp_path)
    assert rc == 0
    res = doc["results"]
    assert 0.0 <= res["bound"] <= 1.0
    assert res["empirical_fraction"] >= 1.0 / 3.0


def test_resonate(tmp_path, capsys):
    # Im R is 2.7e-2 of R at this T, an intrinsic residual the run reports
    # nothing about: it raises no warning and writes nothing to stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, doc = _run_json(["resonate", "--alpha", "1", "--T", "1000",
                             "--N", "100", "--mode", "max"], tmp_path)
    assert rc == 0
    assert capsys.readouterr().err == ""
    res = doc["results"]
    assert res["extreme"]["ratio"] > 1.0
    assert res["excluded_primes"] == []
    assert res["extreme"]["certified"] is True


def test_bad_configuration_exit_code(tmp_path):
    assert main(["moment", "--alpha", "-3", "--T", "300",
                 "--json", str(tmp_path / "x.json")]) == 2
    assert main(["dioph", "--alpha", "1", "--T", "50", "--ell", "1",
                 "--json", str(tmp_path / "y.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["nonvanish", "--alpha", "1", "--T", "300"],
    ["delta", "--alpha-rational", "1:2:1"],
    ["selftest"],
], ids=["nonvanish", "delta", "selftest"])
def test_csv_refused_without_a_table(argv, tmp_path, capsys):
    # only moment, dioph, firstmoment and resonate have a table to write;
    # elsewhere --csv once exited 0 and wrote nothing
    csv = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(tmp_path / "x.json"), "--csv", str(csv)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not csv.exists() and not (tmp_path / "x.json").exists()


def test_parser_built_once_keeps_no_state(tmp_path, capsys):
    # main parses with one parser per process; a call's options and a
    # rejected call leave nothing behind for the next call
    assert cli.build_parser() is cli.build_parser()
    first = ["moment", "--alpha", "1", "--T", "300", "--theta", "0.3", "--no-predict",
             "--beta", "0.25"]
    assert _run_json(first, tmp_path, "first.json")[1]["params"]["theta"] == 0.3
    rc, doc = _run_json(["moment", "--alpha", "1", "--T", "300"], tmp_path, "second.json")
    assert rc == 0
    assert (doc["params"]["theta"], doc["params"]["predict"], doc["params"]["beta"]) == \
        (None, True, 0.0)
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--alpha", "1", "--T", "300", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, doc = _run_json(["firstmoment", "--alpha", "1", "--T", "300"], tmp_path, "third.json")
    assert rc == 0 and doc["subcommand"] == "firstmoment"


# one run of each subcommand
_EVERY_SUBCOMMAND = [
    ["moment", "--alpha", "1", "--T", "300", "--no-predict"],
    ["delta", "--alpha-rational", "1:2:1", "--detect"],
    ["dioph", "--alpha-rational", "1:3:2", "--T", "1e4", "--ell", "1..2"],
    ["firstmoment", "--alpha", "1", "--T", "300", "--theta", "0.3"],
    ["nonvanish", "--alpha", "2", "--T", "300", "--beta", "0.5"],
    ["resonate", "--alpha", "1", "--T", "300", "--N", "100", "--mode", "min"],
    ["selftest", "--seed", "3"],
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_params_echo_every_parsed_option(argv, tmp_path):
    # a report's params are its subparser's destinations but the output
    # paths, with the progression as the spec holds it
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[argv[0]]
    dests = {a.dest for a in sub._actions} - {"help", "json", "csv"}
    args = sub.parse_args(argv[1:])
    rc, doc = _run_json(argv, tmp_path)
    assert rc == 0
    params = doc["params"]
    if argv[0] == "selftest":
        assert params == {"seed": 3}
        return
    spec = cli._spec_from(args)
    if spec.rational_form is None:
        dests.discard("alpha_rational")
    assert set(params) == dests
    assert (params["alpha"], params["beta"]) == (spec.alpha, spec.beta)
    assert {k: params[k] for k in dests - {"alpha", "alpha_rational", "beta"}} == \
        {k: getattr(args, k) for k in dests - {"alpha", "alpha_rational", "beta"}}
    if argv[0] == "moment":
        assert params["predict"] is False
    if "edge" in dests:  # the window's own default, not a copy of it
        assert params["edge"] == SmoothWindow.edge


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_results_repeat_no_parsed_option(argv, tmp_path):
    # params are the one place a report states an option, and no field holds
    # a value it could not vary (a "candidate" flag was always one value)
    rc, doc = _run_json(argv, tmp_path)
    assert rc == 0

    def keys(node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield k
                yield from keys(v)

    assert not set(keys(doc["results"])) & set(doc["params"])
    assert '"candidate":' not in json.dumps(doc)


@pytest.mark.parametrize("subcommand", [
    ["moment", "--alpha", "1", "--T", "300", "--no-predict"],
    ["resonate", "--alpha", "1", "--T", "300", "--N", "100", "--mode", "max"],
], ids=["moment", "resonate"])
@pytest.mark.parametrize("bad", ["json", "csv", "dir"])
def test_unwritable_output_refused_before_work(subcommand, bad, tmp_path, monkeypatch,
                                               capsys):
    # A --json or --csv path in a missing directory, or a path that is a
    # directory, is refused with exit 2 before the sample is taken, and the
    # other report is not written either.
    calls = []
    monkeypatch.setattr(cli.mmod, "sample_progression",
                        lambda *args, **kwargs: calls.append(args))
    missing = str(tmp_path / "missing" / "r")
    paths = {"json": str(tmp_path / "x.json"), "csv": str(tmp_path / "x.csv")}
    paths.update({"json": missing + ".json"} if bad == "json" else
                 {"csv": missing + ".csv"} if bad == "csv" else {"csv": str(tmp_path)})
    assert main(subcommand + ["--json", paths["json"], "--csv", paths["csv"]]) == 2
    err = capsys.readouterr().err
    assert "bad configuration: cannot write a report to" in err and "Traceback" not in err
    assert calls == []
    assert not any(os.path.isfile(p) for p in paths.values())


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink", "hardlink"])
def test_json_and_csv_on_one_file_refused_before_work(spelling, tmp_path, monkeypatch,
                                                      capsys):
    # the CSV written second once replaced the JSON report, with exit 0
    calls = []
    monkeypatch.setattr(cli.mmod, "continuous_twisted_moment",
                        lambda *args, **kwargs: calls.append(args))
    path = tmp_path / "r.out"
    other = {"same": path, "dotted": tmp_path / "." / "r.out",
             "symlink": tmp_path / "link.out", "hardlink": tmp_path / "link.out"}[spelling]
    if spelling == "symlink":
        other.symlink_to(path)
    if spelling == "hardlink":
        path.touch()
        os.link(path, other)
    assert main(["moment", "--alpha", "1", "--T", "300", "--no-predict",
                 "--json", str(path), "--csv", str(other)]) == 2
    err = capsys.readouterr().err
    assert "bad configuration: --json and --csv name the same file" in err
    assert calls == []
    assert not path.exists() or path.read_text() == ""


@pytest.mark.parametrize("option, argv", [
    ("--T", ["moment", "--alpha", "1", "--T", "nan"]),
    ("--beta", ["moment", "--alpha", "1", "--beta", "nan", "--T", "300"]),
    ("--alpha", ["moment", "--alpha", "inf", "--T", "300"]),
], ids=["T-nan", "beta-nan", "alpha-inf"])
def test_non_finite_option_exit_code(option, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("option, argv", [
    ("--den-max", ["delta", "--alpha", "9.064720283654388", "--detect", "--den-max", "0"]),
    ("--ell-max", ["delta", "--alpha", "9.064720283654388", "--detect", "--ell-max", "0"]),
    ("--seed", ["selftest", "--seed", "-1"]),
], ids=["den-max", "ell-max", "seed"])
def test_bad_integer_option_exit_code(option, argv, monkeypatch, capsys):
    # a detection bound below 1 once exited 0 with no detected_form, and a
    # negative seed exited 2 with numpy's message, naming no option
    monkeypatch.setattr(cli.dmod, "detect_rational", _unreachable)
    monkeypatch.setattr(cli, "_selftest_checks", _unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["delta", "--alpha", "abc"], "argument --alpha: not a number: 'abc'"),
    (["delta", "--alpha-rational", "1:2"], "--alpha-rational expects ell0:m:n"),
    (["delta", "--alpha-rational", "1:x:1"], "bad --alpha-rational '1:x:1'"),
], ids=["alpha-not-a-number", "rational-arity", "rational-not-int"])
def test_malformed_option_exit_code(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("ell", ["0", "3..1", "1..", "x", "1..2.5", ""])
def test_bad_ell_range_exit_code(ell, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dioph", "--alpha", "1", "--T", "1e4", "--ell", ell])
    assert exc.value.code == 2
    assert f"argument --ell: bad ell range {ell!r}" in capsys.readouterr().err


@pytest.mark.parametrize("ell, searched", [("1..2,2", [1, 2]), ("3,1,3", [3, 1])])
def test_repeated_ell_searched_once(ell, searched, tmp_path, monkeypatch):
    # each value is searched and reported once, at its first occurrence
    calls = []
    find_tuple = cli.dmod.find_tuple
    monkeypatch.setattr(cli.dmod, "find_tuple",
                        lambda spec, e, *args: calls.append(e) or find_tuple(spec, e, *args))
    csv = tmp_path / "t.csv"
    rc, doc = _run_json(["dioph", "--alpha-rational", "1:2:1", "--T", "1e4", "--ell", ell,
                         "--csv", str(csv)], tmp_path)
    assert rc == 0
    assert calls == searched
    assert doc["params"]["ell"] == searched
    assert "searched" not in doc["results"]
    assert [t["ell"] for t in doc["results"]["tuples"]] == searched
    assert [row.split(",")[0] for row in csv.read_text().splitlines()[1:]] == \
        [str(e) for e in searched]


def test_ell_range_past_budget_exit_code(monkeypatch, capsys):
    # counted from its ends before any list is built or any tuple searched
    monkeypatch.setattr(cli.dmod, "find_tuple", lambda *args: pytest.fail("searched"))
    with pytest.raises(SystemExit) as exc:
        main(["dioph", "--alpha", "1", "--T", "1e4", "--ell", "1..8388609"])
    assert exc.value.code == 2
    assert ("argument --ell: 8388609 values exceed the budget of 8388608"
            in capsys.readouterr().err)


def test_rs_ceiling_exit_code(tmp_path, monkeypatch, capsys):
    # heights from 1e5 * 300 = 3e7 > RS_MAX_T: zeta refuses them before the
    # mollifier's Dirichlet sum B is taken
    kernel = []
    monkeypatch.setattr(cli.zmod, "progression_sum", lambda *args: kernel.append(args))
    out = tmp_path / "x.json"
    assert main(["nonvanish", "--alpha", "1e5", "--T", "300", "--json", str(out)]) == 1
    assert "AccuracyError" in capsys.readouterr().err
    assert not out.exists()
    assert kernel == []


@pytest.mark.parametrize("argv", [
    ["moment", "--alpha", "1e308", "--T", "300", "--no-predict"],
    ["firstmoment", "--alpha", "1e308", "--T", "300"],
    ["nonvanish", "--alpha", "1e308", "--T", "300"],
    ["resonate", "--alpha", "1e308", "--T", "300", "--N", "100", "--mode", "max"],
], ids=["moment", "firstmoment", "nonvanish", "resonate"])
def test_overflowing_heights_exit_code(argv, tmp_path, capsys):
    # alpha*T overflows to inf: refused by the options that make it, before
    # any builder meets inf or numpy warns of an overflow
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad configuration" in err and "--alpha" in err and "--T" in err
    assert not out.exists()


def test_computation_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("injected failure")

    monkeypatch.setattr(cli.mmod, "predict_E", boom)
    assert main(["moment", "--alpha", "1", "--T", "300",
                 "--json", str(tmp_path / "x.json")]) == 1


def _unreachable(*args, **kwargs):
    raise AssertionError("reached past the boundary checks")


_CAP = "computation failed: CapError: progression sample of "
# the continuous moment's start level at 2.0169 per unit rounds up to 3 nodes
# per unit, 3e6 + 1 nodes over [1e6, 2e6]: past the trapezoid's 2^21
_QUAD = "computation failed: QuadratureError: the trapezoid at 2.0169"
# at alpha = 1e5 the start level refuses 76738501 nodes at once; predicting
# first would spend seconds and then fail inside predict_E
_QUAD_STEEP = "computation failed: QuadratureError: the trapezoid at 255794.54"
# heights alpha*t + beta that reach 0 on [T, 2T] have no predicted E
_HEIGHTS = "bad configuration: predict_E requires heights alpha*T + beta > 0"
_EDGE = "bad configuration: edge must lie in (0, 1/2), got 0.7"


@pytest.mark.parametrize("argv, rc, message", [
    (["nonvanish", "--alpha", "1", "--T", "1e9"], 1, _CAP + "1000000001 nodes"),
    (["moment", "--alpha", "1", "--T", "1e9"], 1, _CAP + "1000000001 nodes"),
    (["nonvanish", "--alpha", "1", "--T", "1e14", "--theta", "0.49"], 1,
     _CAP + "100000000000001 nodes"),
    (["resonate", "--alpha", "1", "--T", "1e9", "--N", "2000000", "--mode", "max"], 1,
     _CAP + "1000000001 nodes"),
    (["moment", "--alpha", "1", "--T", "1e17", "--theta", "0.49"], 1,
     _CAP + "100000000000000001 nodes"),
    (["resonate", "--alpha", "1", "--T", "1e9", "--N", "50", "--mode", "max"], 2,
     "bad configuration: resonator_coeffs requires N >= 100"),
    (["moment", "--alpha", "1", "--T", "1e9", "--theta", "0.7"], 2,
     "bad configuration: theta must lie in (0, 1/2)"),
    (["firstmoment", "--alpha", "1", "--T", "50"], 2,
     "bad configuration: find_tuple requires T >= 100"),
    (["moment", "--alpha", "1", "--T", "50"], 2,
     "bad configuration: find_tuple requires T >= 100"),
    (["moment", "--alpha", "1", "--T", "300", "--eps", "0.5"], 2,
     "bad configuration: eps must lie in (0, 1/2)"),
    (["nonvanish", "--alpha", "1", "--T", "50"], 2,
     "bad configuration: mollifier_coeffs requires T >= 100"),
    (["resonate", "--alpha", "1", "--T", "50", "--N", "100", "--mode", "max"], 2,
     "bad configuration: build_excluded_set requires T >= 100"),
    (["moment", "--alpha", "1", "--T", "1e6", "--no-predict"], 1, _QUAD),
    (["firstmoment", "--alpha", "1", "--T", "1e6"], 1, _QUAD),
    (["moment", "--alpha", "1e5", "--T", "300"], 1, _QUAD_STEEP),
    (["firstmoment", "--alpha", "1e5", "--T", "300"], 1, _QUAD_STEEP),
    (["moment", "--alpha-rational", "1:2:1", "--T", "300", "--beta", "-9000"], 2, _HEIGHTS),
    (["moment", "--alpha-rational", "1:2:1", "--T", "300", "--beta", "-4000"], 2, _HEIGHTS),
    (["moment", "--alpha", "2.3", "--T", "1000", "--beta", "-20000"], 2, _HEIGHTS),
    (["nonvanish", "--alpha", "1", "--T", "300", "--threshold", "-1"], 2,
     "bad configuration: threshold must be >= 0"),
    (["resonate", "--alpha", "1", "--T", "1e5", "--N", "100", "--mode", "max",
      "--edge", "0.7"], 2, _EDGE),
    # the window is built before the node budget, as resonate builds it
    (["moment", "--alpha", "1", "--T", "1e9", "--edge", "0.7"], 2, _EDGE),
    (["firstmoment", "--alpha", "1", "--T", "1e9", "--edge", "0.7"], 2, _EDGE),
    (["nonvanish", "--alpha", "1", "--T", "1e9", "--edge", "0.7"], 2, _EDGE),
    (["resonate", "--alpha", "1", "--T", "1e5", "--N", "6000000", "--mode", "max"], 1,
     "computation failed: CapError: resonator length 6000000 exceeds the memory cap"),
    # find_tuple would refuse T = 50; a moment that predicts nothing never asks it
    (["moment", "--alpha", "1", "--T", "50", "--no-predict"], 0, ""),
    # T^(eps-1) finer than x at 256 bits: refused before the node budget, and
    # dioph, which has no budget, writes no tuple read off x's rounding
    (["moment", "--alpha", "1", "--T", "1e80"], 2,
     "bad configuration: find_tuple's tolerance T^(eps-1) at T = 1e+80, eps = 0.05"),
    (["dioph", "--alpha", "1", "--T", "1e200", "--ell", "1..3"], 2,
     "bad configuration: find_tuple's tolerance T^(eps-1) at T = 1e+200, eps = 0.05"),
], ids=["nonvanish", "moment", "nonvanish-mollified", "resonate", "moment-overlong-mollifier",
        "resonate-short-N", "moment-theta", "firstmoment-small-T", "moment-small-T",
        "moment-eps", "nonvanish-small-T", "resonate-small-T",
        "moment-continuous-start", "firstmoment-continuous-start",
        "moment-sample-before-prediction", "firstmoment-sample-before-prediction",
        "moment-negative-heights", "moment-heights-through-0", "moment-float-negative-heights",
        "nonvanish-threshold", "resonate-edge", "moment-edge", "firstmoment-edge",
        "nonvanish-edge", "resonate-overlong-N", "moment-no-predict-small-T",
        "moment-tolerance-below-x-bits", "dioph-tolerance-below-x-bits"])
def test_node_budget_exit_code(argv, rc, message, tmp_path, monkeypatch, capsys):
    # Refused before any array is allocated, and before the mollifier, the
    # excluded set, the resonator or the sample is built; the mollifier of
    # moment-overlong-mollifier would hold T^0.49 = 2.1e8 coefficients.  A
    # builder's T, theta, N or eps check runs before the node budget, with
    # the builder's own message, and so do nonvanish's threshold check, the
    # resonator's support cap and every subcommand's window edge.  The
    # continuous moment's start level is checked before the sample too, and
    # the sample's refusals before either prediction, whose work has no
    # budget yet.  A check runs only where the run reaches its builder.
    for mod, name in ((cli.mmod, "mollifier_coeffs"), (cli.mmod, "sample_progression"),
                      (cli.mmod, "predict_E"), (cli.mmod, "predict_E_prime"),
                      (cli.rmod, "build_excluded_set"), (cli.rmod, "resonator_coeffs")):
        monkeypatch.setattr(mod, name, _unreachable)
    out = tmp_path / "x.json"
    assert main(argv + ["--json", str(out)]) == rc
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert out.exists() == (rc == 0)


def test_continuous_start_refusal_names_its_cost(tmp_path, capsys):
    # the refusal names the rounded start and its node count against the
    # budget, so a reader sees how far past it the run is
    out = tmp_path / "x.json"
    assert main(["moment", "--alpha", "1.0", "--T", "1e6", "--no-predict",
                 "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("starts at 3 per unit, 3000001 start nodes against the budget of 2097152"
            in err), err
    assert not out.exists()


@pytest.mark.parametrize("T", ["0.49", "1e-100", "1e-300", "5e-324"])
def test_empty_window_exit_code(T, capsys):
    # Below T = 1/2 the window [T, 2T] holds no integer node, and the run is
    # refused before any work.  From T = 1.5e-162 down, T**2 underflows to 0,
    # where the bound on the integrand's frequencies once stopped the run
    # with a bare "math domain error".
    assert main(["moment", "--no-predict", "--alpha", "1", "--T", T,
                 "--json", os.devnull]) == 2
    err = capsys.readouterr().err
    assert f"no integer node at T = {float(T)!r}" in err and "Traceback" not in err


# Per subcommand: its fixed arguments and its float options.  A run gives
# any float of test_boundary.FLOATS to at most two options; of the others, T
# and alpha come from bands where a sample holds several nodes and stays
# cheap, and the rest keep their defaults, so that many runs get to compute.
_FLOAT_OPTIONS = {
    "moment": (["--no-predict"], ("alpha", "T", "beta", "theta", "edge", "eps")),
    "firstmoment": ([], ("alpha", "T", "beta", "theta", "edge", "eps")),
    "nonvanish": ([], ("alpha", "T", "beta", "theta", "edge", "threshold")),
    "resonate": (["--N", "100", "--mode", "max"], ("alpha", "T", "beta", "eps", "edge")),
}
# T below 100 is refused by find_tuple, the mollifier and the excluded set.
_BANDS = {"T": st.one_of(st.floats(1.0, 400.0), st.floats(100.0, 400.0)),
          "alpha": st.floats(0.5, 20.0)}


@pytest.mark.parametrize("subcommand", list(_FLOAT_OPTIONS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_float_options_exit_cleanly(subcommand, data):
    # Every float an option accepts ends in exit 0, 1 or 2 (argparse's exit
    # included), never in an uncaught exception or a traceback on stderr.
    fixed, options = _FLOAT_OPTIONS[subcommand]
    wild = data.draw(st.sets(st.sampled_from(options), max_size=2), label="wild")
    argv = [subcommand] + fixed + ["--json", os.devnull]
    for name in options:
        if name in wild or name in _BANDS:
            value = data.draw(FLOATS if name in wild else _BANDS[name], label=name)
            argv.append(f"--{name}={value!r}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv, A_by_kernel", [
    (["moment", "--alpha", "1", "--beta", "0.25", "--T", "300"], False),
    (["firstmoment", "--alpha", "1", "--beta", "0.25", "--T", "300", "--theta", "0.3"], False),
    (["nonvanish", "--alpha", "1", "--beta", "0.25", "--T", "300"], False),
    (["resonate", "--alpha", "1", "--beta", "0.25", "--T", "300", "--N", "100",
      "--mode", "max"], False),
    (["resonate", "--alpha-rational", "1:2:1", "--beta", "0.25", "--T", "300", "--N", "100",
      "--mode", "max"], True),
], ids=["moment", "firstmoment", "nonvanish", "resonate", "resonate-direct"])
def test_cli_samples_progression_once(argv, A_by_kernel, tmp_path, monkeypatch):
    # Every evaluation of zeta and of a Dirichlet sum (B, and the resonator's
    # main sum A) on the progression, in call order, tagged by the caller it
    # serves.  The continuous moment samples its own grid j / p, which holds
    # the integers too, and extreme_search computes A; both are tracked apart
    # from the run's sample.  The kernel calls zeta_on_progression makes for
    # its own Dirichlet sums are tagged "zeta", apart from the B and A calls.
    # moment and firstmoment cut their integer sample from the continuous
    # moment's start level, so their run scope evaluates nothing itself.
    calls = []
    scope = ["run"]

    def counting(name, fn, nodes):
        def wrapped(*args, **kwargs):
            calls.append((name, scope[-1], nodes(*args, **kwargs)))
            return fn(*args, **kwargs)
        return wrapped

    def scoped(tag, fn):
        def wrapped(*args, **kwargs):
            scope.append(tag)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()
        return wrapped

    def seen(name, tag):
        return [run for n, t, run in calls if (n, t) == (name, tag)]

    def unreachable(*args, **kwargs):
        raise AssertionError("a CLI run reached zeta_critical_grid")

    # both see a progression as (first height, step, count)
    monkeypatch.setattr(cli.zmod, "zeta_on_progression",
                        counting("zeta", scoped("zeta", cli.zmod.zeta_on_progression),
                                 lambda t0, h, count: (t0, h, count)))
    monkeypatch.setattr(cli.zmod, "progression_sum",
                        counting("kernel", cli.zmod.progression_sum,
                                 lambda ns, coeffs, t0, h, count, starts=None: (t0, h, count)))
    monkeypatch.setattr(cli.zmod, "zeta_critical_grid", unreachable)
    monkeypatch.setattr(cli.mmod, "continuous_twisted_moment",
                        scoped("continuous", cli.mmod.continuous_twisted_moment))
    monkeypatch.setattr(cli.rmod, "extreme_search",
                        scoped("resonator", cli.rmod.extreme_search))
    csv = tmp_path / "rows.csv"
    run = argv + ["--json", str(tmp_path / "x.json")]
    if argv[0] != "nonvanish":  # nonvanish writes no table
        run += ["--csv", str(csv)]
    assert main(run) == 0

    T = 300
    alpha = 1.0 if "--alpha" in argv else ProgressionSpec.from_rational(1, 2, 1).alpha
    nodes = alpha * np.arange(T, 2 * T + 1) + 0.25
    by_level = argv[0] in ("moment", "firstmoment")
    want_run = [] if by_level else [(nodes[0], alpha, len(nodes))]
    assert seen("zeta", "run") == want_run
    assert seen("kernel", "run") == want_run
    # inside zeta_on_progression the kernel tiles the call's progression in
    # order, one call per engine sub-run, so each node is summed once and
    # no call makes more than three kernel calls
    for i, (name, _, (t0, h, count)) in enumerate(calls):
        if name == "zeta":
            done = kernel_calls = 0
            for _, tag, (first, step, n) in calls[i + 1:]:
                if tag != "zeta":
                    break
                assert (first, step) == (t0 + h * done, h)
                done += n
                kernel_calls += 1
            assert done == count
            assert kernel_calls <= 3
    # across the run and the continuous moment, no height is evaluated
    # twice, and the integer heights are among the continuous moment's
    for name in ("zeta", "kernel"):
        runs = seen(name, "run") + seen(name, "continuous")
        assert bool(seen(name, "continuous")) == by_level
        heights = np.sort(np.concatenate([t0 + h * np.arange(count) for t0, h, count in runs]))
        assert np.all(np.diff(heights) > 1e-6)
        assert np.all(np.min(np.abs(heights[:, None] - nodes), axis=0) < 1e-9)
    # A reads the sample's zeta, or sums n <= T once over the phi > 0 nodes
    assert seen("zeta", "resonator") == []
    want_A = [(nodes[1], alpha, len(nodes) - 2)] if A_by_kernel else []
    assert seen("kernel", "resonator") == want_A
    if argv[0] != "nonvanish":
        header, *rows = csv.read_text().splitlines()
        assert len(rows) == math.floor(2 * T) - math.ceil(T) + 1
        # the first row is ell = T, where phi (and so the resonator mass) is 0
        col = header.split(",").index("resonator_mass" if argv[0] == "resonate" else "phi")
        assert float(rows[0].split(",")[col]) == 0.0


def test_cli_reads_public_moments_and_prechecks():
    # of moments' private names the CLI reads only the _check_* pre-checks,
    # which refuse a configuration before any work; every computation goes
    # through a public name
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "mmod" and node.attr.startswith("_")}
    assert "_check_sample_budget" in private
    assert {name for name in private if not name.startswith("_check_")} == set()


def _table(*columns):
    """cli._csv_blocks of the columns under the header c0, c1, ..., joined as text."""
    return b"".join(cli._csv_blocks([f"c{j}" for j in range(len(columns))],
                                    list(columns))).decode()


def _cells(col):
    """The cells of a one-column table."""
    return _table(col).splitlines()[1:]


def _joined(*columns):
    """The oracle: the header, then _csv_cell of every entry of every row,
    joined by "," and ended by a newline."""
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    lines = [",".join(f"c{j}" for j in range(len(columns)))]
    lines += [",".join(map(cli._csv_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_csv_column_matches_cell():
    # 1e-4 and 1e16, where repr's and orjson's spellings part, each with its
    # neighbours on both sides, in both signs
    edges = [x for v in (1e-4, 1e16)
             for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]
    floats = np.array([-0.0, 0.0, 1e16, 5e-324, 0.1, -2.5e-300, 1.0 / 3.0,
                       math.nan, math.inf, -math.inf, 1e-5, 123456789012345.6,
                       *edges, *(-x for x in edges)])
    ints = np.array([0, -7, 2 ** 62, -2 ** 63, 2 ** 63 - 1], dtype=np.int64)
    unsigned = np.array([0, 2 ** 64 - 1], dtype=np.uint64)
    for col in (floats, ints, unsigned, ints[:3].astype(np.int32), ints.astype(">i8")):
        assert _cells(col) == [cli._csv_cell(c) for c in col.tolist()]
    assert _cells(floats)[:4] == ["-0.0", "0.0", "1e+16", "5e-324"]
    assert _cells(floats)[7:11] == ["nan", "inf", "-inf", "1e-05"]
    assert _cells(ints)[3:] == ["-9223372036854775808", "9223372036854775807"]
    mixed = (3, "none", 0.5)
    assert _cells(mixed) == ["3", "none", "0.5"]


def test_csv_column_shapes():
    # firstmoment passes the .real and .imag views of a complex array, which
    # are not contiguous; an empty column has no cell; a float32 column is
    # written by repr of its float64 value, not by float32's shortest text
    vals = np.array([0.1 + 1e-5j, -3e17 + 2.5j, complex(1e-300, -0.0)])
    assert not vals.real.flags.c_contiguous
    assert _cells(vals.real) == ["0.1", "-3e+17", "1e-300"]
    assert _cells(vals.imag) == ["1e-05", "2.5", "-0.0"]
    assert _table(vals.real, vals.imag) == "c0,c1\n0.1,1e-05\n-3e+17,2.5\n1e-300,-0.0\n"
    for dtype in (np.float64, np.int64):
        assert _cells(np.array([], dtype=dtype)) == []
    single = np.array([0.1, 1e-5, math.nan], dtype=np.float32)
    assert _cells(single) == ["0.10000000149011612", "9.999999747378752e-06", "nan"]
    byteswapped = np.array([0.1, 1e16], dtype=">f8")
    assert _cells(byteswapped) == ["0.1", "1e+16"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(xs=st.lists(st.floats(), max_size=40))
def test_csv_column_is_repr(xs):
    # every float64, NaN, +-inf and subnormals included, is written as repr
    col = np.array(xs, dtype=np.float64)
    assert _cells(col) == [repr(x) for x in xs]


def test_csv_table_integer_bounds():
    # orjson writes an integer column as float64, exact only strictly inside
    # (-2**53, 2**53); from 2**53 on a column is joined cell by cell.  Each
    # sits next to a float column whose cells orjson and repr spell apart.
    floats = np.array([1e-5, math.nan, 0.5, -1e16, 2.5])
    inside = [2 ** 53 - 1, -(2 ** 53 - 1)]
    for ends, fits in ((inside, True), ([2 ** 53, 0], False), ([0, -2 ** 53], False),
                       ([-2 ** 63, 1], False)):
        col = np.array([*ends, 0, -1, 7], dtype=np.int64)
        assert cli._fits_orjson(col) is fits
        for table in ((floats, col), (col, floats), (floats, col, floats)):
            assert _table(*table) == _joined(*table)
    assert _table(floats, np.array([*inside, 0, 1, 2])).splitlines()[1:3] == [
        "1e-05,9007199254740991", "nan,-9007199254740991"]
    unsigned = np.array([2 ** 53 - 1, 2 ** 53, 0, 1, 2], dtype=np.uint64)
    assert not cli._fits_orjson(unsigned)
    assert _table(floats, unsigned) == _joined(floats, unsigned)


def test_csv_table_integer_column_not_first():
    # an integer cell drops its ".0" wherever it stands in the row, and a
    # cell redone by repr after it lands in the compacted text
    ell = np.arange(-2, 3)
    a = np.array([1e-7, 0.25, math.inf, -0.0, 3e20])
    b = np.array([-1e-300, 1e16, 0.125, math.nan, 7.0])
    for table in ((a, ell, b), (a, b, ell), (ell, a, ell.astype(np.int32), b)):
        assert _table(*table) == _joined(*table)
    assert _table(a, ell, b).splitlines()[1:3] == ["1e-07,-2,-1e-300", "0.25,-1,1e+16"]


def test_csv_table_degenerate_shapes():
    # one column is one cell per row; a table without rows, or without
    # columns (dioph with no ell), is its header line
    col = np.array([3.0, 1e-9, -4.5])
    assert _table(col) == "c0\n3.0\n1e-09\n-4.5\n"
    assert _table(np.arange(3)) == "c0\n0\n1\n2\n"
    empty = np.array([])
    assert _table(empty, empty.astype(np.int64), ()) == "c0,c1,c2\n"
    assert b"".join(cli._csv_blocks(["ell", "a"], [])) == b"ell,a\n"


def test_csv_table_refuses_unequal_columns(tmp_path):
    # zip once cut every column to the shortest, dropping rows unseen; a
    # mismatch is refused before either report is written
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        b"".join(cli._csv_blocks(["a", "b"], [np.zeros(3), np.arange(2)]))
    with pytest.raises(ValueError, match=r"\[2, 2, 1\]"):
        b"".join(cli._csv_blocks(["a", "b", "c"], [np.zeros(2), (1, "none"), ("none",)]))
    args = argparse.Namespace(subcommand="moment", json=str(tmp_path / "x.json"),
                              csv=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="differ in length"):
        cli._emit(args, None, {}, 0.0, ["a", "b"], [np.zeros(3), np.zeros(4)])
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.integers(1, 4), n=st.integers(0, 12))
def test_csv_table_is_repr(data, k, n):
    # whole tables: 1-4 float columns, every float64 among them, and one
    # int64 column at a drawn position, against the repr/str join
    floats = [data.draw(st.lists(st.floats(), min_size=n, max_size=n)) for _ in range(k)]
    ints = data.draw(st.lists(st.integers(-2 ** 53 + 1, 2 ** 53 - 1), min_size=n, max_size=n))
    at = data.draw(st.integers(0, k))
    columns = [np.array(xs, dtype=np.float64) for xs in floats]
    columns.insert(at, np.array(ints, dtype=np.int64))
    lists = [*floats]
    lists.insert(at, ints)
    want = [",".join(f"c{j}" for j in range(k + 1))] + [
        ",".join(str(c) if j == at else repr(c) for j, c in enumerate(row))
        for row in zip(*lists)]
    assert _table(*columns) == "".join(line + "\n" for line in want)


_REDO = [math.nan, math.inf, -math.inf, 1e-05, 1e16]


def _emitted_csv(path, monkeypatch, rows_a_block, header, columns):
    """The CSV file _emit streams of the columns at rows_a_block rows a block."""
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", rows_a_block * len(columns))
    args = argparse.Namespace(subcommand="moment", json=str(path / "x.json"),
                              csv=str(path / "x.csv"))
    cli._emit(args, None, {}, 0.0, header, columns)
    return (path / "x.csv").read_text()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.integers(1, 4), n=st.integers(0, 12),
       rows_a_block=st.integers(1, 3))
def test_csv_blocks_are_the_repr_join(tmp_path_factory, data, k, n, rows_a_block):
    # test_csv_table_is_repr's tables, streamed 1-3 rows a block, with the
    # cells redone by repr drawn often enough to land on a block's edges
    cell = st.one_of(st.floats(), st.sampled_from(_REDO))
    floats = [data.draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(k)]
    ints = data.draw(st.lists(st.integers(-2 ** 53 + 1, 2 ** 53 - 1), min_size=n, max_size=n))
    at = data.draw(st.integers(0, k))
    columns = [np.array(xs, dtype=np.float64) for xs in floats]
    columns.insert(at, np.array(ints, dtype=np.int64))
    header = [f"c{j}" for j in range(k + 1)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = _emitted_csv(tmp_path_factory.getbasetemp(), monkeypatch, rows_a_block,
                           header, columns)
    assert got == _joined(*columns)


@pytest.mark.parametrize("rows_a_block", [1, 2, 3])
def test_csv_blocks_redo_cells_at_block_edges(rows_a_block, tmp_path, monkeypatch):
    # every block opens and closes on a cell redone by repr, with an integer
    # cell between them, and the last block is one row
    n = 2 * rows_a_block + 1
    first = [_REDO[i % 5] for i in range(n)]
    last = [_REDO[(i + 2) % 5] for i in range(n)]
    columns = [np.array(first), np.arange(n) - 1, np.array(last)]
    monkeypatch.setattr(cli, "_CSV_BLOCK_CELLS", 3 * rows_a_block)
    blocks = list(cli._csv_blocks(["a", "ell", "b"], columns))[1:]
    assert [block.count(b"\n") for block in blocks] == [rows_a_block] * 2 + [1]
    assert [(block.split(b",")[0], block.split(b",")[-1]) for block in blocks] == [
        (repr(first[lo]).encode(), repr(last[min(lo + rows_a_block, n) - 1]).encode() + b"\n")
        for lo in range(0, n, rows_a_block)]
    want = _joined(*columns).replace("c0,c1,c2", "a,ell,b", 1)
    assert _emitted_csv(tmp_path, monkeypatch, rows_a_block, ["a", "ell", "b"], columns) == want


def test_emit_streams_the_table_in_bounded_memory(tmp_path):
    # the table is made and written a block of rows at a time, so _emit's
    # traced peak beyond its input columns is the same at 50 000 and 200 000
    # rows, where the whole table as one text and its masks took 21 and 84 MB
    import orjson  # noqa: F401  (the first table's import is no part of the peak)
    args = argparse.Namespace(subcommand="resonate", json=str(tmp_path / "x.json"),
                              csv=str(tmp_path / "x.csv"))
    peaks = []
    for n in (50_000, 200_000):
        ell = np.arange(n)
        columns = [ell, 1e4 + 0.5 * ell, np.abs(np.sin(ell)), np.sin(ell) ** 4 * 1e-2]
        tracemalloc.start()
        try:
            cli._emit(args, None, {}, 0.0, ["ell", "t", "abs_zeta", "resonator_mass"], columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        with open(tmp_path / "x.csv", "rb") as fh:
            assert sum(1 for _ in fh) == n + 1
    assert max(peaks) < 2 * 2 ** 20, f"peaks {[p / 2 ** 20 for p in peaks]} MB"
    assert abs(peaks[1] - peaks[0]) < 0.1 * 2 ** 20


def test_emit_csv_is_the_repr_join(tmp_path):
    t = np.array([300.0, 300.5, 1e16, 2.5e-7])
    vals = np.array([1 + 1e-5j, complex(math.nan, math.inf), complex(-0.0, 0.25), 3e-310 + 2j])
    ell = np.arange(300, 304)
    columns = [ell, t, vals.real, vals.imag, ("none", 2, 0.5, "none")]
    args = argparse.Namespace(subcommand="moment", json=str(tmp_path / "x.json"),
                              csv=str(tmp_path / "x.csv"))
    rows = [["ell", "t", "re", "im", "q"]] + [
        [str(e), repr(a), repr(b), repr(c), d if isinstance(d, str) else
         repr(d) if isinstance(d, float) else str(d)]
        for e, a, b, c, d in zip(ell.tolist(), t.tolist(), vals.real.tolist(),
                                 vals.imag.tolist(), columns[-1])]
    want = "".join(",".join(row) + "\n" for row in rows)
    assert want.splitlines()[3] == "302,1e+16,-0.0,0.25,0.5"
    cli._emit(args, None, {}, 0.0, rows[0], columns)
    assert (tmp_path / "x.csv").read_text() == want
    # without the tuple column every column is an ndarray: one orjson dump
    cli._emit(args, None, {}, 0.0, rows[0][:4], columns[:4])
    assert (tmp_path / "x.csv").read_text() == "".join(",".join(row[:4]) + "\n" for row in rows)


def test_cli_runs_without_scipy(tmp_path):
    # The package needs numpy, mpmath and orjson only: with scipy unimportable
    # the CLI still imports, passes its selftest and runs the main experiments.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    experiments = [["moment", "--alpha", "1", "--T", "300"],
                   ["firstmoment", "--alpha", "1", "--T", "300", "--theta", "0.3"],
                   ["resonate", "--alpha", "1", "--T", "300", "--N", "100", "--mode", "max"]]
    runs = [["selftest", "--json", str(tmp_path / "selftest.json")]] + [
        argv + ["--json", str(tmp_path / f"{i}.json"), "--csv", str(tmp_path / f"{i}.csv")]
        for i, argv in enumerate(experiments)]
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "from zetaprog.cli import main\n"
             f"print([main(argv) for argv in {runs!r}])\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0, 0, 0]"


def test_orjson_loaded_only_to_write_a_table(tmp_path):
    # importing the CLI and a run without --csv leave orjson unloaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys\n"
             "from zetaprog.cli import main\n"
             "seen = ['orjson' in sys.modules]\n"
             f"main(['delta', '--alpha-rational', '1:2:1', '--json', {str(tmp_path / 'd.json')!r}])\n"
             "seen.append('orjson' in sys.modules)\n"
             f"main(['moment', '--alpha', '1', '--T', '300', '--no-predict', '--json', "
             f"{str(tmp_path / 'x.json')!r}, '--csv', {str(tmp_path / 'x.csv')!r}])\n"
             "seen.append('orjson' in sys.modules)\n"
             "print(seen)\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[False, False, True]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("zetaprog ")


def test_selftest_passes(tmp_path):
    rc, doc = _run_json(["selftest"], tmp_path)
    assert rc == 0
    assert all(c["passed"] for c in doc["results"]["checks"])


class _WiderRamps(SmoothWindow):
    # phi's ramps 1e-6 wider, so its mass is 1e-6 below 1 - edge
    def phi(self, x):
        return SmoothWindow(edge=self.edge + 1e-6).phi(x)


class _HeavierMass(SmoothWindow):
    # the cached mass, and with it phi_hat(0), 1e-6 above phi's
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "plateau_mass", self.plateau_mass + 1e-6)


@pytest.mark.parametrize("window", [_WiderRamps, _HeavierMass])
def test_selftest_fails_on_a_window_mass_off_by_1e_6(window, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SmoothWindow", window)
    rc, doc = _run_json(["selftest"], tmp_path)
    assert rc == 1
    failed = [c["name"] for c in doc["results"]["checks"] if not c["passed"]]
    assert failed == ["window_phihat0"]
