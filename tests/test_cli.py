"""Command-line interface: exit codes, JSON/CSV shape, determinism."""
import json
import math
import warnings

import numpy as np
import pytest

import zetaprog.cli as cli
from zetaprog.cli import main
from zetaprog.errors import QuadratureError


def _run_json(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    rc = main(argv + ["--json", str(path)])
    return rc, json.loads(path.read_text())


def test_delta_symbolic(tmp_path):
    rc, doc = _run_json(["delta", "--alpha-rational", "1:2:1", "--beta", "0"], tmp_path)
    assert rc == 0
    assert doc["schema_version"] == 1
    assert doc["subcommand"] == "delta"
    assert doc["results"]["exact"] is True
    assert abs(doc["results"]["delta"] - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12


def test_delta_detection(tmp_path):
    alpha = 2.0 * math.pi / math.log(2.0)
    rc, doc = _run_json(["delta", "--alpha", repr(alpha), "--detect"], tmp_path)
    assert rc == 0
    res = doc["results"]
    assert res["delta"] == 0.0          # candidates never feed the formula
    assert res["exact"] is False
    assert res["detected_form"] == {"ell0": 1, "m": 2, "n": 1, "candidate": True}


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
    assert doc1["results"]["discrete"] > 0.0
    assert doc1["results"]["ratio"] == pytest.approx(
        doc1["results"]["discrete"] / doc1["results"]["continuous"], rel=1e-12)


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


def test_nonvanish(tmp_path):
    rc, doc = _run_json(["nonvanish", "--alpha", "1", "--T", "500",
                         "--theta", "0.4"], tmp_path)
    assert rc == 0
    res = doc["results"]
    assert 0.0 <= res["bound"] <= 1.0
    assert res["empirical_fraction"] >= 1.0 / 3.0


def test_resonate(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, doc = _run_json(["resonate", "--alpha", "1", "--T", "1000",
                             "--N", "100", "--mode", "max"], tmp_path)
    assert rc == 0
    res = doc["results"]
    assert res["extreme"]["ratio"] > 1.0
    assert res["excluded_primes"] == []
    assert res["extreme"]["certified"] is True


def test_resonate_paper_strict_is_config_error(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(["resonate", "--alpha", "1", "--T", "1000", "--N", "100",
                   "--mode", "max", "--validity", "paper-strict",
                   "--json", str(tmp_path / "x.json")])
    assert rc == 2


def test_bad_configuration_exit_code(tmp_path):
    assert main(["moment", "--alpha", "-3", "--T", "300",
                 "--json", str(tmp_path / "x.json")]) == 2
    assert main(["dioph", "--alpha", "1", "--T", "50", "--ell", "1",
                 "--json", str(tmp_path / "y.json")]) == 2


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


def test_computation_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise QuadratureError("injected failure")

    monkeypatch.setattr(cli.mmod, "moment_report", boom)
    assert main(["moment", "--alpha", "1", "--T", "300",
                 "--json", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("subcommand", ["nonvanish", "moment"])
def test_node_budget_exit_code(subcommand, tmp_path, capsys):
    # 1e9 + 1 integer nodes: refused before any array is allocated.
    out = tmp_path / "x.json"
    assert main([subcommand, "--alpha", "1", "--T", "1e9", "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert "CapError" in err and "1000000001 nodes" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["moment", "--alpha", "1", "--beta", "0.25", "--T", "300"],
    ["firstmoment", "--alpha", "1", "--beta", "0.25", "--T", "300", "--theta", "0.3"],
    ["nonvanish", "--alpha", "1", "--beta", "0.25", "--T", "300"],
    ["resonate", "--alpha", "1", "--beta", "0.25", "--T", "300", "--N", "100",
     "--mode", "max"],
], ids=["moment", "firstmoment", "nonvanish", "resonate"])
def test_cli_samples_progression_once(argv, tmp_path, monkeypatch):
    # Every evaluation of zeta and of B on the progression, tagged by the
    # caller it serves.  main_sum_grid's own zeta call evaluates A, and the
    # continuous moment samples its own dyadic grid, which holds the
    # integers too; both are tracked apart from the run's sample.
    seen = {"zeta": {"run": [], "continuous": []}, "B": {"run": [], "continuous": []}}
    scope = ["run"]

    def counting(name, fn, t_arg):
        def wrapped(*args, **kwargs):
            if scope[-1] != "main_sum":
                seen[name][scope[-1]].append(np.array(args[t_arg], dtype=float))
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

    monkeypatch.setattr(cli.zmod, "zeta_critical_grid",
                        counting("zeta", cli.zmod.zeta_critical_grid, 0))
    monkeypatch.setattr(cli.mmod, "eval_poly_grid",
                        counting("B", cli.mmod.eval_poly_grid, 1))
    monkeypatch.setattr(cli.zmod, "main_sum_grid", scoped("main_sum", cli.zmod.main_sum_grid))
    monkeypatch.setattr(cli.mmod, "continuous_twisted_moment",
                        scoped("continuous", cli.mmod.continuous_twisted_moment))
    csv = tmp_path / "rows.csv"
    run = argv + ["--json", str(tmp_path / "x.json"), "--csv", str(csv)]
    with warnings.catch_warnings():
        if argv[0] == "resonate":  # exploratory at this T, as in test_resonate
            warnings.simplefilter("ignore")
        assert main(run) == 0

    T = 300
    nodes = np.arange(T, 2 * T + 1) + 0.25
    for name in ("zeta", "B"):
        assert np.array_equal(np.sort(np.concatenate(seen[name]["run"])), nodes), name
        if seen[name]["continuous"]:
            levels = np.concatenate(seen[name]["continuous"])
            assert len(np.unique(levels)) == len(levels), name
    if argv[0] != "nonvanish":
        header, *rows = csv.read_text().splitlines()
        assert len(rows) == math.floor(2 * T) - math.ceil(T) + 1
        # the first row is ell = T, where phi (and so the resonator mass) is 0
        col = header.split(",").index("resonator_mass" if argv[0] == "resonate" else "phi")
        assert float(rows[0].split(",")[col]) == 0.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("zetaprog ")


def test_selftest_passes(tmp_path):
    rc, doc = _run_json(["selftest"], tmp_path)
    assert rc == 0
    assert all(c["passed"] for c in doc["results"]["checks"])
