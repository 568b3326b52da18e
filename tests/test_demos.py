"""The package's public surface: every exported name resolves, and every demo
runs to completion as a fresh process with RuntimeWarnings made errors."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaprog

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_public_names_resolve():
    for name in zetaprog.__all__:
        assert hasattr(zetaprog, name), name


def test_demos_found():
    assert DEMOS, ROOT / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
