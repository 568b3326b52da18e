"""The package's public surface: every exported name resolves, is listed
once, in its module's __all__, and has a caller in the package, a demo or
the benchmark; and every demo runs to completion as a fresh process with
RuntimeWarnings made errors."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaprog

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The modules whose __all__ the package re-exports.
EXPORTING = ("window", "kernels", "zeta", "dioph", "moments", "resonance", "errors")


def test_public_names_resolve():
    for name in zetaprog.__all__:
        assert hasattr(zetaprog, name), name


def test_public_surface_is_one_list_per_name():
    # each public name is written once, in its module's __all__; the
    # package's __all__ is their union plus __version__, and __init__.py
    # names no public name itself
    names = [name for module in EXPORTING
             for name in importlib.import_module(f"zetaprog.{module}").__all__]
    assert len(set(names)) == len(names)
    assert len(set(zetaprog.__all__)) == len(zetaprog.__all__)
    assert set(zetaprog.__all__) == {"__version__", *names}
    init = ast.parse(Path(zetaprog.__file__).read_text())
    written = {node.id if isinstance(node, ast.Name) else node.value
               for node in ast.walk(init)
               if isinstance(node, ast.Name)
               or isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert written & set(names) == set()


def _reads(node, inside=()):
    """The names a syntax tree reads (loaded names, attributes, imported
    names), each outside the function or class that defines it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside += (node.name,)
    name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    out = {name} - set(inside) - {None}
    for child in ast.iter_child_nodes(node):
        out |= _reads(child, inside)
    return out


def test_every_public_name_has_a_caller():
    # an export is read outside its own definition by the package (the CLI
    # and selftest among it), a demo or the benchmark, the package's
    # re-export in __init__.py aside; what only the tests call lives in a
    # tests/ oracle module
    read = set()
    for folder in ("src/zetaprog", "demos", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py":
                read |= _reads(ast.parse(path.read_text()))
    assert [name for name in zetaprog.__all__ if name not in read] == []


def test_package_speaks_through_results_and_exceptions():
    # no module of the package warns or logs: what a run has to say is in
    # its return value or a typed exception
    imported = {}
    for path in sorted((ROOT / "src/zetaprog").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            for name in names:
                if name.split(".")[0] in ("warnings", "logging"):
                    imported.setdefault(path.name, []).append(name)
    assert imported == {}


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
