"""Package modules import only what they use, the CLI only what it runs,
and only the CLI opens files."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defaultable_hjb as dh

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "defaultable_hjb"
_REFERENCE_INI = _PACKAGE.parents[1] / "perfbench" / "reference.ini"


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _open_calls(path: Path) -> list:
    tree = ast.parse(path.read_text())
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "open" in (
                      getattr(node.func, "id", None),
                      getattr(node.func, "attr", None)))


@pytest.mark.parametrize(
    "path", sorted(p for p in _PACKAGE.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name)
def test_only_the_cli_opens_files(path):
    # the CLI owns the file formats; the library computes and returns
    assert _open_calls(path) == []


def _run(code: str) -> str:
    """stdout of code in a fresh interpreter that imports the package from
    this checkout."""
    src = str(_PACKAGE.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_no_stats_interpolate_or_linalg():
    # scipy.stats and scipy.interpolate take most of the import time and
    # serve no CLI path; backends loads gtsv's extension without
    # scipy.linalg's package __init__
    out = _run("import sys, defaultable_hjb.cli; "
               "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate', "
               "'scipy.linalg') if m in sys.modules))")
    assert out.strip() == "[]"


_ON_DEMAND = ("defaultable_hjb.assumptions", "defaultable_hjb.montecarlo")
# loaded by no subcommand
_NEVER = ("scipy.linalg",)


def test_cli_import_loads_neither_assumptions_nor_montecarlo():
    # without a bytecode cache every module loaded is compiled on each call
    out = _run("import sys, defaultable_hjb.cli; "
               f"print(sorted(m for m in {_ON_DEMAND!r} if m in sys.modules))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["solve", "--grid", "32,16"], []),
    (["price-bond", "--grid", "32,16"], []),
    (["price-insurance", "--grid", "32,16"], []),
    (["verify", "--grid", "32,16", "--paths", "200"],
     ["defaultable_hjb.montecarlo"]),
    (["check-assumptions"], ["defaultable_hjb.assumptions"]),
], ids=["solve", "price-bond", "price-insurance", "verify",
        "check-assumptions"])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv,
                                                        loaded):
    ini = tmp_path / "run.ini"
    ini.write_text(_REFERENCE_INI.read_text().replace(
        "steps = 1000", "steps = 50"))
    argv = argv + ["--config", str(ini), "--out", str(tmp_path / "out")]
    out = _run("import json, sys; from defaultable_hjb import cli; "
               f"rc = cli.main({argv!r}); "
               f"print(json.dumps([rc, sorted(m for m in "
               f"{_ON_DEMAND + _NEVER!r} if m in sys.modules)]))")
    assert json.loads(out.splitlines()[-1]) == [0, loaded]


def test_every_public_name_is_its_home_modules_object():
    modules = [importlib.import_module(f"defaultable_hjb.{name}")
               for name in ("lambertw", "model", "solver", "pricing",
                            "assumptions", "montecarlo")]
    assert set(dir(dh)) >= set(dh.__all__)
    for name in dh.__all__:
        # the module that defines the name, not one that imports it
        home = [vars(m)[name] for m in modules if name in vars(m)
                and vars(m)[name].__module__ == m.__name__]
        assert len(home) == 1, name
        assert getattr(dh, name) is home[0], name
    with pytest.raises(AttributeError, match="no_such_name"):
        dh.no_such_name
