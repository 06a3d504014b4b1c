"""Package modules import only what they use, the CLI only what it runs,
and only the CLI opens files."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "defaultable_hjb"


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


def test_cli_import_loads_no_stats_or_interpolate():
    # scipy.stats and scipy.interpolate take most of the import time and
    # serve no CLI path
    code = ("import sys, defaultable_hjb.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') "
            "if m in sys.modules))")
    src = str(_PACKAGE.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
