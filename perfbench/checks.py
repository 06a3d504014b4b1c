"""Output checks for the benchmark's CLI calls.

A PDE call passes when its numbers match ``reference.json`` to ``TOL``
max-abs.  The reference was recorded by ``record_reference.py`` from a
commit whose outputs were trusted; ``TOL`` is far below the ~1e-6 gap
between the levels of the convergence ladder, so a changed discretisation
or a wrong answer fails while a reordering of floating-point sums passes.
``verify`` passes when all four of its 3-s.e. checks print ``[pass]``; its
estimates are not compared, so a new RNG stream does not fail it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

TOL = 1e-8
REFERENCE = Path(__file__).resolve().parent / "reference.json"
VERIFY_CHECKS = ("ce-match", "martingale-mass", "dual-match",
                 "sub-optimality")
_VERIFY_LINE = re.compile(r"^verify: ([\w-]+): .*\[(pass|FAIL)\]$")
SURFACE_STRIDE = 10


def read_columns(path: Path) -> dict:
    """Columns of a CLI CSV: '#' header lines, a row of names, numbers."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(v) if v else np.nan for v in ln.split(",")]
            for ln in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {n: data[:, k] for k, n in enumerate(names)}


def read_surface(path: Path) -> np.ndarray:
    """G values of surface.csv, one row per time node (x header dropped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")[1:]]
                     for ln in lines[1:]])


def surface_digest(values: np.ndarray) -> dict:
    """The t=0 row in full, a strided sample, and every row's sum."""
    return {"row0": values[0],
            "sample": values[::SURFACE_STRIDE, ::SURFACE_STRIDE].ravel(),
            "row_sums": values.sum(axis=1)}


def outputs(name: str, out_dir: Path) -> dict:
    """The numbers a call's output files are checked on, by label."""
    if name == "solve":
        conv = read_columns(out_dir / "convergence.csv")
        return {"convergence": np.concatenate(
            [conv["nx"], conv["nt"], conv["value_at_x0"]])}
    if name == "price-bond":
        return read_columns(out_dir / "price_bond.csv")
    if name == "price-insurance":
        return read_columns(out_dir / "insurance.csv")
    if name in ("solve-protected", "solve-local"):
        return surface_digest(read_surface(out_dir / "surface.csv"))
    return {}


def _assumption_problems(out_dir: Path) -> list:
    lines = [ln for ln in (out_dir / "assumptions.csv").read_text()
             .splitlines() if ln and not ln.startswith("#")][1:]
    statuses = [ln.split(",", 2)[:2] for ln in lines]
    if not statuses:
        return ["assumptions.csv has no entries"]
    return [f"assumption {aid} is {st}" for aid, st in statuses
            if st != "Holds"]


def _verify_problems(stdout: str) -> list:
    seen = {}
    for ln in stdout.splitlines():
        m = _VERIFY_LINE.match(ln.strip())
        if m:
            seen[m.group(1)] = m.group(2)
    return [f"verify check {c}: {seen.get(c, 'missing')}"
            for c in VERIFY_CHECKS if seen.get(c) != "pass"]


def problems(name: str, out_dir: Path, stdout: str, rc, reference: dict
             ) -> list:
    """Every reason the call's outputs are wrong; empty when they pass."""
    found = [] if rc == 0 else [f"exit code {rc}"]
    try:
        if name == "verify":
            return found + _verify_problems(stdout)
        if name == "check-assumptions":
            return found + _assumption_problems(out_dir)
        got = outputs(name, out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return found + [f"unreadable output: {exc}"]
    want = reference[name]
    for label in sorted(set(want) | set(got)):
        if label not in got or label not in want:
            found.append(f"{label}: column missing")
            continue
        a = np.asarray(got[label], dtype=float)
        b = np.asarray(want[label], dtype=float)
        if a.shape != b.shape:
            found.append(f"{label}: shape {a.shape} != {b.shape}")
            continue
        err = np.max(np.abs(a - b), initial=0.0)
        if not err <= TOL:
            found.append(f"{label}: max-abs error {err:.3g} > {TOL:g}")
    if name == "price-insurance" and "rate" in got and \
            not np.all(got["rate"] <= got["upper_bound"]):
        found.append("insurance rate above its upper bound")
    return found


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
