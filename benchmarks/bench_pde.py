"""Times of the PDE side of the engine, in process, best of N.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/bench_pde.py [--repeat 7]
        [--label NAME --out FILE.json]

On the paper's square-root model at 400x400 (perfbench/reference.ini) it
times, --repeat times each in this process:

* solve_full of the zero claim;
* solve_claims of the five claims of price-bond (the zero claim and
  q = 1, 3, 5, 10), each keeping its t = 0 row, as price-bond does;
* one backends.tridiag_solve of a random diagonally dominant 401-node
  system;
* one theta_of_log of 401 values evenly spaced on [-20, 20];
* one full-mode solver._Operator call with its Jacobian on a 401-node
  row of the zero-claim surface;
* residual of the zero-claim surface;
* the solves behind one `solve` of each mode on perfbench/reference.ini:
  solve_levels of the 400^2, 100^2 and 200^2 levels, in solve's order and
  kept as solve keeps them: the finest whole with its step residuals,
  two time rows of each coarse level;
* cli._surface_lines of that surface, consumed line by line as the CLI
  writes it; the lines come a block of 8 time rows at a time (a block
  keeps its temporaries below glibc's mmap threshold), so only one
  block's lines are alive at once;
* the subcommands solve, solve --mode protected, solve --mode local:4,
  price-bond and price-insurance through cli.main, each writing to its
  own temporary directory.

The cases run round-robin, one call each per round, so that every
case samples the whole run: the host's speed can swing twofold over
seconds.  Each case reports the best of its runs.  The record carries the
process's peak RSS and the SHA-256 of the subcommands' output files, so
two checkouts measured on the same machine by the same script can be
compared: point PYTHONPATH at the other checkout's src/ and merge under
another --label into the same --out file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import tempfile
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                           __cpu_features__)

import defaultable_hjb as dh
from defaultable_hjb import backends, cli, solver

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "perfbench" / "reference.ini"
QS = (1.0, 3.0, 5.0, 10.0)
SOLVE_FILES = ["surface.csv", "residual_summary.txt", "convergence.csv"]
# ladder case name: the --mode of its solve
LADDERS = {"ladder_full_400": "full", "ladder_protected_400": "protected",
           "ladder_local_400": "local:4"}
# case name: (CLI arguments, the files it writes)
COMMANDS = {"solve": (["solve"], SOLVE_FILES),
            "solve-protected": (["solve", "--mode", "protected"],
                                SOLVE_FILES),
            "solve-local": (["solve", "--mode", "local:4"], SOLVE_FILES),
            "price-bond": (["price-bond"], ["price_bond.csv"]),
            "price-insurance": (["price-insurance"],
                                ["insurance.csv", "short_horizon_rate.csv"])}


def revision(src: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def best_of(cases: dict, repeat: int) -> dict:
    """Best time of each case over repeat round-robin rounds."""
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(repeat):
        for name, fn in cases.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def cases(out_dir: str) -> dict:
    m = dh.make_cir_model(dh.paper_cir_params())
    pref = dh.Preferences(alpha=3.0, horizon_T=1.0)
    grid = dh.default_grid(m, pref, 400, 400)
    claims = [dh.zero_claim()] + [dh.bond_claim(q) for q in QS]
    G = dh.solve_full(m, claims[0], pref, grid)
    rng = np.random.default_rng(0)
    n = grid.n_space + 1
    system = (rng.random(n - 1), 4.0 + rng.random(n), rng.random(n - 1),
              rng.random(n))
    us = np.linspace(-20.0, 20.0, n)
    xs = grid.xs
    coef = solver._Coeffs(m, xs, pref.alpha)
    row = G.values[grid.n_time // 2].copy()
    op = solver._Operator([(coef, grid.dx, np.ones_like(xs))])

    def ladder(mode):
        cfg = cli.parse_config(str(CONFIG), argparse.Namespace(mode=mode))
        m, claims, pref = cli.build_problem(cfg)
        loc = dh.build_localization(m, cfg.local_n) \
            if cfg.mode == "local" else None
        levels = []
        for div in (1, 4, 2):
            g = cli.make_grid(cfg, m, pref, nx=max(cfg.nx // div, 16),
                              nt=max(cfg.nt // div, 16))
            if loc is not None:
                g = replace(g, x_min=loc.outer[0], x_max=loc.outer[1])
            levels.append((claims[0], g, None if div == 1 else 2, div == 1))
        return lambda: list(dh.solve_levels(m, pref, cfg.mode, levels,
                                            loc=loc))

    def command(name):
        argv = COMMANDS[name][0] + ["--config", str(CONFIG),
                                    "--out", str(Path(out_dir, name))]

        def run():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                raise SystemExit(f"{name} exited {rc}")
        return run

    return {
        "solve_full_400": lambda: dh.solve_full(m, claims[0], pref, grid),
        "price_bond_claims_400": lambda: dh.solve_claims(m, claims, pref,
                                                         grid, rows=1),
        "tridiag_solve_401": lambda: backends.tridiag_solve(*system),
        "theta_of_log_401": lambda: dh.theta_of_log(us),
        "operator_401": lambda: op(row),
        "residual_400": lambda: dh.residual(G, m, pref),
        **{name: ladder(mode) for name, mode in LADDERS.items()},
        "surface_lines_400": lambda: deque(cli._surface_lines(G), maxlen=0),
        **{f"cmd_{name}": command(name) for name in COMMANDS},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None, help="JSON file to merge into")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as out_dir:
        best = best_of(cases(out_dir), args.repeat)
        digests = {f"{name}/{f}": hashlib.sha256(
                       Path(out_dir, name, f).read_bytes()).hexdigest()
                   for name, (_, files) in COMMANDS.items() for f in files}
    record = {
        **revision(Path(dh.__file__).parent),
        "backend": backends.backend_name(),
        "repeat": args.repeat,
        "best_s": best,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "output_sha256": digests,
    }
    print(f"{args.label}: best of {args.repeat}, peak RSS "
          f"{record['peak_rss_mb']:.0f} MB")
    for name, seconds in best.items():
        print(f"  {name:<24s} {seconds * 1e3:10.3f} ms")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {
            "script": "benchmarks/bench_pde.py",
            "workload": "the paper CIR model at 400x400 and "
                        "perfbench/reference.ini",
            "host": {"machine": platform.machine(),
                     "cpus": os.cpu_count(),
                     "python": platform.python_version(),
                     "numpy": np.__version__,
                     # the last bits of float64 exp and log depend on these
                     "numpy_simd": [f for f in __cpu_dispatch__
                                    if __cpu_features__[f]]},
            "records": {}}
        doc["records"][args.label] = record
        path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
