"""Stage times of the ``verify`` subcommand, in process, over N runs.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/bench_verify.py [--repeat 3]
        [--label NAME --out FILE.json]

It runs ``verify`` on perfbench/reference.ini at grid 200x200 with 10^4
paths x 1000 steps and seed 3 (the benchmark's mc-verify call), --repeat
times in this process.  Each Monte Carlo stage is timed by wrapping the
montecarlo functions and methods the CLI calls; a stage function called
from another is booked to itself, and not to the outer one.  Stages:
noise (NoiseDraw.wait, the caller's wait for the draw that a helper
thread started before the solve: the part of the draw the solve does not
hide), loop (Halves.simulate less that wait: the time loop of factor,
default and wealth on this process's path half, the pickles to and from
the worker and the wait for the worker's half) and estimators
(dual_density_terminal and the three estimates); "other" is the rest of
the call (the fork of the worker, the 200x200 solve, the policy and the
CSV).  Each stage and the total report the best of the runs and, for
their spread, the quartiles (25th, 50th and 75th percentiles) of the
runs; the record also carries the peak RSS of this process and of its
largest reaped child (the worker, which forks before the draw and holds
its own half's noise, as this process holds the other half; its RSS also
counts the pages it shares with this process), and the SHA-256 of the
verify.csv written.

With --out the record is merged under --label into that JSON file, so a
second checkout can be measured on the same machine by the same script:
point PYTHONPATH at that checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                           __cpu_features__)

from defaultable_hjb import backends, cli
from defaultable_hjb import montecarlo as mc

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "perfbench" / "reference.ini"
ARGS = ["--grid", "200,200", "--seed", "3"]

STAGES = {
    "NoiseDraw.wait": "noise",
    "Halves.simulate": "loop",
    "dual_density_terminal": "estimators",
    "estimate_certainty_equivalent": "estimators",
    "estimate_martingale_mass": "estimators",
    "estimate_dual_value": "estimators",
}


class StageTimer:
    """Wraps the montecarlo stage functions; books each call's time less
    that of the stage calls made from it."""

    def __init__(self):
        self.seconds = {}
        self._inner = []  # per open call, the time of the stages it called

    def install(self) -> None:
        for name, stage in STAGES.items():
            *outer, attr = name.split(".")
            owner = getattr(mc, outer[0]) if outer else mc
            setattr(owner, attr, self._wrap(stage, getattr(owner, attr)))

    def _wrap(self, stage, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                self.seconds[stage] = (self.seconds.get(stage, 0.0) + spent
                                       - self._inner.pop())
                if self._inner:
                    self._inner[-1] += spent
        return timed


def revision(src: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def quartiles_of(times) -> list:
    """The 25th, 50th and 75th percentiles of the run times."""
    return [float(q) for q in np.percentile(times, [25, 50, 75])]


def run_once(timer: StageTimer, out_dir: str) -> dict:
    args = cli.build_parser().parse_args(
        ["verify", "--config", str(CONFIG), "--out", out_dir] + ARGS)
    cfg = cli.parse_config(args.config, args)
    timer.seconds = {}
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.cmd_verify(cfg)
    total = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"verify exited {rc}")
    stages = dict(timer.seconds)
    stages["other"] = total - sum(stages.values())
    return {"total": total, "stages": stages}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None, help="JSON file to merge into")
    args = ap.parse_args()

    timer = StageTimer()
    timer.install()
    runs = []
    with tempfile.TemporaryDirectory() as out_dir:
        for _ in range(args.repeat):
            runs.append(run_once(timer, out_dir))
            csv = Path(out_dir, "verify.csv").read_bytes()
    peak_rss_mb, children_peak_rss_mb = (
        resource.getrusage(who).ru_maxrss / 1024.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    names = sorted({s for r in runs for s in r["stages"]})
    stage_runs = {s: [r["stages"].get(s, 0.0) for r in runs] for s in names}
    totals = [r["total"] for r in runs]
    best = {s: min(t) for s, t in stage_runs.items()}
    quartiles = {s: quartiles_of(t) for s, t in stage_runs.items()}
    record = {
        **revision(Path(mc.__file__).parent),
        "backend": backends.backend_name(),
        "repeat": args.repeat,
        "total_best_s": min(totals),
        "total_runs_s": totals,
        "total_quartiles_s": quartiles_of(totals),
        "stages_best_s": best,
        "stages_quartiles_s": quartiles,
        "peak_rss_mb": peak_rss_mb,
        "children_peak_rss_mb": children_peak_rss_mb,
        "verify_csv_sha256": hashlib.sha256(csv).hexdigest(),
    }
    q1, med, q3 = record["total_quartiles_s"]
    print(f"{args.label}: verify best {record['total_best_s']:.3f} s of "
          f"{args.repeat} (median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}), "
          f"peak RSS {peak_rss_mb:.0f} MB (largest child "
          f"{children_peak_rss_mb:.0f} MB)")
    for s in names:
        q1, med, q3 = quartiles[s]
        print(f"  {s:<18s} best {best[s]:8.3f} s  median {med:8.3f} s  "
              f"quartiles {q1:.3f}-{q3:.3f}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {
            "script": "benchmarks/bench_verify.py",
            "workload": f"verify --config perfbench/reference.ini "
                        f"{' '.join(ARGS)} (10^4 paths x 1000 steps)",
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
