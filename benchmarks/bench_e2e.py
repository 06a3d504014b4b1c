"""Wall time and peak RSS of each CLI subcommand, each call a fresh process.

Run from the root of a checkout:

    PYTHONPATH=src python3 benchmarks/bench_e2e.py [--repeat 5]
        [--label NAME --out FILE.json]

Each case is one `python3 -m defaultable_hjb.cli` process on
perfbench/reference.ini (the paper's square-root model at 400x400),
writing to a temporary directory of its own: solve in its three modes,
price-bond, price-insurance, check-assumptions, and verify at --grid
200,200 (10^4 paths x 1000 steps, seed 0).  One more case, startup, only
imports defaultable_hjb.cli: the interpreter and the imports, which every
subcommand pays before its work, reported as a line of its own.  The
cases run round-robin, --repeat rounds, each round in another order, so
that every case samples the whole run: the host's speed can swing twofold
over seconds.  A call's wall time runs from the start of its process to
its exit.  Its peak RSS is the ru_maxrss that wait4 returns for it, that
is RUSAGE_CHILDREN for this one child: the larger of its own peak and
that of the children it reaped (verify's forked worker).  A call that
exits other than 0 stops the run.

Each case reports its runs, their median and their quartiles (25th and
75th percentiles); the record also carries the git revision of the
package measured, found through PYTHONPATH.  With --out the record is
merged under --label into that JSON file.  A record already there under
the same label and revision gains the new runs, so that two checkouts
can be measured interleaved: alternate runs of this script with
PYTHONPATH at each checkout's src/, each under its own label.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                           __cpu_features__)

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "perfbench" / "reference.ini"
# case name: the CLI arguments of its call (None: import the CLI only)
CASES = {
    "startup": None,
    "solve": ["solve"],
    "solve-protected": ["solve", "--mode", "protected"],
    "solve-local": ["solve", "--mode", "local:4"],
    "price-bond": ["price-bond"],
    "price-insurance": ["price-insurance"],
    "check-assumptions": ["check-assumptions"],
    "verify": ["verify", "--grid", "200,200", "--seed", "0"],
}


def revision(src: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True).stdout.strip()
    return {"revision": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def run_once(args, out_dir: str) -> dict:
    """Wall time and peak RSS of one fresh process."""
    if args is None:
        argv = [sys.executable, "-c", "import defaultable_hjb.cli"]
    else:
        argv = [sys.executable, "-m", "defaultable_hjb.cli", *args,
                "--config", str(CONFIG), "--out", out_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_rounds(repeat: int) -> dict:
    """Each case's runs, round-robin, the order rotated by one each round."""
    names = list(CASES)
    runs = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as out_dir:
        for r in range(repeat):
            k = r % len(names)
            for name in names[k:] + names[:k]:
                runs[name].append(run_once(CASES[name],
                                           os.path.join(out_dir, name)))
    return runs


def summary(runs: list) -> dict:
    """The median and the quartiles of each metric over the runs."""
    out = {}
    for metric in ("wall_s", "peak_rss_mb"):
        q1, med, q3 = np.percentile([r[metric] for r in runs], [25, 50, 75])
        out[metric] = {"median": float(med), "quartiles": [float(q1),
                                                           float(q3)]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None, help="JSON file to merge into")
    args = ap.parse_args()

    spec = importlib.util.find_spec("defaultable_hjb")
    if spec is None:
        raise SystemExit("defaultable_hjb is not importable: set PYTHONPATH")
    record = {**revision(Path(spec.origin).parent), "runs": run_rounds(
        args.repeat)}
    path = Path(args.out) if args.out else None
    doc = json.loads(path.read_text()) if path and path.exists() else {
        "script": "benchmarks/bench_e2e.py",
        "workload": "each subcommand on perfbench/reference.ini in a fresh "
                    "process (verify at --grid 200,200)",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 # the last bits of float64 exp and log depend on these
                 "numpy_simd": [f for f in __cpu_dispatch__
                                if __cpu_features__[f]]},
        "records": {}}
    old = doc["records"].get(args.label)
    if old and (old["revision"], old["dirty"]) == (record["revision"],
                                                   record["dirty"]):
        for name, runs in record["runs"].items():
            runs[:0] = old["runs"][name]
    record["rounds"] = len(record["runs"]["startup"])
    record["summary"] = {name: summary(runs)
                         for name, runs in record["runs"].items()}
    doc["records"][args.label] = record

    print(f"{args.label}: {record['rounds']} rounds, median (quartiles)")
    for name, s in record["summary"].items():
        w, m = s["wall_s"], s["peak_rss_mb"]
        print(f"  {name:<18s} {w['median']:7.3f} s "
              f"({w['quartiles'][0]:.3f}-{w['quartiles'][1]:.3f})  "
              f"{m['median']:7.1f} MB "
              f"({m['quartiles'][0]:.1f}-{m['quartiles'][1]:.1f})")
    if path:
        path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
