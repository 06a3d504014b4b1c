"""Benchmark of the defaultable-hjb CLI on the README's reference config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Each subcommand call runs in a fresh single-threaded process
(child.py), because every CLI user pays import and set-up on each call.  The
load is a closed loop with one client: one process at a time, the next call
starting when the previous one ends.  One set-up-only process warms the
bytecode and file caches first and is discarded.

Workloads (reference.ini: square-root model with defaults, phi = one,
q = 1 3 5 10, alpha = 3, horizon = 1, grid 400x400):

* pde-reference -- check-assumptions, solve, price-bond, price-insurance:
  every PDE-side subcommand on the paper grid (solver, lambertw, tridiag).
* pde-modes -- solve --mode protected and solve --mode local:4: the same
  solver with the protected source and the local closure.
* mc-verify -- verify --grid 200,200 with 10^4 paths x 1000 steps, seeded
  by --seed: the Monte Carlo verifier and its surface lookups.

The pde workloads are deterministic; --seed feeds only ``verify --seed``.
The workload's calls repeat in cycles for about --seconds (at least one).
With --trace 0 the last stdout line carries the end-to-end metrics, medians
over the run; wall_probe_units counts each call's time in units of the
speed probe's (probe_units).  With --trace 1 each cycle runs untraced, then
with spans, then, for calls that ran a Monte Carlo stage, with tracemalloc
(spans.py); the last line carries the per-layer metrics.  Every call's
outputs are checked (checks.py); a failed check or a non-zero exit counts
as a failed call.  NOTES.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

CONFIG = HERE / "reference.ini"
WORK = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 165.0      # the run must end within 180 s
MIN_SETUP_SAMPLES = 7   # set-up-only processes top the samples up to this

WORKLOADS = {
    "pde-reference": [
        ("check-assumptions", ["check-assumptions"]),
        ("solve", ["solve"]),
        ("price-bond", ["price-bond"]),
        ("price-insurance", ["price-insurance"]),
    ],
    "pde-modes": [
        ("solve-protected", ["solve", "--mode", "protected"]),
        ("solve-local", ["solve", "--mode", "local:4"]),
    ],
    "mc-verify": [
        ("verify", ["verify", "--grid", "200,200"]),
    ],
}
# check-assumptions takes ~5 ms, too short to repeat within a tenth, so it
# has no metric of its own; it still counts toward wall_probe_units and
# failures.
TIMED_CMDS = ("solve", "price-bond", "price-insurance", "solve-protected",
              "solve-local", "verify")

END_TO_END_UNITS = {"setup_s": "s", "wall_probe_units": "probe",
                    "peak_rss_mb": "MB", "success_ratio": "ratio"}

# The parts of a speed-probe sample (child.SpeedProbe: 1 is the CPU part, 2
# the memory part) each workload's time is counted in: those that slow down
# as the workload does.  The PDE calls work on 400-element grid rows and are
# bound by the CPU; verify streams 80 MB path arrays and is bound by memory
# as well.  Counted in the CPU part alone, verify's calls spread about 5%;
# in both parts, 2-3%.
PROBE_PARTS = {"pde-reference": (1,), "pde-modes": (1,), "mc-verify": (1, 2)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs CLI calls one at a time and keeps their records."""

    def __init__(self, seed: int, started: float, reference: dict):
        self.seed = seed
        self.deadline = started + DEADLINE_S
        self.env = child_env()
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def _spawn(self, tag: str, child_args: list, trace: str) -> dict:
        """Run child.py once; its result dict, or one with an error.

        ``trace`` is off, spans or memory (see spans.Tracer); a spans run also
        records ``python -X importtime``.
        """
        out_dir = WORK / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        result_path = out_dir / "result.json"
        cmd = [sys.executable] + (
            ["-X", "importtime"] if trace == "spans" else []) + [
            str(HERE / "child.py"), str(result_path), repr(time.monotonic()),
            trace] + child_args
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_dir / "stdout.txt", "w") as so, \
                open(out_dir / "stderr.txt", "w") as se:
            try:
                proc = subprocess.run(cmd, stdout=so, stderr=se, env=self.env,
                                      cwd=ROOT, timeout=timeout)
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        rec = {"proc_rc": rc,
               "stdout": (out_dir / "stdout.txt").read_text(),
               "stderr": (out_dir / "stderr.txt").read_text()}
        if rc == 0 and result_path.is_file():
            rec.update(json.loads(result_path.read_text()))
            if not Path(rec["package_file"]).resolve().is_relative_to(
                    ROOT / "src"):
                rec["error"] = f"imported {rec['package_file']}, not src/"
        else:
            rec["error"] = f"benchmark child exit code {rc}"
        return rec

    def setup_only(self, tag: str) -> dict:
        return self._spawn(tag, ["--setup-only", str(CONFIG)], "off")

    def run_cli(self, name: str, cli_args: list, trace: str) -> dict:
        """One subcommand call, unchecked; outputs land in WORK/name."""
        args = ["--", *cli_args, "--config", str(CONFIG),
                "--out", str(WORK / name)]
        if name == "verify":
            args += ["--seed", str(self.seed)]
        rec = self._spawn(name, args, trace)
        rec["name"] = name
        return rec

    def call(self, name: str, cli_args: list, trace: str) -> dict:
        """One subcommand call, checked and counted."""
        rec = self.run_cli(name, cli_args, trace)
        if "error" in rec:
            rec["problems"] = [rec["error"]]
        else:
            rec["problems"] = checks.problems(name, WORK / name, rec["stdout"],
                                              rec["cli_rc"], self.reference)
        self.attempted += 1
        if rec["problems"]:
            self.failed += 1
            print(f"FAILED {name}: " + "; ".join(rec["problems"]),
                  file=sys.stderr)
            err = [ln for ln in rec["stderr"].splitlines()
                   if not ln.startswith("import time:")]
            print("\n".join(err[-30:]), file=sys.stderr)
        return rec

    def cycle(self, workload: str, trace: str) -> list:
        return [self.call(name, args, trace)
                for name, args in WORKLOADS[workload]]

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline


def median(values):
    return statistics.median(values) if values else 0.0


def probe_s(sample: list, parts: tuple) -> float:
    """A speed-probe sample's time over the given parts (PROBE_PARTS)."""
    return sum(sample[i] for i in parts)


def probe_median_s(calls: list, parts: tuple) -> float:
    """The median speed-probe sample of the run's calls, 0 if none."""
    return median([probe_s(sample, parts) for rec in calls
                   for sample in rec.get("probe", ())])


def probe_units(rec: dict, parts: tuple, fallback_s: float) -> float:
    """The call's subcommand time in units of the speed probe's time.

    The host's vCPUs switch between speeds up to about 2x apart, in
    episodes of a second to minutes.  The subcommand and the probe slow
    down together, so their ratio stays put while wall time moves.  Each
    stretch between two samples is divided by the sample's time over
    ``parts``; the probes' own time is left out.  A call too short for a
    sample is divided by ``fallback_s``, the run's median sample.
    """
    samples = rec.get("probe")
    if not samples:
        return rec["cmd_s"] / fallback_s if fallback_s > 0.0 else 0.0
    units = samples[0][0] / probe_s(samples[0], parts)
    ends = [sample[0] for sample in samples[1:]] + [rec["main_s"]]
    for sample, end in zip(samples, ends):
        units += (end - sample[0] - sum(sample[1:])) / probe_s(sample, parts)
    return (units - sum(rec["setup_funcs_s"].values())
            / probe_s(samples[0], parts))


def cycle_probe_units(cycle: list, parts: tuple, fallback_s: float) -> float:
    return sum(probe_units(rec, parts, fallback_s) for rec in cycle
               if "cmd_s" in rec)


def end_to_end(runner: Runner, parts: tuple, cycles: list,
               setups: list) -> dict:
    calls = [rec for cyc in cycles for rec in cyc]
    fallback_s = probe_median_s(calls, parts)
    return {
        "setup_s": median(setups),
        "wall_probe_units": median([cycle_probe_units(cyc, parts, fallback_s)
                                    for cyc in cycles]),
        "peak_rss_mb": max(rec.get("maxrss_mb", 0.0) for rec in calls),
        "success_ratio": (runner.attempted - runner.failed)
        / runner.attempted,
    }


# -- per-layer metrics of the traced run ------------------------------------

MC_STAGES = tuple(dict.fromkeys(spans.MC_STAGES.values()))
SCIPY_IMPORTS = ("scipy.stats", "scipy.interpolate", "scipy.linalg")

PER_LAYER_UNITS = {
    "lambertw.theta_of_log.calls": "count",
    "lambertw.theta_of_log.elems": "count",
    "lambertw.theta_of_log_s": "s",
    "backends.tridiag_solve.calls": "count",
    "backends.tridiag_solve_s": "s",
    "backends.cir_paths_s": "s",
    "backends.cir_paths.elems": "count",
    "backends.crossing_times_s": "s",
    "solver.solves": "count",
    "solver.self_s": "s",
    "solver.residual_s": "s",
    "solver.newton_iters_per_step": "1/step",
    "solver.theta_evals_per_step": "1/step",
    "solver.us_per_node_step": "us",
    "solver.bilinear_interp.calls": "count",
    "solver.bilinear_interp_s": "s",
    "solver.surface_to_csv_s": "s",
    "pricing.self_s": "s",
    "pricing.curves_to_csv_s": "s",
    **{f"montecarlo.{st}_s": "s" for st in MC_STAGES},
    "montecarlo.other_s": "s",
    **{f"montecarlo.peak_alloc_mb.{st}": "MB" for st in MC_STAGES},
    "montecarlo.path_array_bytes": "B.computed",
    "assumptions.check_model_s": "s",
    "model.self_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    **{f"setup.import.{mod}_s": "s" for mod in SCIPY_IMPORTS},
    "setup.parse_config_s": "s",
    "setup.build_problem_s": "s",
    "setup.make_grid_s": "s",
    **{f"cmd.{name}_s": "s" for name in TIMED_CMDS},
    "wall_s": "s",
    "host.probe_ms": "ms",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}

# Span keys booked under their own metric rather than the layer's self_s.
OWN_METRIC = {
    "solver.residual": "solver.residual_s",
    "solver.bilinear_interp": "solver.bilinear_interp_s",
    "solver.Surface.to_csv": "solver.surface_to_csv_s",
    "pricing.curves_to_csv": "pricing.curves_to_csv_s",
    "lambertw.theta_of_log": "lambertw.theta_of_log_s",
    "backends.tridiag_solve": "backends.tridiag_solve_s",
    "backends.cir_paths": "backends.cir_paths_s",
    "backends.crossing_times": "backends.crossing_times_s",
    "cli.write": "cli.write_s",
    **{key: f"montecarlo.{st}_s" for key, st in spans.MC_STAGES.items()},
}
LAYER_SELF = {"solver": "solver.self_s", "pricing": "pricing.self_s",
              "montecarlo": "montecarlo.other_s", "model": "model.self_s",
              "cli": "cli.self_s"}


def import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime``."""
    out = {}
    for ln in stderr.splitlines():
        if ln.startswith("import time:") and ln.count("|") == 2:
            _, cumulative, name = ln[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


def layer_metrics(traced: list) -> dict:
    """Per-layer metrics of one traced cycle."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    counters = dict.fromkeys(("steps_marched", "node_steps", "solve_incl_s",
                              "theta_in_solve", "tridiag_in_solve"), 0)
    for rec in traced:
        tr = rec.get("trace")
        if tr is None:
            continue
        for key, (calls, self_s, incl_s, elems) in tr["stats"].items():
            layer = key.split(".", 1)[0]
            name = OWN_METRIC.get(key, LAYER_SELF.get(layer))
            if name is not None:
                m[name] += self_s
            if key in ("lambertw.theta_of_log", "backends.tridiag_solve",
                       "solver.bilinear_interp"):
                m[f"{key}.calls"] += calls
            if key in ("lambertw.theta_of_log", "backends.cir_paths"):
                m[f"{key}.elems"] += elems
            if key == "assumptions.check_model":
                m["assumptions.check_model_s"] += incl_s
            if key in spans.SOLVES:
                m["solver.solves"] += calls
        for k in counters:
            counters[k] += tr["counters"][k]
        m["montecarlo.path_array_bytes"] = max(
            m["montecarlo.path_array_bytes"], tr["path_array_bytes"])
        imports = import_times(rec["stderr"])
        for mod in SCIPY_IMPORTS:
            m[f"setup.import.{mod}_s"] += imports.get(mod, 0.0) / len(traced)
    steps = counters["steps_marched"]
    if steps:
        m["solver.newton_iters_per_step"] = (counters["tridiag_in_solve"]
                                             / steps)
        m["solver.theta_evals_per_step"] = counters["theta_in_solve"] / steps
        m["solver.us_per_node_step"] = (counters["solve_incl_s"] * 1e6
                                        / counters["node_steps"])
    return m


def accounted_share(rec: dict) -> float:
    """Share of a traced call's subcommand time that span self times cover."""
    stats = rec["trace"]["stats"]
    return sum(v[1] for v in stats.values()) / rec["cmd_s"]


def untraced_metrics(cycle: list) -> dict:
    """``cmd.*_s`` and the set-up split, from the untraced cycle."""
    done = [rec for rec in cycle if "cmd_s" in rec]
    m = {f"cmd.{rec['name']}_s": rec["cmd_s"] for rec in done
         if rec["name"] in TIMED_CMDS}
    for key in ("interpreter_s", "import_s"):
        m[f"setup.{key}"] = median([rec[key] for rec in done])
    for fn in (done[0]["setup_funcs_s"] if done else ()):
        m[f"setup.{fn}_s"] = median([rec["setup_funcs_s"][fn]
                                     for rec in done])
    return m


def print_breakdown(traced: list) -> None:
    """Where each traced call's time went: the largest self times."""
    for rec in traced:
        if "trace" not in rec:
            continue
        stats = rec["trace"]["stats"]
        top = sorted(stats.items(), key=lambda kv: -kv[1][1])[:6]
        print(f"traced {rec['name']}: {rec['cmd_s']:.3f} s, spans cover "
              f"{accounted_share(rec):.1%}; largest self times: " +
              ", ".join(f"{k} {v[1]:.3f} s ({v[0]} calls)" for k, v in top))


def traced_cycle(runner: Runner, workload: str) -> tuple:
    """The workload's calls untraced, then with spans, then, for the calls
    that ran a Monte Carlo stage, once more with tracemalloc."""
    plain = runner.cycle(workload, "off")
    traced = runner.cycle(workload, "spans")
    args = dict(WORKLOADS[workload])
    memory = [runner.call(rec["name"], args[rec["name"]], "memory")
              for rec in traced if ran_mc_stage(rec)]
    return plain, traced, memory


def ran_mc_stage(rec: dict) -> bool:
    stats = rec.get("trace", {}).get("stats", {})
    return any(key in spans.MC_STAGES for key in stats)


def memory_metrics(memory: list) -> dict:
    m = {}
    for rec in memory:
        for st, mb in rec.get("trace", {}).get("peak_alloc_mb", {}).items():
            key = f"montecarlo.peak_alloc_mb.{st}"
            m[key] = max(m.get(key, 0.0), mb)
    return m


def per_layer(parts: tuple, cycles: list) -> dict:
    samples = []
    for plain, traced, memory in cycles:
        m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        m.update(layer_metrics(traced))
        m.update(memory_metrics(memory))
        m.update(untraced_metrics(plain))
        m["wall_s"] = sum(r.get("cmd_s", 0.0) for r in plain)
        m["host.probe_ms"] = probe_median_s(plain, parts) * 1e3
        m["trace.overhead_s"] = (sum(r.get("cmd_s", 0.0) for r in traced)
                                 - sum(r.get("cmd_s", 0.0) for r in plain))
        shares = [accounted_share(r) for r in traced if "trace" in r]
        m["trace.accounted_share"] = min(shares) if shares else 0.0
        samples.append(m)
    return {k: median([s[k] for s in samples]) for k in PER_LAYER_UNITS}


# -- environment record -------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the package sources, a revision that needs no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment(args, warm: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": warm["backend"], "numpy": warm["numpy"],
            "scipy": warm["scipy"], "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(), "src_sha256": source_digest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "defaultable_hjb" / "cli.py").is_file():
        print(f"no defaultable_hjb sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    runner = Runner(args.seed, started, checks.load_reference())
    warm = runner.setup_only("warmup")
    if "error" in warm:
        print("warm-up failed: " + warm["error"] + "\n" + warm["stderr"],
              file=sys.stderr)
        return 3

    # Cycles repeat while the next one, as long as the mean so far, is
    # expected to end by --seconds (+15%); the first always runs.
    t0 = time.monotonic()
    cycles = []
    while True:
        if args.trace:
            cycles.append(traced_cycle(runner, args.workload))
        else:
            cycles.append(runner.cycle(args.workload, "off"))
        elapsed = time.monotonic() - t0
        if elapsed * (1 + 1 / len(cycles)) > 1.15 * args.seconds or \
                not runner.time_left():
            break

    if args.trace:
        print_breakdown([rec for _, traced, _ in cycles for rec in traced])
        values = per_layer(PROBE_PARTS[args.workload], cycles)
        units = PER_LAYER_UNITS
    else:
        setups = [rec["setup_s"] for cyc in cycles for rec in cyc
                  if "setup_s" in rec]
        while len(setups) < MIN_SETUP_SAMPLES and runner.time_left():
            rec = runner.setup_only("setup")
            if "setup_s" in rec:
                setups.append(rec["setup_s"])
        values = end_to_end(runner, PROBE_PARTS[args.workload], cycles,
                            setups)
        units = END_TO_END_UNITS
    print(json.dumps({"env": environment(args, warm)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
