"""One defaultable-hjb CLI call in a fresh process, timed from the inside.

    python3 child.py RESULT_JSON SPAWN_T TRACE -- CLI_ARGS...
    python3 child.py RESULT_JSON SPAWN_T off --setup-only CONFIG

SPAWN_T is ``time.monotonic()`` in the parent just before it started this
process, so interpreter start-up is counted as set-up.  Set-up is that, the
import of ``defaultable_hjb.cli``, and every call of ``parse_config``,
``build_problem`` and ``make_grid``; the subcommand's own time is the rest of
``cli.main``.  ``--setup-only`` does the set-up of a ``solve`` call and stops.
TRACE is off, spans or memory (see spans.Tracer); when traced, the result
carries the tracer's aggregates.  An untraced subcommand runs under the
speed probe (SpeedProbe); its samples go into the result, and its own time
and memory are taken out of the subcommand's.  The result is written as JSON to
RESULT_JSON; a call that raises writes none.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

SETUP_FUNCS = ("parse_config", "build_problem", "make_grid")
PROBE_PERIOD_S = 0.02


class SpeedProbe:
    """Samples the host's speed while the subcommand runs.

    Every PROBE_PERIOD_S a SIGALRM handler times a fixed numpy kernel of
    about 0.4 ms in two parts: 25 rounds of elementwise math on 400-element
    arrays, the size of the solver's grid rows, which follows the CPU's
    speed; and a gather of 10^4 values, verify's path count, from an 8 MB
    table, which follows the memory system's as well.  The handler runs in
    this process between bytecodes, so it samples the same CPU, in the same
    state, as the subcommand.  Samples are (start, cpu part's seconds,
    memory part's seconds), the start relative to ``t0``.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.xs = np.linspace(0.5, 1.5, 400)
        self.table = rng.random(1 << 20)
        self.index = rng.integers(0, self.table.size, 10_000)
        self.t0 = 0.0
        self.samples = []

    @property
    def resident_mb(self) -> float:
        """Memory the probe holds for the whole call."""
        return (self.table.nbytes + self.index.nbytes) / 2**20

    def _tick(self, signum, frame) -> None:
        np = self.np
        start = time.perf_counter()
        y = self.xs
        for _ in range(25):
            y = np.sqrt(np.exp(-y) * y + np.log1p(y)) * 0.5 + self.xs
        mid = time.perf_counter()
        _ = self.table[self.index] * 0.5 + 1.0
        self.samples.append((start - self.t0, mid - start,
                             time.perf_counter() - mid))

    def start(self, t0: float) -> None:
        self.t0 = t0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def main() -> int:
    out_path, spawn_t, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    rest = sys.argv[4:]
    t_start = time.monotonic()
    t0 = time.perf_counter()
    import defaultable_hjb.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if trace in ("spans", "memory"):
        import spans
        tracer = spans.Tracer(memory=trace == "memory")
        tracer.install()
        if not tracer.memory:
            cli.open = tracer.traced_open("cli.write")

    setup = dict.fromkeys(SETUP_FUNCS, 0.0)

    def timed_setup(name, fn):
        def call(*args, **kwargs):
            if tracer is not None:
                tracer.in_setup = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setup[name] += time.perf_counter() - start
                if tracer is not None:
                    tracer.in_setup = False
        return call

    for name in SETUP_FUNCS:
        setattr(cli, name, timed_setup(name, getattr(cli, name)))

    probe = SpeedProbe() if rest[0] == "--" and tracer is None else None
    t0 = time.perf_counter()
    if rest[0] == "--setup-only":
        args = cli.build_parser().parse_args(["solve", "--config", rest[1]])
        cfg = cli.parse_config(args.config, args)
        m, _, pref = cli.build_problem(cfg)
        cli.make_grid(cfg, m, pref)
        rc = 0
    elif rest[0] == "--":
        if probe is not None:
            probe.start(t0)
        try:
            rc = cli.main(rest[1:])
        finally:
            if probe is not None:
                probe.stop()
    else:
        raise SystemExit(f"unexpected arguments {rest!r}")
    main_s = time.perf_counter() - t0
    sys.stdout.flush()

    setup_calls_s = sum(setup.values())
    samples = probe.samples if probe is not None else []
    probe_s = sum(cpu_s + memory_s for _, cpu_s, memory_s in samples)
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe is not None:
        maxrss_mb -= probe.resident_mb
    from defaultable_hjb.backends import backend_name
    import numpy
    import scipy
    result = {
        "cli_rc": rc,
        "interpreter_s": t_start - spawn_t,
        "import_s": import_s,
        "setup_funcs_s": setup,
        "setup_s": (t_start - spawn_t) + import_s + setup_calls_s,
        "main_s": main_s,
        "cmd_s": main_s - setup_calls_s - probe_s,
        "probe": samples,
        "maxrss_mb": maxrss_mb,
        "backend": backend_name(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package_file": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
