"""Self-time tracing of the defaultable_hjb package, installed from outside.

The tracer replaces each public function of each package module, and each
public method of its classes, by a timing wrapper.  It replaces the function
at every module attribute that holds it, so names imported by value
(``cli.solve_full``, ``solver.theta_of_log``, ``pricing.theta_of_log``) are
traced too.  A span's self time is its duration minus the time of the spans
it encloses; private helpers are not wrapped, so their time is self time of
the nearest public caller.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

PACKAGE = "defaultable_hjb"

# The product-log kernels are part of the lambertw layer: their time stays
# in lambertw.theta_of_log.  backend_name is not work.
NOT_WRAPPED = {"backends.theta_array", "backends.theta_from_log_array",
               "backends.backend_name"}

SOLVES = {"solver.solve_full", "solver.solve_local",
          "solver.solve_local_chi", "solver.solve_protected"}

# Element counts: how many values one call works on.
ELEMS = {
    "lambertw.theta_of_log": lambda args, result: np.size(args[0]),
    "backends.cir_paths": lambda args, result: np.size(result),
}

# Monte Carlo stages whose allocation peak tracemalloc records.
MC_STAGES = {
    "montecarlo.simulate_factor": "simulate_factor",
    "montecarlo.simulate_default": "simulate_default",
    "montecarlo.replay_policy": "replay_policy",
    "montecarlo.simulate_dual_density": "simulate_dual_density",
    "montecarlo.estimate_certainty_equivalent": "estimators",
    "montecarlo.estimate_martingale_mass": "estimators",
    "montecarlo.estimate_dual_value": "estimators",
    "montecarlo.dual_density_terminal": "estimators",
}

# Stages that return the path bundle whose arrays are sized.
BUNDLE_RETURNS = {"montecarlo.simulate_factor", "montecarlo.replay_policy",
                  "montecarlo.simulate_dual_density"}


def bundle_bytes(bundle) -> int:
    """Computed size of the ndarray fields of a PathBundle."""
    return sum(v.nbytes for v in vars(bundle).values()
               if isinstance(v, np.ndarray))


def span_key(module_name: str, name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    # backends binds tridiag_solve = tridiag_solve_np etc.; key by the
    # dispatch name that callers use.
    if short == "backends" and name.endswith("_np"):
        name = name[:-3]
    return f"{short}.{name}"


class Tracer:
    """Aggregated spans of one process: calls, self and total time, elements.

    Spans that end while ``in_setup`` is set are not booked: the caller
    times set-up itself.  Their time still leaves their parent's self time.
    With ``memory=True`` only the Monte Carlo stages are wrapped, and each
    records its tracemalloc peak; tracemalloc slows allocation, so span
    times are taken in a process without it.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.in_setup = False
        self.stats = {}        # key -> [calls, self s, total s, elements]
        self.counters = {"steps_marched": 0, "node_steps": 0,
                         "solve_incl_s": 0.0, "theta_in_solve": 0,
                         "tridiag_in_solve": 0}
        self.peak_alloc = {}
        self.path_array_bytes = 0
        self._stack = []       # [key, time of enclosed spans]
        self._solve_depth = 0

    # -- recording ---------------------------------------------------------
    def _book(self, key, dur, child, elems):
        if self.in_setup:
            return
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        st[3] += elems

    def wrap(self, key: str, fn):
        elems_of = ELEMS.get(key)
        is_solve = key in SOLVES
        stage = MC_STAGES.get(key) if self.memory else None
        sizes_bundle = key in BUNDLE_RETURNS
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._solve_depth:
                if key == "lambertw.theta_of_log":
                    tracer.counters["theta_in_solve"] += 1
                elif key == "backends.tridiag_solve":
                    tracer.counters["tridiag_in_solve"] += 1
            own_malloc = stage is not None and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            if is_solve:
                tracer._solve_depth += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                if is_solve:
                    tracer._solve_depth -= 1
                    if result is not None:
                        g = result.grid
                        tracer.counters["steps_marched"] += g.n_time
                        tracer.counters["node_steps"] += \
                            g.n_time * (g.n_space + 1)
                        tracer.counters["solve_incl_s"] += dur
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    mb = peak / 2**20
                    tracer.peak_alloc[stage] = max(
                        tracer.peak_alloc.get(stage, 0.0), mb)
                if sizes_bundle and result is not None:
                    tracer.path_array_bytes = max(tracer.path_array_bytes,
                                                  bundle_bytes(result))
                elems = elems_of(args, result) if (
                    elems_of is not None and result is not None) else 0
                tracer._book(key, dur, frame[1], int(elems))

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every public package function at every module attribute."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        originals = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and \
                        obj.__module__.startswith(PACKAGE):
                    key = span_key(obj.__module__, obj.__name__)
                    if key not in NOT_WRAPPED and (
                            key in MC_STAGES or not self.memory):
                        originals[obj] = key
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not self.memory:
                    self._wrap_methods(mod, obj)
        wrapped = {fn: self.wrap(key, fn) for fn, key in originals.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def _wrap_methods(self, mod, cls) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            key = span_key(mod.__name__, f"{cls.__name__}.{name}")
            setattr(cls, name, self.wrap(key, obj))

    def traced_open(self, key: str):
        """An ``open`` whose opening, writes and close are spans ``key``."""
        wrap = self.wrap

        class TracedFile:
            def __init__(self, fh):
                self.write = wrap(key, fh.write)
                self.close = wrap(key, fh.close)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()
                return False

        return wrap(key, lambda *a, **kw: TracedFile(open(*a, **kw)))

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "peak_alloc_mb": self.peak_alloc,
                "path_array_bytes": self.path_array_bytes}
