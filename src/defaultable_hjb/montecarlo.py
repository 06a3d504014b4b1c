"""Independent stochastic verification of the PDE outputs.

Simulates the factor process, the intensity-driven default time and the
wealth under replayed trading policies in one time loop that keeps only
per-path state; then fills the terminal dual density and estimates the
certainty equivalent, the dual value and martingale mass from the
terminal state.  Everything is driven by a counter-based RNG (Philox) so
that a fixed seed reproduces estimates bit for bit.  The noise is read
on a helper thread (NoiseDraw), which a caller can start before other
work, such as the PDE solve, and wait for when it needs the noise.  The
loop is elementwise across paths, so simulate_halves can run the two
halves of the paths on two CPUs with the same bits: its worker forks
before the draw and stores the second half's noise as the helper draws
it, so each process holds only its own half.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import queue
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ClaimSpec, ModelSpec, Preferences
from .solver import CornerBlock, GridLookup, Surface

_DRAW_BLOCK = 1 << 17  # normals a draw holds: 1 MiB, whatever the path count


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    seed: int
    x0: float

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need n_paths >= 1 and n_steps >= 1")
        if self.seed < 0:
            raise ValueError("need seed >= 0")


@dataclass
class MCEstimate:
    mean: float
    std_error: float
    n_paths: int
    label: str = ""

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be non-negative")


@dataclass(frozen=True)
class Noise:
    """The random inputs of one simulation, time-major for the time loop.

    z drives the factor and z0 the Brownian motion orthogonal to it, each
    an (n_steps, n_paths) array of standard normals; exp_draws are the
    (n_paths,) Exp(1) default thresholds.
    """

    cfg: SimConfig
    z: np.ndarray
    z0: np.ndarray
    exp_draws: np.ndarray

    def __post_init__(self):
        shape = (self.cfg.n_steps, self.cfg.n_paths)
        if self.z.shape != shape or self.z0.shape != shape \
                or self.exp_draws.shape != shape[1:]:
            raise ValueError("noise shapes do not match the SimConfig")


@dataclass
class PathBundle:
    """The terminal state of the paths under one policy: what the
    estimators read."""

    cfg: SimConfig
    horizon: float
    x_T: np.ndarray           # (n_paths,) factor at the last simulation time
    delta: np.ndarray         # (n_paths,) default times (inf = no default)
    w_T: np.ndarray           # (n_paths,) terminal wealth
    protected: bool = False
    z_T: Optional[np.ndarray] = None  # terminal dual density Z_T

    @property
    def dt(self) -> float:
        return self.horizon / self.cfg.n_steps

    @property
    def t_end(self) -> float:
        """The last simulation time, which can differ from the horizon by
        an ulp."""
        return self.dt * self.cfg.n_steps

    def survived(self, t: float) -> np.ndarray:
        return self.delta > t


def draw_noise(cfg: SimConfig) -> Noise:
    """The noise of cfg.seed, read from one Philox stream in a fixed order.

    The stream gives each path's n_steps factor normals in turn, then each
    path's n_steps orthogonal normals, then one uniform per path for the
    default threshold.  The normals are drawn in blocks of whole paths and
    stored transposed, so the values are those of one (n_paths, n_steps)
    draw, while the draw itself needs only a block.  It starts a NoiseDraw
    and waits for it at once.
    """
    with NoiseDraw(cfg) as draw:
        return draw.wait()


class NoiseDraw:
    """The draw of draw_noise on a helper thread, started on construction.

    The helper first writes one value per 4 KiB page of the two noise
    arrays, so that the kernel maps and zeroes them (with transparent
    huge pages, a whole array at its first write) while the caller does
    other work, such as verify's solve.  It then reads the normals a
    quarter of _DRAW_BLOCK at a time and hands each block over through a
    one-slot queue; wait() stores it transposed while the helper reads
    the next.  numpy's draw, the page faults and the copy release the
    GIL, so they run beside the caller, and the four quarter blocks alive
    at most (stored, handed over, read, and for a moment the next) fit in
    _DRAW_BLOCK normals.  The helper calls only numpy and, for a worker,
    os.read and os.write.  Leaving the with block stops the helper after
    one more block at most and joins it, whatever ends the block.

    Given the worker of simulate_halves, which holds the paths
    [worker.cut, n), the arrays hold only the paths [0, worker.cut): the
    helper reads the same stream in the same order, each noise's blocks
    cut at worker.cut, and draws the worker's blocks straight into the
    worker's ring (_Worker.feed).  wait() then returns the noise of the
    caller's paths and keeps the worker's default thresholds in rest.
    """

    def __init__(self, cfg: SimConfig, worker: Optional[_Worker] = None):
        self.cfg = cfg
        self._worker = worker
        self._cut = cfg.n_paths if worker is None else worker.cut
        shape = (cfg.n_steps, self._cut)
        self._out = (np.empty(shape), np.empty(shape))  # z, z0
        self._rows = _block_rows(cfg)
        self._rng = np.random.Generator(np.random.Philox(cfg.seed))
        self._handoff = queue.Queue(maxsize=1)  # a block, or an error
        self._stop = threading.Event()
        self._helper = threading.Thread(target=self._read,
                                        name="draw_noise")
        self._helper.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        # once the handoff is emptied the helper's next put fits, and it
        # then sees the stop
        self._stop.set()
        try:
            self._handoff.get_nowait()
        except queue.Empty:
            pass
        self._helper.join()

    def wait(self) -> Noise:
        """Store the blocks the helper hands over and return the noise of
        the paths [0, cut); an error of the helper is raised here."""
        cfg = self.cfg
        for out in self._out:
            for lo in range(0, self._cut, self._rows):
                block = self._handoff.get()
                if isinstance(block, BaseException):
                    raise block
                out[:, lo:lo + len(block)] = block.T
        self._helper.join()
        if not self._handoff.empty():  # an error at the worker's last blocks
            raise self._handoff.get()
        u = self._rng.random(cfg.n_paths)
        u = np.where(u <= 0.0, np.nextafter(0.0, 1.0), u)  # open (0,1)
        exp_draws = -np.log1p(-u)
        self.rest = exp_draws[self._cut:]
        z, z0 = self._out
        return Noise(cfg=replace(cfg, n_paths=self._cut), z=z, z0=z0,
                     exp_draws=exp_draws[:self._cut])

    def _read(self) -> None:
        """The helper: the page writes, then z and z0 block by block, the
        caller's paths, then the worker's."""
        cfg = self.cfg
        try:
            for out in self._out:
                out.reshape(-1)[::512] = 0.0  # one write per 4 KiB page
            for _ in self._out:
                for lo, hi in ((0, self._cut), (self._cut, cfg.n_paths)):
                    for start in range(lo, hi, self._rows):
                        if self._stop.is_set():
                            return
                        rows = min(self._rows, hi - start)
                        if lo:
                            self._worker.feed(self._rng, rows)
                        else:
                            self._handoff.put(self._rng.standard_normal(
                                (rows, cfg.n_steps)))
        except BaseException as exc:
            self._handoff.put(exc)


def _block_rows(cfg: SimConfig) -> int:
    """The paths of one draw block: a quarter of _DRAW_BLOCK normals, or
    one path where a path is longer."""
    return max(1, _DRAW_BLOCK // (4 * cfg.n_steps))


def _factor_step(m: ModelSpec, x0: float, dt: float, n_paths: int):
    """One step of the factor scheme of the model kind, as a function
    (X_k, z_k) -> (X_{k+1}, dW_k), with dW_k the Brownian increment that
    also drives the wealth.

    The exact Gaussian transition for OU, full-truncation Euler for CIR
    (the auxiliary x~ it carries may go negative; X = max(x~, 0)), and for
    a custom model Euler clamped just inside the domain.
    """
    if m.kind == "ou":
        # exact Gaussian transition of dX = -b X dt + dW
        b_mr = m.params.b_mr
        if b_mr == 0.0:
            decay, sd = 1.0, np.sqrt(dt)
        else:
            decay = np.exp(-b_mr * dt)
            sd = np.sqrt((1.0 - decay * decay) / (2.0 * b_mr))

        def step(x, z_k):
            dW = sd * z_k
            return decay * x + dW, dW
        return step

    sq = np.sqrt(dt)
    if m.kind == "cir":
        p = m.params
        xt = np.full(n_paths, float(x0))

        def step(x, z_k):
            nonlocal xt
            # x is X_k = max(x~_k, 0), the truncated state
            xt = xt + p.kappa * (p.theta_lr - x) * dt \
                + p.xi * np.sqrt(x) * sq * z_k
            return np.maximum(xt, 0.0), sq * z_k
        return step

    lo, hi = m.domain.lower, m.domain.upper

    def step(x, z_k):
        dW = sq * z_k
        xn = x + np.asarray(m.b(x), dtype=float) * dt \
            + np.asarray(m.a(x), dtype=float) * dW
        if np.isfinite(lo):
            xn = np.maximum(xn, lo + 1e-12 * max(1.0, abs(lo)))
        if np.isfinite(hi):
            xn = np.minimum(xn, hi - 1e-12 * max(1.0, abs(hi)))
        return xn, dW
    return step


def simulate_policies(m: ModelSpec, noise: Noise, horizon: float, pi_fields,
                      rate_field=None) -> list:
    """Simulate the factor, the default time and each policy's wealth.

    One time loop over the steps keeps only per-path state: the factor,
    the intensity, its trapezoidal integral, the default times and each
    policy's wealth.  Step k, from t_k to t_{k+1}:

    1. the factor advances to X_{k+1} (see _factor_step);
    2. the integral C_{k+1} = C_k + (gamma_{k+1} + gamma_k) dt / 2 meets a
       path's Exp(1) threshold e for the first time: the path defaults in
       step k, at dt (k + clip((e - C_k) / (C_{k+1} - C_k), 0, 1)).  The
       built-in intensities are non-negative (constant and positive for
       OU; gamma1, gamma2 >= 0 on x >= 0 for CIR), so C never falls and a
       path that crosses stays crossed up to T; a custom intensity that
       goes negative defaults at its first crossing all the same;
    3. each wealth takes the increment of its policy at (t_k, X_k).
       Unprotected: pi (mu dt + sigma (rho dW + sqrt(1 - rho^2) dW0)) (the
       default compensator cancels the -gamma drift), a jump of -pi at
       default, frozen afterwards.  Protected, when the insurance
       rate_field f is given: drift pi (mu - gamma - f) dt plus the same
       diffusion, no jump.

    A field is a Surface or a callable f(t, x).  The policies share the
    paths (common random numbers), and each step evaluates the
    coefficients, the default masks and, for Surface fields on one grid,
    the bilinear cell once.  The factor, the intensity, the lookups and
    the wealth increments run on every path; the default time, the part of
    the step before it and the jump only on the paths that default in the
    step.  rho is a scalar for the built-in kinds and per path for a
    custom model.  Each grid's GridLookup is made once per call, and each
    Surface field's CornerBlock is rebuilt only when the time cell
    changes.  Returns one PathBundle per policy, sharing the factor and
    default arrays.
    """
    cfg = noise.cfg
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not bool(m.domain.contains(cfg.x0)):
        raise ValueError("x0 outside the model domain")
    n_steps, n_paths = cfg.n_steps, cfg.n_paths
    dt = horizon / n_steps
    sq = np.sqrt(dt)
    advance = _factor_step(m, cfg.x0, dt, n_paths)
    correlation = _correlation(m)
    protected = rate_field is not None
    fields = list(pi_fields) + ([rate_field] if protected else [])
    lookups = {f.grid: GridLookup(f.grid.ts, f.grid.xs) for f in fields
               if isinstance(f, Surface)}
    blocks = [CornerBlock(f.values) if isinstance(f, Surface) else None
              for f in fields]
    e = noise.exp_draws

    x = np.full(n_paths, float(cfg.x0))
    gam = np.asarray(m.gamma(x), dtype=float)
    cum = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    delta = np.full(n_paths, np.inf)
    wealth = [np.zeros(n_paths) for _ in pi_fields]
    for k in range(n_steps):
        t_k = dt * k
        x_next, dW = advance(x, noise.z[k])

        gam_next = np.asarray(m.gamma(x_next), dtype=float)
        cum_next = cum + 0.5 * (gam_next + gam) * dt
        defaulting = alive & (cum_next >= e)
        rows = None
        if defaulting.any():
            rows = np.flatnonzero(defaulting)
            lo, hi = cum[rows], cum_next[rows]
            denom = np.where(hi > lo, hi - lo, 1.0)
            frac = np.clip((e[rows] - lo) / denom, 0.0, 1.0)
            delta_rows = dt * (k + frac)
            delta[rows] = delta_rows
            alive[rows] = False
            part = np.clip(delta_rows - t_k, 0.0, dt)

        cells = {g: lk.cell(t_k, x) for g, lk in lookups.items()}
        values = [blk.gather(cells[f.grid]) if blk is not None
                  else np.asarray(f(t_k, x), dtype=float)
                  for f, blk in zip(fields, blocks)]
        mu = np.asarray(m.mu(x), dtype=float)
        sig = np.asarray(m.sigma(x), dtype=float)
        rho, rho_c = correlation(x)
        diff = sig * (rho * dW + rho_c * (noise.z0[k] * sq))
        if protected:
            drift = mu - gam - values.pop()  # the rate field, listed last
        else:
            drift = mu
        step = drift * dt + diff
        dead = ~alive
        if rows is not None:
            drift_part = _rows(drift, rows)
        for W, pi_k in zip(wealth, values):
            inc = pi_k * step
            inc[dead] = 0.0
            if rows is not None:
                pi_rows = _rows(pi_k, rows)
                jump = pi_rows * drift_part * part
                if not protected:
                    jump -= pi_rows
                inc[rows] = jump
            np.add(W, inc, out=W)
        x, gam, cum = x_next, gam_next, cum_next
    return [PathBundle(cfg=cfg, horizon=horizon, x_T=x, delta=delta, w_T=W,
                       protected=protected)
            for W in wealth]


# path-steps below which simulate_halves runs in process: the split costs
# a fork of the caller (about 65 MB in verify), the worker's page faults,
# the ring's handoffs, the pickles of the fields and the results, and on
# two CPUs the worker's stores compete with the draw.  On a 2-vCPU host
# with the reference CIR model and two 200^2 policies, draw included
# (medians of 9), in process against split: 124 against 159 ms at 300
# paths x 1000 steps, 157 against 169 at 400, 140 against 154 at 500,
# 227 against 251 at 1500, and 262 against 245 at 2000.  Fewer steps need
# more path-steps: at 100 steps the split lost at 3e6 (345 against 398 ms)
# and won at 1e7 (1030 against 835 ms)
_FORK_FLOOR = 2_000_000


@contextlib.contextmanager
def simulate_halves(m: ModelSpec, cfg: SimConfig, horizon: float):
    """simulate_policies of m over horizon on the noise of cfg, its paths
    [0, ceil(n/2)) in this process and [ceil(n/2), n) in a worker.

    Entering starts the draw of the noise (NoiseDraw), so the caller can
    do other work, such as verify's solve, while it runs; the Halves it
    gives runs the simulation once the fields are known.  Where this
    process may use two or more CPUs and the run has two or more paths
    and at least _FORK_FLOOR path-steps, the worker (_Worker) forks
    before the draw starts, so only the calling thread is alive at the
    fork: the helper draws the worker's half into a shared ring and the
    worker stores it, so each process holds only its own half's noise.
    Elsewhere (below the floor, on one CPU, inside a fork_map, for one
    path, or where a pipe, the ring or the fork is refused) the draw and
    the loop run in process.  The loop is elementwise across paths, so
    the bundles are bit for bit those of one simulate_policies call on
    draw_noise(cfg), sharing x_T and delta as they do.  Leaving the with
    block stops the helper after one more block at most, then kills and
    reaps a worker that has not ended, whatever ends the block.
    """
    worker = None
    if (cfg.n_paths > 1 and cfg.n_paths * cfg.n_steps >= _FORK_FLOOR
            and not _mapping and _cpus() >= 2):
        worker = _Worker.fork(m, cfg, horizon)
    try:
        with NoiseDraw(cfg, worker) as draw:
            yield Halves(m, horizon, draw, worker)
    finally:
        if worker is not None:
            worker.close()


class Halves:
    """The simulation of simulate_halves, once its fields are known."""

    def __init__(self, m: ModelSpec, horizon: float, draw: NoiseDraw,
                 worker: Optional[_Worker]):
        self._m, self._horizon = m, horizon
        self._draw, self._worker = draw, worker

    def simulate(self, pi_fields, rate_field=None) -> list:
        """simulate_policies(m, noise, horizon, pi_fields, rate_field) on
        the whole noise of cfg, once, after waiting for the draw; with a
        worker, its half's results joined after this process's in path
        order.  A field must then pickle: one that does not raises
        TypeError."""
        m, horizon, worker = self._m, self._horizon, self._worker
        noise = self._draw.wait()
        if worker is None:
            return simulate_policies(m, noise, horizon, pi_fields,
                                     rate_field)
        worker.send(self._draw.rest, pi_fields, rate_field)
        parts = [simulate_policies(m, noise, horizon, pi_fields, rate_field),
                 worker.receive()]
        shared = {name: np.concatenate([getattr(part[0], name)
                                        for part in parts])
                  for name in ("x_T", "delta")}
        return [PathBundle(cfg=self._draw.cfg, horizon=horizon, **shared,
                           w_T=np.concatenate([b.w_T for b in per_half]),
                           protected=rate_field is not None)
                for per_half in zip(*parts)]


class _Worker:
    """The process of simulate_halves that simulates the paths [cut, n).

    fork() makes a ring of four draw blocks (an anonymous shared mmap),
    two pipes and the process.  During the draw only one-byte slot
    numbers cross the pipes: feed, on the caller's helper thread, draws a
    block of the worker's paths into a free slot and sends its number
    down; the worker stores the slot's block transposed into its own
    (n_steps, n - cut) arrays and sends the number back up, which frees
    the slot.  After the draw, send() pickles the worker's default
    thresholds and the fields down, and receive() reads back what the
    worker sends up as a fork_map child does: its bundles, or its
    exception, and its warnings.  A worker that ends before it is done
    raises RuntimeError in the caller.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.cut = (cfg.n_paths + 1) // 2
        self.rows = _block_rows(cfg)
        self.pid = None
        self._free = [0, 1, 2, 3]  # the slots the helper may draw into
        self._sent = self._freed = 0  # slot numbers sent down and back up
        self._fds = []  # down write, up read
        self._ring = mmap.mmap(-1, 4 * self.rows * cfg.n_steps * 8)
        self._slots = np.frombuffer(self._ring).reshape(4, self.rows,
                                                        cfg.n_steps)

    @classmethod
    def fork(cls, m: ModelSpec, cfg: SimConfig, horizon: float):
        """A worker for the paths [cut, n) of cfg, or None, with nothing
        left open, where the ring, a pipe or the process is refused."""
        try:
            worker = cls(cfg)
        except OSError:
            return None
        forked = _fork(pipes=2)
        if forked is None:
            return None
        worker.pid, (down_r, down_w, up_r, up_w) = forked
        if worker.pid == 0:
            os.close(down_w)
            os.close(up_r)
            worker._serve(m, horizon, down_r, up_w)
        os.close(down_r)
        os.close(up_w)
        worker._fds = [down_w, up_r]
        return worker

    def feed(self, rng: np.random.Generator, rows: int) -> None:
        """On the helper: draw the next rows paths' normals into a free
        slot and send its number to the worker."""
        down, up = self._fds
        if not self._free:
            slot = os.read(up, 1)
            if not slot:
                raise self._died()
            self._freed += 1
            self._free.append(slot[0])
        slot = self._free.pop()
        rng.standard_normal(out=self._slots[slot, :rows])
        try:
            os.write(down, bytes([slot]))
        except BrokenPipeError:
            raise self._died() from None
        self._sent += 1

    def send(self, exp_draws: np.ndarray, pi_fields, rate_field) -> None:
        """Pickle the worker's default thresholds and the fields down."""
        for field in [*pi_fields, rate_field]:
            try:
                pickle.dumps(field)
            except Exception as exc:
                raise TypeError(f"the field {field!r} cannot be pickled for "
                                f"the simulate_halves worker: {exc}") from exc
        down = self._fds[0]
        view = memoryview(pickle.dumps((exp_draws, pi_fields, rate_field)))
        try:
            while view:
                view = view[os.write(down, view):]
        except BrokenPipeError:
            pass  # the worker has ended: receive() says so
        os.close(down)
        self._fds[0] = None

    def receive(self) -> list:
        """The worker's bundles, read after the slot numbers it sent back
        that the helper did not read; it is reaped here."""
        payload = _read_all(self._fds[1])[self._sent - self._freed:]
        pid, self.pid = self.pid, None
        done, failure = _collect(pid, payload, "simulate_halves")
        if failure is not None:
            raise failure[1]
        return done[0]

    def close(self) -> None:
        """Kill and reap the worker if it has not been reaped, and close
        what is still open."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for fd in self._fds:
            if fd is not None:
                os.close(fd)
        self._fds = []

    def _died(self) -> RuntimeError:
        return RuntimeError(f"simulate_halves worker {self.pid} ended "
                            "during the draw")

    def _serve(self, m: ModelSpec, horizon: float, down: int, up: int):
        """The body of the forked worker: store its half's noise, read its
        job, simulate, send, and exit without returning into the caller's
        stack."""
        try:
            cfg = replace(self.cfg, n_paths=self.cfg.n_paths - self.cut)
            shape = (cfg.n_steps, cfg.n_paths)
            out = (np.empty(shape), np.empty(shape))  # z, z0
            for arr in out:
                arr.reshape(-1)[::512] = 0.0  # one write per 4 KiB page
            for arr in out:
                for lo in range(0, cfg.n_paths, self.rows):
                    slot = os.read(down, 1)
                    if not slot:
                        return  # the caller is gone
                    rows = min(self.rows, cfg.n_paths - lo)
                    arr[:, lo:lo + rows] = self._slots[slot[0], :rows].T
                    os.write(up, slot)
            exp_draws, pi_fields, rate_field = pickle.loads(_read_all(down))
            noise = Noise(cfg=cfg, z=out[0], z0=out[1], exp_draws=exp_draws)
            _worker(lambda _: simulate_policies(m, noise, horizon, pi_fields,
                                                rate_field), [None], up)
        finally:
            os._exit(1)


def _correlation(m: ModelSpec):
    """x -> (rho, sqrt(max(1 - rho^2, 0))): Python scalars for the built-in
    kinds, whose rho is rho_const, per-path arrays for a custom model."""
    if m.kind != "custom":
        rho = float(m.params.rho_const)
        pair = rho, math.sqrt(max(1.0 - rho * rho, 0.0))
        return lambda x: pair

    def per_path(x):
        rho = np.asarray(m.rho(x), dtype=float)
        return rho, np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
    return per_path


def _rows(v: np.ndarray, rows: np.ndarray):
    """v on the given rows; a 0-d v is one value for every path."""
    return v[rows] if v.ndim else v


def _sample_mean(values: np.ndarray, label: str) -> MCEstimate:
    """The mean of the per-path values and its standard error
    std(ddof=1) / sqrt(n), 0 for one path."""
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(mean=float(np.mean(values)), std_error=se, n_paths=n,
                      label=label)


def estimate_certainty_equivalent(bundle: PathBundle, claim: ClaimSpec,
                                  pref: Preferences,
                                  label: str = "ce") -> MCEstimate:
    """CE = -(1/alpha) log mean exp(-alpha (W_T + 1_{delta>T} q phi(X_T)))."""
    al = pref.alpha
    payoff = bundle.w_T.copy()
    surv = bundle.survived(bundle.horizon)
    if not bundle.protected and surv.any():
        payoff[surv] += claim.q * np.asarray(
            claim.phi(bundle.x_T[surv]), dtype=float)
    exponent = -al * payoff
    top = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        y = _sample_mean(np.exp(exponent), label)
    if not (0.0 < y.mean < math.inf and math.isfinite(y.std_error)):
        # e^{-alpha payoff} or its square leaves the doubles: the mean of
        # e^{-alpha payoff - top} (log-sum-exp), whose log transform has
        # the same standard error
        top = float(exponent.max())
        with np.errstate(invalid="ignore"):
            y = _sample_mean(np.exp(exponent - top), label)
    # the delta method for the log transform
    return replace(y, mean=float(-(np.log(y.mean) + top) / al),
                   std_error=y.std_error / (al * y.mean))


def dual_density_terminal(G: Surface, bundle: PathBundle,
                          pref: Preferences) -> PathBundle:
    """Fill the terminal dual density Z_T, which the dual estimators read.

    Z_T = exp(-alpha (W_T - G(0, x0) + 1_{delta>T} G(T, X_T))), evaluated
    at the last simulation time t_end, which can differ from the horizon
    by an ulp.
    """
    al = pref.alpha
    g00 = float(G.at(0.0, np.atleast_1d(bundle.cfg.x0))[0])
    t_T = bundle.t_end
    surv = bundle.survived(t_T)
    g_T = np.where(surv, G.at(t_T, bundle.x_T), 0.0)
    bundle.z_T = np.exp(-al * (bundle.w_T - g00 + g_T))
    return bundle


def _terminal_density(bundle: PathBundle) -> np.ndarray:
    if bundle.z_T is None:
        raise ValueError("dual_density_terminal must run first")
    return bundle.z_T


def estimate_dual_value(bundle: PathBundle, claim: ClaimSpec,
                        pref: Preferences, label: str = "dual") -> MCEstimate:
    """(1/alpha) E[Z_T log Z_T] + E[Z_T 1_{delta>T} q phi(X_T)]."""
    zT = _terminal_density(bundle)
    al = pref.alpha
    surv = bundle.survived(bundle.horizon)
    phi_T = np.where(surv,
                     claim.q * np.asarray(claim.phi(bundle.x_T), dtype=float),
                     0.0)
    per_path = np.where(zT > 0.0, zT * np.log(np.maximum(zT, 1e-300)), 0.0) \
        / al + zT * phi_T
    return _sample_mean(per_path, label)


def estimate_martingale_mass(bundle: PathBundle,
                             label: str = "mass") -> MCEstimate:
    """E[Z_T]; equals 1 for a true density process."""
    return _sample_mean(_terminal_density(bundle), label)


# True while this process runs a fork_map, and in the child it forks: a
# map started from inside one runs in process, so maps never nest
_mapping = False


def _fork(pipes: int = 1):
    """(pid, fds) of a fork made after that many pipes, fds holding each
    pipe's read and write ends in turn, or None, with nothing left open,
    where a pipe or the process is refused."""
    fds = []
    try:
        for _ in range(pipes):
            fds.extend(os.pipe())
        sys.stdout.flush()
        sys.stderr.flush()
        return os.fork(), fds
    except OSError:
        for fd in fds:
            os.close(fd)
        return None


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], on up to two CPUs.

    Where this process may use two or more CPUs and there are two or more
    items, the odd-numbered items run in one child forked for this call,
    which inherits fn and the items (numpy arrays copy-on-write), and the
    even-numbered ones in this process.  The child sends back, as one
    pickle over a pipe, its results, or its first exception, and the
    warnings it recorded under the filters it inherited.  The caller
    re-emits those warnings and raises the first failing item's
    exception, in item order.  The child is reaped before the call
    returns, and killed first if the call raises; a child that ends
    without sending raises RuntimeError.  On one CPU, for one item, for
    a call made from inside a map (in the child, or from fn in the
    caller), and where the system refuses the pipe or the process (an
    OSError such as EAGAIN under a process limit), it is the plain loop,
    whose fn(item) is the child's to the bit.
    """
    global _mapping
    items = list(items)
    forked = None
    if not (_mapping or len(items) < 2 or _cpus() < 2):
        forked = _fork()
    if forked is None:
        return [fn(item) for item in items]
    pid, (read_fd, write_fd) = forked
    if pid == 0:
        os.close(read_fd)
        _worker(fn, items[1::2], write_fd)
    os.close(write_fd)
    _mapping = True
    reaped = False
    try:
        mine, failure = _run_share(fn, items[0::2])
        # this process's item i is item 2i, the child's item i is 2i + 1:
        # a failure at item 0 comes before all of the child's
        if failure is not None and failure[0] == 0:
            raise failure[1]
        payload = _read_all(read_fd)
        reaped = True
        theirs, child_failure = _collect(pid, payload, "fork_map")
        if child_failure is not None and (
                failure is None or child_failure[0] < failure[0]):
            failure = child_failure
        if failure is not None:
            raise failure[1]
        results = [None] * len(items)
        results[0::2], results[1::2] = mine, theirs
        return results
    finally:
        _mapping = False
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)


def _read_all(fd: int) -> bytes:
    """What fd gives up to its end."""
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _collect(pid: int, payload: bytes, name: str):
    """Reap the child pid and unpickle what its _worker sent: (its
    results, its failure or None), with its warnings re-emitted here; a
    child that ended without sending raises RuntimeError."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not payload:
        raise RuntimeError(f"{name} worker {pid} ended with exit code "
                           f"{code} before sending its results")
    done, failure, warned = pickle.loads(payload)
    for message, category, filename, lineno in warned:
        warnings.warn_explicit(message, category, filename, lineno)
    return done, failure


def _run_share(fn, share: list):
    """fn on the items of share up to the first exception: (the results,
    (the failing item's index in share, its exception) or None)."""
    done = []
    for item in share:
        try:
            done.append(fn(item))
        except Exception as exc:
            return done, (len(done), exc)
    return done, None


def _worker(fn, share: list, write_fd: int):
    """The body of the forked child: run its share, send it, and exit
    without returning into the caller's stack."""
    global _mapping
    _mapping = True
    status = 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            done, failure = _run_share(fn, share)
        warned = [(str(w.message), w.category, w.filename, w.lineno)
                  for w in caught]
        view = memoryview(pickle.dumps((done, failure, warned)))
        while view:
            view = view[os.write(write_fd, view):]
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)
