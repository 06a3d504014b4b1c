"""Independent stochastic verification of the PDE outputs.

Simulates the factor process, the intensity-driven default time and the
wealth under replayed trading policies in one time loop that keeps only
per-path state; then fills the terminal dual density and estimates the
certainty equivalent, the dual value and martingale mass from the
terminal state.  Everything is driven by a counter-based RNG (Philox) so
that a fixed seed reproduces estimates bit for bit.  The loop is
elementwise across paths, so simulate_halves can run the two halves of
the paths on two CPUs (fork_map) with the same bits.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ClaimSpec, ModelSpec, Preferences
from .solver import CornerBlock, GridLookup, Surface

_DRAW_BLOCK = 1 << 17  # normals per draw: 1 MiB, whatever the path count


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
    note: str = ""

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
    default_step: np.ndarray  # (n_paths,) step of the default (n_steps: none)
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
    draw, while the draw itself needs only a block.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    z = _time_major_normals(rng, cfg)
    z0 = _time_major_normals(rng, cfg)
    u = rng.random(cfg.n_paths)
    u = np.where(u <= 0.0, np.nextafter(0.0, 1.0), u)  # open interval (0,1)
    return Noise(cfg=cfg, z=z, z0=z0, exp_draws=-np.log1p(-u))


def _time_major_normals(rng, cfg: SimConfig) -> np.ndarray:
    out = np.empty((cfg.n_steps, cfg.n_paths))
    rows = max(1, _DRAW_BLOCK // cfg.n_steps)
    for lo in range(0, cfg.n_paths, rows):
        hi = min(lo + rows, cfg.n_paths)
        out[:, lo:hi] = rng.standard_normal((hi - lo, cfg.n_steps)).T
    return out


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
    default_step = np.full(n_paths, n_steps, dtype=np.int64)
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
            default_step[rows] = k
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
    return [PathBundle(cfg=cfg, horizon=horizon, x_T=x, delta=delta,
                       default_step=default_step, w_T=W, protected=protected)
            for W in wealth]


def simulate_halves(m: ModelSpec, noise: Noise, horizon: float, pi_fields,
                    rate_field=None) -> list:
    """simulate_policies on the paths [0, ceil(n/2)) and [ceil(n/2), n),
    mapped over up to two CPUs by fork_map, and joined in path order.

    The loop is elementwise across paths, so the bundles are bit for bit
    those of one simulate_policies call, sharing x_T, delta and
    default_step as they do.  Each half reads a view of the noise, which
    a forked worker shares copy-on-write.
    """
    cfg = noise.cfg
    if cfg.n_paths == 1:
        return simulate_policies(m, noise, horizon, pi_fields, rate_field)
    cuts = (0, (cfg.n_paths + 1) // 2, cfg.n_paths)
    halves = [Noise(cfg=replace(cfg, n_paths=hi - lo), z=noise.z[:, lo:hi],
                    z0=noise.z0[:, lo:hi], exp_draws=noise.exp_draws[lo:hi])
              for lo, hi in zip(cuts, cuts[1:])]
    parts = fork_map(lambda half: simulate_policies(m, half, horizon,
                                                    pi_fields, rate_field),
                     halves)
    shared = {name: np.concatenate([getattr(part[0], name) for part in parts])
              for name in ("x_T", "delta", "default_step")}
    return [PathBundle(cfg=cfg, horizon=horizon, **shared,
                       w_T=np.concatenate([b.w_T for b in per_half]),
                       protected=rate_field is not None)
            for per_half in zip(*parts)]


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
    y = _sample_mean(np.exp(-al * payoff), label)
    # the delta method for the log transform
    return replace(y, mean=float(-np.log(y.mean) / al),
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
    without sending raises RuntimeError.  On one CPU, for one item, and
    for a call made from inside a map (in the child, or from fn in the
    caller), it is the plain loop.
    """
    global _mapping
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    if _mapping or cpus < 2 or len(items) < 2:
        return [fn(item) for item in items]
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
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
        chunks = []
        while chunk := os.read(read_fd, 1 << 20):
            chunks.append(chunk)
        payload = b"".join(chunks)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not payload:
            raise RuntimeError(f"fork_map worker {pid} ended with exit code "
                               f"{code} before sending its results")
        theirs, child_failure, warned = pickle.loads(payload)
        for message, category, filename, lineno in warned:
            warnings.warn_explicit(message, category, filename, lineno)
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
