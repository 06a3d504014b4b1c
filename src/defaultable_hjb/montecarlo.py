"""Independent stochastic verification of the PDE outputs.

Simulates the factor process, the intensity-driven default time and the
wealth under replayed trading policies in one time loop that keeps only
per-path state; then fills the terminal dual density and estimates the
certainty equivalent, the dual value and martingale mass from the
terminal state.  Everything is driven by a counter-based RNG (Philox) so
that a fixed seed reproduces estimates bit for bit.
"""

from __future__ import annotations

import math
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
