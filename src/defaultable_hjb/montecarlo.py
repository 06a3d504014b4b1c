"""Independent stochastic verification of the PDE outputs.

Simulates the factor process, the intensity-driven default time, wealth
under a replayed trading policy, and the candidate dual density; then
estimates the certainty equivalent, the dual value, and martingale mass.
Everything is driven by a counter-based RNG (Philox) so that a fixed
seed reproduces estimates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import backends
from .model import ClaimSpec, ModelSpec, Preferences
from .solver import Surface, bilinear_cell, bilinear_gather


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    seed: int
    x0: float

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("need n_paths >= 1 and n_steps >= 1")


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


@dataclass
class PathBundle:
    cfg: SimConfig
    horizon: float
    ts: np.ndarray                      # (n_steps+1,) simulation times
    x: np.ndarray                       # (n_paths, n_steps+1)
    dW: np.ndarray                      # (n_paths, n_steps) factor noise
    dW0: np.ndarray                     # (n_paths, n_steps) orthogonal noise
    exp_draws: np.ndarray               # (n_paths,) Exp(1) thresholds
    delta: Optional[np.ndarray] = None  # default times (inf = no default)
    default_step: Optional[np.ndarray] = None
    wealth: Optional[np.ndarray] = None
    protected: bool = False
    zhat: Optional[np.ndarray] = None   # terminal dual density Z_T

    @property
    def dt(self) -> float:
        return self.horizon / self.cfg.n_steps

    def survived(self, t: float) -> np.ndarray:
        return self.delta > t


def simulate_factor(m: ModelSpec, cfg: SimConfig, horizon: float) -> PathBundle:
    """Simulate the factor and draw all noise; default time not yet set.

    The scheme follows the model kind: the exact Gaussian transition for
    OU, full-truncation Euler for CIR, and for a custom model Euler
    clamped just inside the domain.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not bool(m.domain.contains(cfg.x0)):
        raise ValueError("x0 outside the model domain")
    dt = horizon / cfg.n_steps
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    z = rng.standard_normal((cfg.n_paths, cfg.n_steps))
    z0 = rng.standard_normal((cfg.n_paths, cfg.n_steps))
    u = rng.random(cfg.n_paths)
    u = np.where(u <= 0.0, np.nextafter(0.0, 1.0), u)  # open interval (0,1)
    exp_draws = -np.log1p(-u)

    if m.kind == "ou":
        # exact Gaussian transition of dX = -b X dt + dW
        b_mr = m.params.b_mr
        if b_mr == 0.0:
            decay, sd = 1.0, np.sqrt(dt)
        else:
            decay = np.exp(-b_mr * dt)
            sd = np.sqrt((1.0 - decay * decay) / (2.0 * b_mr))
        dW = sd * z
        x = backends.ou_paths(cfg.x0, decay, dW)
    elif m.kind == "cir":
        p = m.params
        x = backends.cir_paths(cfg.x0, p.kappa, p.theta_lr, p.xi, dt, z)
        dW = np.sqrt(dt) * z
    else:
        dW = np.sqrt(dt) * z
        x = np.empty((cfg.n_paths, cfg.n_steps + 1))
        x[:, 0] = cfg.x0
        lo, hi = m.domain.lower, m.domain.upper
        for k in range(cfg.n_steps):
            xk = x[:, k]
            xn = xk + np.asarray(m.b(xk), dtype=float) * dt \
                + np.asarray(m.a(xk), dtype=float) * dW[:, k]
            if np.isfinite(lo):
                xn = np.maximum(xn, lo + 1e-12 * max(1.0, abs(lo)))
            if np.isfinite(hi):
                xn = np.minimum(xn, hi - 1e-12 * max(1.0, abs(hi)))
            x[:, k + 1] = xn
    ts = dt * np.arange(cfg.n_steps + 1)
    return PathBundle(cfg=cfg, horizon=horizon, ts=ts, x=x, dW=dW, dW0=z0 * np.sqrt(dt),
                      exp_draws=exp_draws)


def simulate_default(m: ModelSpec, bundle: PathBundle) -> PathBundle:
    """Fill default times: trapezoidal cumulative intensity vs the Exp(1) draw."""
    intensity = np.asarray(m.gamma(bundle.x), dtype=float)
    delta, step = backends.crossing_times(intensity, bundle.dt,
                                          bundle.exp_draws)
    bundle.delta = delta
    bundle.default_step = np.asarray(step, dtype=np.int64)
    return bundle


def replay_policies(m: ModelSpec, pi_fields, bundle: PathBundle,
                    pref: Preferences, rate_field=None) -> list:
    """Drive the wealth recursion under each policy on the same paths.

    Unprotected: pre-default increment pi*(mu dt + sigma(rho dW
    + sqrt(1-rho^2) dW0)) (the default compensator cancels the -gamma
    drift), a jump of -pi at default, frozen afterwards.  Protected, when
    the insurance rate_field f is given: drift pi*(mu - gamma - f) dt plus
    the same diffusion, no jump.  A field is a Surface or a callable
    f(t, x).

    The policies share one time loop (common random numbers): each step
    evaluates the coefficients, the diffusion increment, the default
    masks and, for Surface fields on one grid, the bilinear cell once.
    Returns one bundle per field, sharing the paths of ``bundle`` and
    carrying that policy's wealth.
    """
    if bundle.delta is None:
        raise ValueError("simulate_default must run before replay_policies")
    protected = rate_field is not None
    n_paths, n_steps = bundle.dW.shape
    dt = bundle.dt
    ds = bundle.default_step
    fields = list(pi_fields) + ([rate_field] if protected else [])
    grids = {f.grid: (f.grid.ts, f.grid.xs) for f in fields
             if isinstance(f, Surface)}
    # time-major wealth, so that each step writes one contiguous row; path
    # columns are read once per step, since strided reads dominate the loop
    wealth = [np.zeros((n_steps + 1, n_paths)) for _ in pi_fields]
    for k in range(n_steps):
        t_k = bundle.ts[k]
        xk = bundle.x[:, k].copy()
        cells = {g: bilinear_cell(ts, xs, t_k, xk)
                 for g, (ts, xs) in grids.items()}
        values = [bilinear_gather(f.values, cells[f.grid])
                  if isinstance(f, Surface)
                  else np.asarray(f(t_k, xk), dtype=float)
                  for f in fields]
        mu = np.asarray(m.mu(xk), dtype=float)
        sig = np.asarray(m.sigma(xk), dtype=float)
        rho = np.asarray(m.rho(xk), dtype=float)
        diff = sig * (rho * bundle.dW[:, k]
                      + np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
                      * bundle.dW0[:, k])
        if protected:
            gam = np.asarray(m.gamma(xk), dtype=float)
            drift = mu - gam - values.pop()  # the rate field, listed last
        else:
            drift = mu
        step = drift * dt + diff
        alive = ds > k
        defaulting = ds == k
        part = np.clip(bundle.delta - t_k, 0.0, dt) \
            if defaulting.any() else None
        for W, pi_k in zip(wealth, values):
            inc = np.where(alive, pi_k * step, 0.0)
            if part is not None:
                jump_inc = pi_k * drift * part
                if not protected:
                    jump_inc = jump_inc - pi_k
                inc = np.where(defaulting, jump_inc, inc)
            np.add(W[k], inc, out=W[k + 1])
    return [replace(bundle, wealth=W.T, protected=protected)
            for W in wealth]


def estimate_certainty_equivalent(bundle: PathBundle, claim: ClaimSpec,
                                  pref: Preferences,
                                  label: str = "ce") -> MCEstimate:
    """CE = -(1/alpha) log mean exp(-alpha (W_T + 1_{delta>T} q phi(X_T)))."""
    if bundle.wealth is None:
        raise ValueError("replay_policies must run before the CE estimate")
    al = pref.alpha
    payoff = bundle.wealth[:, -1].copy()
    surv = bundle.survived(bundle.horizon)
    if not bundle.protected and surv.any():
        payoff[surv] += claim.q * np.asarray(
            claim.phi(bundle.x[surv, -1]), dtype=float)
    y = np.exp(-al * payoff)
    mean = float(np.mean(y))
    se_y = float(np.std(y, ddof=1) / np.sqrt(len(y))) if len(y) > 1 else 0.0
    ce = -np.log(mean) / al
    se = se_y / (al * mean)  # delta method for the log transform
    return MCEstimate(mean=float(ce), std_error=se, n_paths=len(y),
                      label=label)


def dual_density_terminal(G: Surface, bundle: PathBundle,
                          pref: Preferences) -> PathBundle:
    """Fill the terminal dual density Z_T, all the estimators read.

    Z_T = exp(-alpha (W_T - G(0, x0) + 1_{delta>T} G(T, X_T))), evaluated
    at the last simulation time ts[-1], which can differ from the horizon
    by an ulp.  Stores a single-column zhat; the estimators read
    zhat[:, -1].
    """
    if bundle.wealth is None:
        raise ValueError("replay_policies must run before the dual density")
    al = pref.alpha
    g00 = float(G.at(0.0, np.atleast_1d(bundle.cfg.x0))[0])
    t_T = bundle.ts[-1]
    surv = bundle.survived(t_T)
    g_T = np.where(surv, G.at(t_T, bundle.x[:, -1]), 0.0)
    zT = np.exp(-al * (bundle.wealth[:, -1] - g00 + g_T))
    bundle.zhat = zT[:, None]
    return bundle


def estimate_dual_value(bundle: PathBundle, claim: ClaimSpec,
                        pref: Preferences, label: str = "dual") -> MCEstimate:
    """(1/alpha) E[Z_T log Z_T] + E[Z_T 1_{delta>T} q phi(X_T)]."""
    if bundle.zhat is None:
        raise ValueError("dual_density_terminal must run first")
    al = pref.alpha
    zT = bundle.zhat[:, -1]
    surv = bundle.survived(bundle.horizon)
    phi_T = np.where(surv,
                     claim.q * np.asarray(claim.phi(bundle.x[:, -1]),
                                          dtype=float),
                     0.0)
    per_path = np.where(zT > 0.0, zT * np.log(np.maximum(zT, 1e-300)), 0.0) \
        / al + zT * phi_T
    mean = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / np.sqrt(len(per_path))) \
        if len(per_path) > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n_paths=len(per_path),
                      label=label)


def estimate_martingale_mass(bundle: PathBundle,
                             label: str = "mass") -> MCEstimate:
    """E[Z_T]; equals 1 for a true density process."""
    zT = bundle.zhat[:, -1]
    mean = float(np.mean(zT))
    se = float(np.std(zT, ddof=1) / np.sqrt(len(zT))) if len(zT) > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n_paths=len(zT), label=label)
