"""Independent stochastic verification of the PDE outputs.

Simulates the factor process, the intensity-driven default time, wealth
under a replayed trading policy, and the candidate dual density; then
estimates the certainty equivalent, the dual value, and martingale mass.
Everything is driven by a counter-based RNG (Philox) so that a fixed
seed reproduces estimates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

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
    t0: float = 0.0

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
    zhat: Optional[np.ndarray] = None            # closed-form dual density
    zhat_expform: Optional[np.ndarray] = None    # stochastic-exponential check

    @property
    def dt(self) -> float:
        return (self.horizon - self.cfg.t0) / self.cfg.n_steps

    def survived(self, t: float) -> np.ndarray:
        return self.delta > t


def simulate_factor(m: ModelSpec, cfg: SimConfig, horizon: float) -> PathBundle:
    """Simulate the factor and draw all noise; default time not yet set.

    The scheme follows the model kind: the exact Gaussian transition for
    OU, full-truncation Euler for CIR, and for a custom model Euler
    clamped just inside the domain.
    """
    if horizon <= cfg.t0:
        raise ValueError("horizon must exceed the start time t0")
    if not bool(m.domain.contains(cfg.x0)):
        raise ValueError("x0 outside the model domain")
    dt = (horizon - cfg.t0) / cfg.n_steps
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
    ts = cfg.t0 + dt * np.arange(cfg.n_steps + 1)
    return PathBundle(cfg=cfg, horizon=horizon, ts=ts, x=x, dW=dW, dW0=z0 * np.sqrt(dt),
                      exp_draws=exp_draws)


def simulate_default(m: ModelSpec, bundle: PathBundle) -> PathBundle:
    """Fill default times: trapezoidal cumulative intensity vs the Exp(1) draw."""
    intensity = np.asarray(m.gamma(bundle.x), dtype=float)
    delta, step = backends.crossing_times(intensity, bundle.dt,
                                          bundle.exp_draws)
    bundle.delta = np.where(np.isfinite(delta), bundle.cfg.t0 + delta,
                            np.inf)
    bundle.default_step = np.asarray(step, dtype=np.int64)
    return bundle


def _field_at(f, t, x):
    """Evaluate a policy/rate field given as a Surface-like object or callable."""
    if hasattr(f, "at"):
        return np.asarray(f.at(t, x), dtype=float)
    return np.asarray(f(t, x), dtype=float)


def replay_policy(m: ModelSpec, pi_field, bundle: PathBundle,
                  pref: Preferences, rate_field=None,
                  protected: bool = False) -> PathBundle:
    """Drive the wealth recursion under one policy; fills bundle.wealth.

    See replay_policies, which this runs with the single field.
    """
    (replayed,) = replay_policies(m, [pi_field], bundle, pref, rate_field,
                                  protected)
    bundle.wealth = replayed.wealth
    bundle.protected = protected
    return bundle


def replay_policies(m: ModelSpec, pi_fields, bundle: PathBundle,
                    pref: Preferences, rate_field=None,
                    protected: bool = False) -> list:
    """Drive the wealth recursion under each policy on the same paths.

    Unprotected: pre-default increment pi*(mu dt + sigma(rho dW
    + sqrt(1-rho^2) dW0)) (the default compensator cancels the -gamma
    drift), a jump of -pi at default, frozen afterwards.  Protected:
    drift pi*(mu - gamma - f) dt plus the same diffusion, no jump.

    The policies share one time loop (common random numbers): each step
    evaluates the coefficients, the diffusion increment, the default
    masks and, for Surface fields on one grid, the bilinear cell once.
    Returns one bundle per field, sharing the paths of ``bundle`` and
    carrying that policy's wealth; each is what replay_policy would give.
    """
    if bundle.delta is None:
        raise ValueError("simulate_default must run before replay_policy")
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
                  if isinstance(f, Surface) else _field_at(f, t_k, xk)
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
        raise ValueError("replay_policy must run before the CE estimate")
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


def simulate_dual_density(m: ModelSpec, G: Surface, pi_field,
                          bundle: PathBundle, pref: Preferences) -> PathBundle:
    """Fill the candidate dual density along each path (a cross-check).

    Closed form: Z_s = exp(-alpha (W_s - G(t0,x0) + 1_{delta>s} G(s,X_s))).
    A log-Euler stochastic-exponential trajectory with loadings
    A = -alpha (pi sigma rho + a G_x), B = -alpha pi sigma sqrt(1-rho^2),
    jump factor exp(alpha (pi + G)) at default, is stored as a
    discretization cross-check.  The tests use both full trajectories;
    the estimators read only Z_T, which dual_density_terminal gives alone.
    """
    if bundle.wealth is None:
        raise ValueError("replay_policy must run before the dual density")
    al = pref.alpha
    n_paths, n_steps = bundle.dW.shape
    g00 = float(G.at(bundle.cfg.t0, np.atleast_1d(bundle.cfg.x0))[0])
    z = np.empty((n_paths, n_steps + 1))
    for k in range(n_steps + 1):
        t_k = bundle.ts[k]
        surv = bundle.delta > t_k
        g_k = np.where(surv, G.at(t_k, bundle.x[:, k]), 0.0)
        z[:, k] = np.exp(-al * (bundle.wealth[:, k] - g00 + g_k))
    bundle.zhat = z

    dt = bundle.dt
    ds = bundle.default_step
    ze = np.empty((n_paths, n_steps + 1))
    ze[:, 0] = 1.0
    for k in range(n_steps):
        t_k = bundle.ts[k]
        xk = bundle.x[:, k]
        pi_k = _field_at(pi_field, t_k, xk)
        sig = np.asarray(m.sigma(xk), dtype=float)
        rho = np.asarray(m.rho(xk), dtype=float)
        a = np.asarray(m.a(xk), dtype=float)
        gam = np.asarray(m.gamma(xk), dtype=float)
        gx = G.gradient_at(t_k, xk)
        g_k = G.at(t_k, xk)
        A = -al * (pi_k * sig * rho + a * gx)
        B = -al * pi_k * sig * np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
        C = np.exp(al * (pi_k + g_k)) - 1.0
        alive = ds > k
        log_inc = np.where(
            alive,
            A * bundle.dW[:, k] + B * bundle.dW0[:, k]
            - 0.5 * (A * A + B * B) * dt - gam * C * dt,
            0.0)
        factor = np.exp(log_inc)
        defaulting = ds == k
        if defaulting.any():
            factor = np.where(defaulting, np.exp(al * (pi_k + g_k)), factor)
        ze[:, k + 1] = ze[:, k] * factor
    bundle.zhat_expform = ze
    return bundle


def dual_density_terminal(G: Surface, bundle: PathBundle,
                          pref: Preferences) -> PathBundle:
    """Fill only the terminal dual density Z_T, all the estimators read.

    Bit-identical to the last column of simulate_dual_density's closed
    form, without its (n_paths, n_steps+1) trajectories: both evaluate at
    the last simulation time ts[-1], which can differ from the horizon by
    an ulp.  Stores a single-column zhat so the estimators that read
    zhat[:, -1] work unchanged.
    """
    if bundle.wealth is None:
        raise ValueError("replay_policy must run before the dual density")
    al = pref.alpha
    g00 = float(G.at(bundle.cfg.t0, np.atleast_1d(bundle.cfg.x0))[0])
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
        raise ValueError("simulate_dual_density must run first")
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


def pool_estimates(estimates: list[MCEstimate],
                   label: str = "pooled") -> MCEstimate:
    """Equal-weight pool of independent estimates (e.g. across seeds)."""
    if not estimates:
        raise ValueError("nothing to pool")
    k = len(estimates)
    mean = float(np.mean([e.mean for e in estimates]))
    se = float(np.sqrt(np.sum([e.std_error ** 2 for e in estimates])) / k)
    n = int(np.sum([e.n_paths for e in estimates]))
    return MCEstimate(mean=mean, std_error=se, n_paths=n, label=label)


def mc_exponential_functional(drift: Callable, diffusion: Callable,
                              weight: Callable, x0: float, T: float,
                              n_paths: int, n_steps: int, seed: int,
                              floor_at_zero: bool = False,
                              cap: float = 1e7,
                              label: str = "expfun") -> MCEstimate:
    """Euler estimate of E[exp(int_0^T weight(X_u) du)] with X_0 = x0.

    Trapezoidal time integral; paths escaping |x| > cap mark the estimate
    with note="explosion" (the caller reports Unverified, not Fails).
    """
    dt = T / n_steps
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.full(n_paths, float(x0))
    w_prev = np.asarray(weight(np.maximum(x, 1e-12) if floor_at_zero else x),
                        dtype=float)
    integral = np.zeros(n_paths)
    exploded = np.zeros(n_paths, dtype=bool)
    sq = np.sqrt(dt)
    for _ in range(n_steps):
        z = rng.standard_normal(n_paths)
        xe = np.maximum(x, 0.0) if floor_at_zero else x
        x = x + np.asarray(drift(xe), dtype=float) * dt \
            + np.asarray(diffusion(xe), dtype=float) * sq * z
        exploded |= np.abs(x) > cap
        x = np.clip(x, -cap, cap)
        xe = np.maximum(x, 1e-12) if floor_at_zero else x
        w_cur = np.asarray(weight(xe), dtype=float)
        integral += 0.5 * (w_prev + w_cur) * dt
        w_prev = w_cur
    y = np.exp(integral)
    mean = float(np.mean(y))
    se = float(np.std(y, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths, label=label,
                      note="explosion" if exploded.any() else "")


def estimates_to_csv(path, estimates: list[MCEstimate], seed=None,
                     header_lines=None) -> None:
    with open(path, "w", newline="\n") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write("label,mean,std_error,n_paths,seed\n")
        for e in estimates:
            fh.write(f"{e.label},{e.mean:.17g},{e.std_error:.17g},"
                     f"{e.n_paths},{'' if seed is None else seed}\n")
