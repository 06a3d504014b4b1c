"""Reference implementations that only the tests call.

* the three-stage Monte Carlo pipeline ``simulate_factor`` ->
  ``simulate_default`` -> ``replay_policies``, which keeps every path's
  whole trajectory in a ``TrajectoryBundle``, with its kernels
  ``cir_paths``, ``ou_paths`` and ``crossing_times``: the reference that
  the one-loop ``montecarlo.simulate_policies`` must reproduce bit for
  bit at the last column, and the source of the trajectories that the
  path-wise tests read;
* ``simulate_dual_density``: the full-trajectory dual density, in closed
  form and as a stochastic-exponential discretization, against which
  ``dual_density_terminal``'s Z_T is checked;
* ``mc_exponential_functional`` and the two probes built on it,
  ``mc_integrability_probe`` and ``mc_cir_weight_probe``: Monte Carlo
  estimates that corroborate the closed-form integrability certificates;
* ``pool_estimates``: the equal-weight pool of independent estimates that
  the acceptance battery reports;
* ``rk4_constant_oracle``: the spatially constant reduction of the
  certainty-equivalent equation, an ODE integrated by RK4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from defaultable_hjb.lambertw import theta_of_log
from defaultable_hjb.model import ModelSpec, Preferences
from defaultable_hjb.montecarlo import MCEstimate, SimConfig
from defaultable_hjb.solver import CornerBlock, GridLookup, Surface


@dataclass
class TrajectoryBundle:
    """Every path's whole trajectory: (n_paths, n_steps+1) arrays."""

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


def simulate_factor(m: ModelSpec, cfg: SimConfig,
                    horizon: float) -> TrajectoryBundle:
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
        x = ou_paths(cfg.x0, decay, dW)
    elif m.kind == "cir":
        p = m.params
        x = cir_paths(cfg.x0, p.kappa, p.theta_lr, p.xi, dt, z)
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
    return TrajectoryBundle(cfg=cfg, horizon=horizon, ts=ts, x=x, dW=dW, dW0=z0 * np.sqrt(dt),
                      exp_draws=exp_draws)


def simulate_default(m: ModelSpec, bundle: TrajectoryBundle) -> TrajectoryBundle:
    """Fill default times: trapezoidal cumulative intensity vs the Exp(1) draw."""
    intensity = np.asarray(m.gamma(bundle.x), dtype=float)
    delta, step = crossing_times(intensity, bundle.dt,
                                          bundle.exp_draws)
    bundle.delta = delta
    bundle.default_step = np.asarray(step, dtype=np.int64)
    return bundle


def replay_policies(m: ModelSpec, pi_fields, bundle: TrajectoryBundle,
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
    grids = {f.grid: GridLookup(f.grid.ts, f.grid.xs) for f in fields
             if isinstance(f, Surface)}
    # time-major wealth, so that each step writes one contiguous row; path
    # columns are read once per step, since strided reads dominate the loop
    wealth = [np.zeros((n_steps + 1, n_paths)) for _ in pi_fields]
    for k in range(n_steps):
        t_k = bundle.ts[k]
        xk = bundle.x[:, k].copy()
        cells = {g: lookup.cell(t_k, xk) for g, lookup in grids.items()}
        values = [CornerBlock(f.values).gather(cells[f.grid])
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


def cir_paths(x0: float, kappa: float, theta_lr: float, xi: float,
              dt: float, normals: np.ndarray) -> np.ndarray:
    """Full-truncation Euler paths of dX = kappa(theta - X)dt + xi sqrt(X) dW.

    Returns the floored process max(x_tilde, 0); the auxiliary x_tilde is
    propagated internally.
    """
    n_paths, n_steps = normals.shape
    sq = np.sqrt(dt)
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x0
    xt = np.full(n_paths, float(x0))
    for k in range(n_steps):
        xp = np.maximum(xt, 0.0)
        xt = xt + kappa * (theta_lr - xp) * dt + xi * np.sqrt(xp) * sq * normals[:, k]
        out[:, k + 1] = np.maximum(xt, 0.0)
    return out


def ou_paths(x0: float, decay: float, dW: np.ndarray) -> np.ndarray:
    """Paths of the linear recursion X_{k+1} = decay * X_k + dW_k.

    With decay = exp(-b dt) and Gaussian increments of the transition s.d.
    this is the exact transition of dX = -b X dt + dW.
    """
    n_paths, n_steps = dW.shape
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x0
    for k in range(n_steps):
        out[:, k + 1] = decay * out[:, k] + dW[:, k]
    return out


def crossing_times(intensity: np.ndarray, dt: float,
                   exp_draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First time the trapezoidal cumulative intensity crosses exp_draws.

    Returns (delta, step): delta is the crossing time offset (inf if no
    crossing), step the index of the step containing the crossing
    (n_steps if none).
    """
    n_paths, n_cols = intensity.shape
    n_steps = n_cols - 1
    inc = 0.5 * (intensity[:, 1:] + intensity[:, :-1]) * dt
    cum = np.zeros((n_paths, n_cols))
    np.cumsum(inc, axis=1, out=cum[:, 1:])
    crossed = cum[:, -1] >= exp_draws
    idx = np.argmax(cum >= exp_draws[:, None], axis=1)  # first col with cum >= e
    step = np.where(crossed, np.maximum(idx - 1, 0), n_steps)
    delta = np.full(n_paths, np.inf)
    if crossed.any():
        rows = np.flatnonzero(crossed)
        k = step[rows]
        lo = cum[rows, k]
        hi = cum[rows, k + 1]
        denom = np.where(hi > lo, hi - lo, 1.0)
        frac = np.clip((exp_draws[rows] - lo) / denom, 0.0, 1.0)
        delta[rows] = dt * (k + frac)
    return delta, step


def simulate_dual_density(m: ModelSpec, G: Surface, pi_field: Surface,
                          bundle: TrajectoryBundle,
                          pref: Preferences) -> np.ndarray:
    """Fill the candidate dual density along each path (a cross-check).

    Closed form: Z_s = exp(-alpha (W_s - G(0,x0) + 1_{delta>s} G(s,X_s))),
    stored as bundle.zhat.  Returns a log-Euler stochastic-exponential
    trajectory with loadings A = -alpha (pi sigma rho + a G_x),
    B = -alpha pi sigma sqrt(1-rho^2), jump factor exp(alpha (pi + G)) at
    default, as a discretization cross-check.
    """
    if bundle.wealth is None:
        raise ValueError("replay_policies must run before the dual density")
    al = pref.alpha
    n_paths, n_steps = bundle.dW.shape
    g00 = float(G.at(0.0, np.atleast_1d(bundle.cfg.x0))[0])
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
        pi_k = np.asarray(pi_field.at(t_k, xk), dtype=float)
        sig = np.asarray(m.sigma(xk), dtype=float)
        rho = np.asarray(m.rho(xk), dtype=float)
        a = np.asarray(m.a(xk), dtype=float)
        gam = np.asarray(m.gamma(xk), dtype=float)
        gx = CornerBlock(G.gradient).gather(
            GridLookup(G.grid.ts, G.grid.xs).cell(t_k, xk))
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
    return ze


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


def mc_integrability_probe(m: ModelSpec, measure: str, eps: float, x: float,
                           T: float, n_paths: int, n_steps: int,
                           seed: int = 0, p_exp: float = 1.5) -> MCEstimate:
    """MC estimate of E[exp(eps int_0^T ell^2(X_u) du)] under a chosen drift.

    measure is "physical", "p0" (dual drift b - ell a rho) or "pp"
    (b + (p-1) ell a rho).  Paths hitting the hard cap mark the estimate
    with note="explosion"; callers should report Unverified in that case.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    floor = m.kind == "cir"

    def ell(xv):
        xv = np.asarray(xv, dtype=float)
        safe = np.maximum(xv, 1e-12) if floor else xv
        return (np.asarray(m.mu(safe), dtype=float)
                - np.asarray(m.gamma(safe), dtype=float)) \
            / np.asarray(m.sigma(safe), dtype=float)

    def drift(xv):
        base = np.asarray(m.b(xv), dtype=float)
        if measure == "physical":
            return base
        tilt = ell(xv) * np.asarray(m.a(xv), dtype=float) \
            * np.asarray(m.rho(xv), dtype=float)
        if measure == "p0":
            return base - tilt
        if measure == "pp":
            return base + (p_exp - 1.0) * tilt
        raise ValueError(f"unknown measure {measure!r}")

    def weight(xv):
        return eps * ell(xv) ** 2

    return mc_exponential_functional(
        drift, lambda xv: np.asarray(m.a(xv), dtype=float), weight,
        x0=x, T=T, n_paths=n_paths, n_steps=n_steps, seed=seed,
        floor_at_zero=floor, label=f"integrability-{measure}")


def mc_cir_weight_probe(p, A_coef: float, B_coef: float, x0: float, T: float,
                        n_paths: int, n_steps: int, seed: int = 0
                        ) -> MCEstimate:
    """MC estimate of E[exp(int (A/X + B X) dt)] for a square-root process.

    Corroborates cir_moment_bound; p needs kappa, theta_lr, xi attributes.
    """
    def weight(xv):
        xv = np.maximum(np.asarray(xv, dtype=float), 1e-12)
        return A_coef / xv + B_coef * xv

    return mc_exponential_functional(
        lambda xv: p.kappa * (p.theta_lr - np.asarray(xv, dtype=float)),
        lambda xv: p.xi * np.sqrt(np.maximum(np.asarray(xv, dtype=float),
                                             0.0)),
        weight, x0=x0, T=T, n_paths=n_paths, n_steps=n_steps, seed=seed,
        floor_at_zero=True, label="cir-moment-probe")


def rk4_constant_oracle(mu, sigma, gamma, alpha, T, n_steps):
    """Spatially-constant reduction: dG/ds = +F(G) backward from 0."""
    s2 = sigma ** 2
    lg, m = np.log(gamma / s2), mu / s2

    def f(g):
        th = theta_of_log(lg + m + alpha * g)
        return (s2 / (2 * alpha)) * (2 * gamma / s2 + m * m - th * th
                                     - 2 * th)

    g, dt = 0.0, T / n_steps
    for _ in range(n_steps):
        k1 = f(g)
        k2 = f(g + 0.5 * dt * k1)
        k3 = f(g + 0.5 * dt * k2)
        k4 = f(g + dt * k3)
        g += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return g
