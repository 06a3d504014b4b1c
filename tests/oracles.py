"""Reference implementations that only the tests call.

* ``simulate_dual_density``: the full-trajectory dual density, in closed
  form and as a stochastic-exponential discretization, against which
  ``dual_density_terminal``'s Z_T is checked;
* ``mc_exponential_functional`` and the two probes built on it,
  ``mc_integrability_probe`` and ``mc_cir_weight_probe``: Monte Carlo
  estimates that corroborate the closed-form integrability certificates;
* ``pool_estimates``: the equal-weight pool of independent estimates that
  the acceptance battery reports.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from defaultable_hjb.model import ModelSpec, Preferences
from defaultable_hjb.montecarlo import MCEstimate, PathBundle
from defaultable_hjb.solver import Surface, bilinear_cell, bilinear_gather


def simulate_dual_density(m: ModelSpec, G: Surface, pi_field: Surface,
                          bundle: PathBundle, pref: Preferences) -> np.ndarray:
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
        gx = bilinear_gather(G.gradient,
                             bilinear_cell(G.grid.ts, G.grid.xs, t_k, xk))
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
