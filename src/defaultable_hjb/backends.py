"""Numeric kernels, vectorised with numpy.

The hot loops of the engine: the product-log on arrays, the tridiagonal
solve of a Newton step, factor-path recursions and default-time
crossings.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

_THETA_TOL = 1e-12
_MAX_HALLEY = 50


def theta_array(y: np.ndarray) -> np.ndarray:
    """Solve w * exp(w) = y elementwise for y > 0 (principal Lambert-W).

    Halley iteration; initial guess y for y < 1, log-based for y >= e,
    with a bisection fallback for any straggler.
    """
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    w = np.where(y < 1.0, y, 0.0)
    mid = (y >= 1.0) & (y < np.e)
    if mid.any():
        w = np.where(mid, np.log1p(y), w)
    big = y >= np.e
    if big.any():
        ly = np.log(np.where(big, y, np.e))
        w = np.where(big, ly - np.log(ly), w)
    tol = _THETA_TOL * np.maximum(1.0, y)
    active = np.ones(y.shape, dtype=bool)
    for _ in range(_MAX_HALLEY):
        ew = np.exp(w)
        f = w * ew - y
        active = np.abs(f) > tol
        if not active.any():
            break
        denom = ew * (w + 1.0) - f * (w + 2.0) / (2.0 * w + 2.0)
        w = np.where(active, w - f / denom, w)
    else:
        # bisection fallback, guaranteed bracket [0, log(y)+1] (or [0,1])
        bad = np.abs(w * np.exp(w) - y) > tol
        for i in np.flatnonzero(bad):
            lo, hi = 0.0, max(1.0, np.log(y[i]) + 1.0)
            for _ in range(200):
                mid_w = 0.5 * (lo + hi)
                if mid_w * np.exp(mid_w) < y[i]:
                    lo = mid_w
                else:
                    hi = mid_w
            w[i] = 0.5 * (lo + hi)
    return w[0] if scalar else w


def theta_from_log_array(u: np.ndarray) -> np.ndarray:
    """Solve w + log(w) = u elementwise, i.e. theta(exp(u)) without exp(u).

    Valid for u >= 1 (used when exp(u) would overflow).
    """
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    w = np.maximum(u - np.log(np.maximum(u, 1.0)), 0.5)
    for _ in range(_MAX_HALLEY):
        f = w + np.log(w) - u
        if np.all(np.abs(f) <= 1e-13 * np.maximum(1.0, np.abs(u))):
            break
        w = w - f * w / (w + 1.0)
    return w[0] if scalar else w


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system; dl/du are the sub/super diagonals (len n-1)."""
    n = d.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = du
    ab[1, :] = d
    ab[2, :-1] = dl
    return solve_banded((1, 1), ab, rhs)


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


def backend_name() -> str:
    """The kernel backend, recorded in run and benchmark metadata."""
    return "numpy"
