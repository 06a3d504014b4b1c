"""Numeric kernels, vectorised with numpy.

The hot loops of the engine: the product-log on arrays and the
tridiagonal solves of a Newton step.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

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

    Valid for u >= 1 (used when exp(u) would overflow).  A converged
    element stops iterating, so each element gets the same bits alone as
    inside any larger call.
    """
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    w = np.maximum(u - np.log(np.maximum(u, 1.0)), 0.5)
    tol = 1e-13 * np.maximum(1.0, np.abs(u))
    for _ in range(_MAX_HALLEY):
        f = w + np.log(w) - u
        active = np.abs(f) > tol
        if not active.any():
            break
        w = np.where(active, w - f * w / (w + 1.0), w)
    return w[0] if scalar else w


class SingularBlock(np.linalg.LinAlgError):
    """A system of a tridiag_solve block is singular; row is the first such."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"singular tridiagonal system in row {row}")


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
          rhs: np.ndarray) -> tuple:
    """(x, info) of LAPACK gtsv on the (k, n) rows of a block as one
    block-diagonal system, with a zero coupling between consecutive rows."""
    k, n = d.shape
    zero = np.zeros((k, 1))
    dl = np.concatenate([dl, zero], axis=1).ravel()[:-1]
    du = np.concatenate([du, zero], axis=1).ravel()[:-1]
    _, _, _, x, info = dgtsv(dl, d.ravel(), du, rhs.ravel(),
                             overwrite_dl=1, overwrite_du=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x.reshape(k, n), info


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve independent tridiagonal systems, one per row of d.

    d and rhs have shape (..., n); dl and du are the sub- and
    super-diagonals, shape (..., n - 1), with finite entries.  The rows
    are solved together as one block-diagonal system, coupled by zero
    entries: elimination never pivots across a zero coupling, so a row's
    solution is bit for bit the one it has alone.  A row that is singular
    or overflows can still reach its neighbours (0 * inf is NaN), so then
    each row is solved alone.  Raises SingularBlock naming the first
    singular row.
    """
    n = d.shape[-1]
    rows = (dl.reshape(-1, n - 1), d.reshape(-1, n), du.reshape(-1, n - 1),
            rhs.reshape(-1, n))
    x, info = _gtsv(*rows)
    if info or not np.isfinite(x).all():
        for r in range(len(x)):
            x[r], info = _gtsv(*(a[r:r + 1] for a in rows))
            if info:
                raise SingularBlock(r)
    return x.reshape(rhs.shape)


def backend_name() -> str:
    """The kernel backend, recorded in run and benchmark metadata."""
    return "numpy"
