"""The tridiagonal solves of a Newton step.

LAPACK gtsv solves a block of rows at once; backend_name names the
kernel backend in run and benchmark metadata.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv


class SingularBlock(np.linalg.LinAlgError):
    """A tridiag_solve block has a singular system, or a block of more
    than one row has a solution that is not finite."""


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve independent tridiagonal systems, one per row of d.

    d and rhs have shape (..., n); dl and du are the sub- and
    super-diagonals, shape (..., n - 1), with finite entries.  The rows
    are solved by one LAPACK gtsv call, as one block-diagonal system
    coupled by zero entries: elimination never pivots across a zero
    coupling, so a row's solution is bit for bit the one it has alone.
    Raises SingularBlock if a system is singular, or if a block of more
    than one row has a solution that is not finite: a row that overflows
    can reach its neighbours through a zero coupling (0 * inf is NaN).
    A single row's solution is returned as it is.  No argument is
    overwritten.
    """
    n = d.shape[-1]
    k = d.size // n
    if k > 1:
        zero = np.zeros((k, 1))
        dl = np.concatenate([dl.reshape(k, n - 1), zero], axis=1).ravel()[:-1]
        du = np.concatenate([du.reshape(k, n - 1), zero], axis=1).ravel()[:-1]
    # gtsv may overwrite only the coupled bands made here
    _, _, _, x, info = dgtsv(dl.ravel(), d.ravel(), du.ravel(), rhs.ravel(),
                             overwrite_dl=k > 1, overwrite_du=k > 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    if info or (k > 1 and not np.isfinite(x).all()):
        raise SingularBlock("singular or overflowing tridiagonal block")
    return x.reshape(rhs.shape)


def backend_name() -> str:
    """The kernel backend, recorded in run and benchmark metadata."""
    return "numpy"
