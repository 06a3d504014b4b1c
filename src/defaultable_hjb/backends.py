"""The tridiagonal solves of a Newton step.

LAPACK gtsv solves a block of rows at once; backend_name names the
kernel backend in run and benchmark metadata.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv


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
