"""The tridiagonal solves of a Newton step.

LAPACK gtsv solves the system of a whole block of segments at once;
backend_name names the kernel backend in run and benchmark metadata.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv


class SingularBlock(np.linalg.LinAlgError):
    """A tridiag_solve system is singular."""


def tridiag_solve(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve one tridiagonal system by LAPACK gtsv.

    d and rhs have length n; dl and du are the sub- and super-diagonals,
    length n - 1, with finite entries.  A zero coupling splits the system
    into blocks: elimination never pivots across it, so each block's
    solution is bit for bit the one it has alone, as long as the next
    block's is finite (0 * inf is NaN).  Raises SingularBlock if the
    system is singular; a solution that is not finite is returned as it
    is.  No argument is overwritten.
    """
    _, _, _, x, info = dgtsv(dl, d, du, rhs)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    if info:
        raise SingularBlock("singular tridiagonal system")
    return x


def backend_name() -> str:
    """The kernel backend, recorded in run and benchmark metadata."""
    return "numpy"
