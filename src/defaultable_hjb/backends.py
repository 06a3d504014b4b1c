"""The tridiagonal solves of a Newton step.

LAPACK gtsv solves the system of a whole block of segments at once;
backend_name names the kernel backend in run and benchmark metadata.

gtsv is scipy's only routine the package takes from scipy.linalg, and
that package's __init__ loads some forty modules and a dozen compiled
extensions to serve it: about 5 MB of peak RSS and 40 ms of every CLI
call's start-up.  So the routine is taken from scipy's f2py extension
scipy.linalg._flapack, whose init imports only numpy, loaded from its
file beside scipy's package and registered under its own name.  A later
import of scipy.linalg finds it there, so scipy.linalg.lapack.dgtsv is
this same object.  If the file is missing or does not load, the routine
comes from scipy.linalg.lapack as before.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

_FLAPACK = "scipy.linalg._flapack"


def _load_dgtsv():
    """scipy.linalg._flapack.dgtsv, without running scipy.linalg's
    __init__ where the extension's file can be loaded alone."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.__path__[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        try:
            if spec is None:
                raise ImportError(f"no file for {_FLAPACK}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            sys.modules.pop(_FLAPACK, None)
            from scipy.linalg.lapack import dgtsv
            return dgtsv
    return module.dgtsv


dgtsv = _load_dgtsv()


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
