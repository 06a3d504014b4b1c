"""The tridiagonal solves of a Newton step, and how the package reaches
scipy's compiled routines.

LAPACK gtsv solves the system of a whole block of segments at once;
backend_name names the kernel backend in run and benchmark metadata.

The package takes five names from scipy: dgtsv from scipy.linalg, and
the ufuncs wrightomega, ndtri and gammaincinv and the lambertw wrapper
from scipy.special.  The __init__ of either subpackage loads far more:
scipy.special's runs an array-API shim that imports numpy.f2py,
numpy.testing, numpy.ma and numpy.random, and scipy.linalg's some forty
modules.  Without a bytecode cache the two cost about 0.22 s and 25 MB
of peak RSS of every CLI call's start-up.  So scipy_module loads only
the module that holds the names (scipy.special._ufuncs,
scipy.special._lambertw, scipy.linalg._flapack) from its file beside
scipy's package.  While it loads, a bare stand-in for the subpackage,
whose __path__ is the subpackage's directory, sits in sys.modules, so
that the extension's imports of its siblings (scipy.special._ufuncs_cxx
and others) resolve; the stand-in is removed when the load ends,
however it ends.  A later import of the subpackage runs its __init__,
which finds these modules in sys.modules, so that scipy.special's
wrightomega and scipy.linalg.lapack's dgtsv are the objects taken here.
Where the file is missing or does not load, the names come from the
public module, imported as usual.

The stand-in is in sys.modules only while the load holds importlib's
lock on the subpackage's name, and its spec reads as still being
initialised, so an import of the subpackage on another thread waits for
the load.  Such an import may still return the stand-in object itself;
its attributes are then read from the real subpackage, imported on
first read.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
import types

import numpy as np
import scipy


def scipy_module(name: str, public: str):
    """scipy's module name, loaded without running its subpackage's
    __init__ where the subpackage is not yet imported; where name cannot
    be loaded alone (ImportError or OSError), the module public, which
    holds the same routines, imported the usual way."""
    package = name.rpartition(".")[0]
    try:
        # importlib's own per-name lock, the one an import of the
        # subpackage on another thread takes
        with importlib._bootstrap._ModuleLockManager(package):
            if package in sys.modules or name in sys.modules:
                return importlib.import_module(name)
            return _load_alone(name, package)
    except (ImportError, OSError):
        return importlib.import_module(public)


def _load_alone(name: str, package: str):
    """name, with a stand-in for package in sys.modules while it loads."""
    directory = os.path.join(scipy.__path__[0], *package.split(".")[1:])
    stand_in = types.ModuleType(package)
    stand_in.__path__ = [directory]
    stand_in.__spec__ = importlib.machinery.ModuleSpec(package, None,
                                                       is_package=True)
    stand_in.__spec__._initializing = True

    def __getattr__(attr):
        if sys.modules.get(package) is stand_in:
            raise AttributeError(f"module {package!r} is loading alone")
        return getattr(importlib.import_module(package), attr)

    stand_in.__getattr__ = __getattr__
    sys.modules[package] = stand_in
    try:
        spec = importlib.machinery.FileFinder(
            directory,
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES),
            (importlib.machinery.SourceFileLoader,
             importlib.machinery.SOURCE_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no file for {name}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        return module
    finally:
        if sys.modules.get(package) is stand_in:
            del sys.modules[package]


dgtsv = scipy_module("scipy.linalg._flapack", "scipy.linalg.lapack").dgtsv


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
