import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from defaultable_hjb import backends

_TESTS = Path(__file__).resolve().parent


def test_backend_name():
    assert backends.backend_name() == "numpy"


def test_tridiag_np_vs_dense():
    rng = np.random.default_rng(3)
    n = 40
    d = 4.0 + rng.random(n)
    dl = rng.random(n - 1)
    du = rng.random(n - 1)
    rhs = rng.random(n)
    A = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    x = backends.tridiag_solve(dl, d, du, rhs)
    assert np.allclose(A @ x, rhs, atol=1e-12)


def _systems(rng, k, n):
    d = 4.0 + rng.random((k, n))
    dl = rng.standard_normal((k, n - 1))
    du = rng.standard_normal((k, n - 1))
    rhs = rng.standard_normal((k, n))
    return dl, d, du, rhs


def _laid_end_to_end(dl, d, du, rhs):
    """One system of the rows of each band, laid end to end, coupled by
    zero entries."""
    def bands(rows):
        return np.concatenate([np.append(r, 0.0) for r in rows])[:-1]
    return bands(dl), np.concatenate(d), bands(du), np.concatenate(rhs)


def _pivoting_rows():
    """Rows of systems, by block, whose weak diagonals make gtsv pivot
    inside each row."""
    rng = np.random.default_rng(9)
    for sizes in ((401,) * 5, (17,) * 3, (2,), (401, 201, 101), (17, 3, 9)):
        rows = [_systems(rng, 1, n) for n in sizes]
        for dl, d, du, rhs in rows:
            d[:, ::3] *= 1e-3
        yield sizes, rows


def _pivoting_digest() -> str:
    """SHA-256 of tridiag_solve's solution of each block of
    _pivoting_rows and of each of its rows alone."""
    h = hashlib.sha256()
    for _, rows in _pivoting_rows():
        h.update(backends.tridiag_solve(*_laid_end_to_end(
            *([r[i][0] for r in rows] for i in range(4)))).tobytes())
        for dl, d, du, rhs in rows:
            h.update(backends.tridiag_solve(dl[0], d[0], du[0],
                                            rhs[0]).tobytes())
    return h.hexdigest()


def test_tridiag_block_equals_rows_alone_bit_for_bit():
    for sizes, rows in _pivoting_rows():
        x = backends.tridiag_solve(*_laid_end_to_end(
            *([r[i][0] for r in rows] for i in range(4))))
        start = 0
        for (dl, d, du, rhs), n in zip(rows, sizes):
            alone = backends.tridiag_solve(dl[0], d[0], du[0], rhs[0])
            assert x[start:start + n].tobytes() == alone.tobytes()
            start += n
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = du[0], d[0], dl[0]
            assert alone.tobytes() == solve_banded((1, 1), ab,
                                                   rhs[0]).tobytes()


def test_tridiag_block_with_an_overflowing_row_spreads_to_the_next():
    # row 1 overflows to inf alone; laid end to end, 0 * inf at the zero
    # coupling turns row 0 into NaN, so a caller that solves several rows
    # in one system must fail them all when the solution is not finite
    n = 5
    d = np.full((2, n), 2.0)
    dl = du = np.full((2, n - 1), 0.5)
    rhs = np.ones((2, n))
    d[1], rhs[1] = 1e-300, 1e308
    x = backends.tridiag_solve(*_laid_end_to_end(dl, d, du, rhs))
    assert np.isnan(x[:n]).any()
    # alone, each row returns its own solution, finite or not
    assert np.isfinite(backends.tridiag_solve(dl[0], d[0], du[0],
                                              rhs[0])).all()
    assert not np.isfinite(backends.tridiag_solve(dl[1], d[1], du[1],
                                                  rhs[1])).all()


def test_tridiag_block_with_a_singular_row_raises():
    rng = np.random.default_rng(4)
    dl, d, du, rhs = _systems(rng, 4, 9)
    for rows in ((0,), (2,), (1, 3), (3,)):
        dd, ll, uu = d.copy(), dl.copy(), du.copy()
        for r in rows:
            dd[r, 4] = 0.0
            ll[r, 3] = uu[r, 4] = 0.0  # node 4 decouples: a zero pivot
            uu[r, 3] = ll[r, 4] = 0.0
        with pytest.raises(backends.SingularBlock):
            backends.tridiag_solve(*_laid_end_to_end(ll, dd, uu, rhs))
        r = rows[0]
        with pytest.raises(backends.SingularBlock):
            backends.tridiag_solve(ll[r], dd[r], uu[r], rhs[r])


def _fresh(code: str) -> list:
    """The stdout lines of code in a fresh interpreter that imports the
    package from this checkout and this directory's modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_TESTS.parent / "src"), str(_TESTS)]
        + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.parametrize("first", ["scipy.linalg", "backends"])
def test_gtsv_is_scipy_linalg_lapacks_whichever_loads_first(first):
    # backends loads scipy.linalg._flapack alone; a later scipy.linalg
    # finds that module and takes its routines from it
    imports = ["import scipy.linalg",
               "from defaultable_hjb import backends; "
               "kept = sys.modules.get('scipy.linalg._flapack')"]
    if first == "backends":
        imports.reverse()
    out = _fresh("import sys; " + "; ".join(imports) + "; "
                 "import scipy.linalg.lapack as lapack; "
                 "print(backends.dgtsv is lapack.dgtsv, "
                 "lapack._flapack is kept, "
                 "scipy.linalg.solve_banded is not None)")
    assert out == ["True", "True", "True"]


def test_gtsv_falls_back_to_scipy_linalg_where_the_file_is_not_found():
    # with no extension suffix to look for, the file lookup finds nothing
    out = _fresh("import importlib.machinery, sys; "
                 "importlib.machinery.EXTENSION_SUFFIXES = []; "
                 "from defaultable_hjb import backends; "
                 "fell_back = 'scipy.linalg' in sys.modules; "
                 "import scipy.linalg.lapack as lapack, test_backends; "
                 "print(fell_back, backends.dgtsv is lapack.dgtsv, "
                 "test_backends._pivoting_digest())")
    assert out == ["True", "True", _pivoting_digest()]


@pytest.mark.parametrize("first", ["scipy.special", "package"])
def test_ufuncs_are_scipy_specials_whichever_loads_first(first):
    # lambertw and model load scipy.special's extensions alone; a later
    # scipy.special runs its __init__ on those modules
    imports = ["import scipy.special",
               "from defaultable_hjb import lambertw, model; "
               "alone = 'scipy.special' not in sys.modules"]
    if first == "package":
        imports.reverse()
    out = _fresh("import sys; " + "; ".join(imports) + "; "
                 "import scipy.special as sp; "
                 "print(alone, lambertw.wrightomega is sp.wrightomega, "
                 "model.ndtri is sp.ndtri, "
                 "model.gammaincinv is sp.gammaincinv, "
                 "lambertw.lambertw is sp.lambertw)")
    assert out == [str(first == "package")] + ["True"] * 4


def _theta_digest() -> str:
    """SHA-256 of theta_of_log on a fixed array."""
    from defaultable_hjb.lambertw import theta_of_log
    u = np.linspace(-700.0, 700.0, 10001)
    return hashlib.sha256(theta_of_log(u).tobytes()).hexdigest()


def test_ufuncs_fall_back_to_scipy_special_where_the_file_is_not_found():
    out = _fresh("import importlib.machinery, sys; "
                 "importlib.machinery.EXTENSION_SUFFIXES = []; "
                 "from defaultable_hjb import lambertw; "
                 "fell_back = 'scipy.special' in sys.modules; "
                 "import scipy.special as sp, test_backends; "
                 "print(fell_back, lambertw.wrightomega is sp.wrightomega, "
                 "test_backends._theta_digest())")
    assert out == ["True", "True", _theta_digest()]


@pytest.mark.parametrize("failure", [
    "importlib.machinery.EXTENSION_SUFFIXES = []",
    "importlib.machinery.ExtensionFileLoader.create_module = fail",
], ids=["no file", "load fails"])
def test_a_failed_load_leaves_no_stand_in(failure):
    # an extension of scipy.special that the package does not load, with
    # the math module as its fallback, so that nothing imports
    # scipy.special: neither it nor the extension may be left behind
    out = _fresh("import importlib.machinery, math, sys\n"
                 "from defaultable_hjb.backends import scipy_module\n"
                 "def fail(*args):\n"
                 "    raise OSError('refused')\n"
                 f"{failure}\n"
                 "got = scipy_module('scipy.special._comb', 'math')\n"
                 "print(got is math, [m for m in ('scipy.special',\n"
                 "      'scipy.special._comb') if m in sys.modules])")
    assert out == ["True", "[]"]


def test_an_import_of_the_package_on_another_thread_waits_for_the_load():
    # loading an extension that the package does not load: the thread's
    # import finds the stand-in, waits for the load to end, and reads
    # scipy.special's own names; scipy.special then keeps the extension
    out = _fresh("import importlib.machinery, sys, threading, time\n"
                 "from defaultable_hjb.backends import scipy_module\n"
                 "load = importlib.machinery.ExtensionFileLoader.exec_module\n"
                 "got, waited = [], []\n"
                 "def other():\n"
                 "    from scipy.special import ndtri\n"
                 "    got.append(ndtri)\n"
                 "def exec_module(self, module):\n"
                 "    if module.__name__ == 'scipy.special._comb':\n"
                 "        thread.start()\n"
                 "        time.sleep(0.2)\n"
                 "        waited.append(thread.is_alive())\n"
                 "    return load(self, module)\n"
                 "thread = threading.Thread(target=other)\n"
                 "importlib.machinery.ExtensionFileLoader.exec_module = "
                 "exec_module\n"
                 "comb = scipy_module('scipy.special._comb', 'math')\n"
                 "thread.join(60)\n"
                 "import scipy.special as sp\n"
                 "print(waited == [True], thread.is_alive(),\n"
                 "      got == [sp.ndtri],\n"
                 "      comb is sys.modules['scipy.special._comb'])")
    assert out == ["True", "False", "True", "True"]
