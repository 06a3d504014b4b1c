"""Product-log evaluation on the positive real axis.

``theta(y)`` is the unique positive solution of w * exp(w) = y, the
principal branch of Lambert's W; it drives the nonlinearity of the
certainty-equivalent PDE.  ``theta_of_log(u)`` is theta(exp(u)), which
is Wright's omega function: the solution of w + log(w) = u (Corless and
Jeffrey, "The Wright omega function", 2002).  scipy evaluates it on real
doubles without forming exp(u) (Lawrence, Corless and Jeffrey, ACM TOMS
38(3), 2012), so it is accurate to a few ulp and safe against overflow
and underflow for any finite u.
"""

from __future__ import annotations

import numpy as np

from .backends import scipy_module

# scipy.special's own objects, loaded without its package __init__ (see
# backends)
wrightomega = scipy_module("scipy.special._ufuncs",
                           "scipy.special").wrightomega
lambertw = scipy_module("scipy.special._lambertw", "scipy.special").lambertw


class ThetaDomainError(ValueError):
    """Raised when theta is evaluated outside (0, inf) or on non-finite input."""


def theta(y):
    """Principal Lambert-W on (0, inf): returns w with w * exp(w) = y.

    scipy's lambertw on y itself: going through theta_of_log(log y) would
    add the rounding of log y, up to 5.6e-14 relative at y = 1e-300.
    """
    arr = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ThetaDomainError("theta requires finite y > 0")
    return lambertw(arr).real


def theta_of_log(u):
    """theta(exp(u)) for any finite real u; elementwise, so a value gets
    the same bits alone as inside any larger array."""
    arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ThetaDomainError("theta_of_log requires finite input")
    return wrightomega(arr)
