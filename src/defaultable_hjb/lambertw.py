"""Product-log evaluation on the positive real axis.

``theta(y)`` is the unique positive solution of w * exp(w) = y; it drives
the nonlinearity of the certainty-equivalent PDE.  ``theta_of_log``
evaluates theta(exp(u)) in an overflow-safe way: for large exponents the
equation w + log(w) = u is solved directly instead of exponentiating.
"""

from __future__ import annotations

import numpy as np

from . import backends

# exp overflows double precision near 709; stay clear of it
_LOG_SWITCH_HI = 700.0
# below this, theta(e^u) = e^u * (1 - e^u) to far better than 1e-12 relative
_LOG_SWITCH_LO = -30.0


class ThetaDomainError(ValueError):
    """Raised when theta is evaluated outside (0, inf) or on non-finite input."""


def theta(y):
    """Principal Lambert-W on (0, inf): returns w with w * exp(w) = y.

    Accepts scalars or arrays; relative tolerance is fixed at 1e-12.
    """
    arr = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ThetaDomainError("theta requires finite y > 0")
    return backends.theta_array(arr if arr.ndim else float(arr))


def theta_of_log(u):
    """theta(exp(u)) for any real u, safe against exp overflow/underflow."""
    arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ThetaDomainError("theta_of_log requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    hi = arr > _LOG_SWITCH_HI
    lo = arr < _LOG_SWITCH_LO
    mid = ~(hi | lo)
    if hi.any():
        out[hi] = backends.theta_from_log_array(arr[hi])
    if lo.any():
        ey = np.exp(arr[lo])
        out[lo] = ey * (1.0 - ey)
    if mid.any():
        out[mid] = backends.theta_array(np.exp(arr[mid]))
    return out[0] if scalar else out
