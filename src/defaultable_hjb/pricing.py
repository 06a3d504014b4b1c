"""Economic outputs derived from solved certainty-equivalent surfaces.

All operations are nodewise maps over a Surface: the optimal dollar
position in the risky asset, defaultable-bond indifference prices, the
dynamic default-insurance rate in its two equivalent algebraic forms,
the short-horizon approximation of the rate, and the theoretical upper
bound and sign indicator of the rate.
"""

from __future__ import annotations

import numpy as np

from .lambertw import theta_of_log
from .model import ModelSpec, Preferences
from .solver import Surface, _Coeffs


class RadicandNegative(RuntimeError):
    """The insurance-rate square root went negative beyond rounding noise."""

    def __init__(self, node_index, value: float):
        self.node_index = node_index
        self.value = value
        super().__init__(
            f"insurance-rate radicand {value:.3e} at node {node_index}; "
            "the surface is inconsistent (Newton likely did not converge)")

    def __reduce__(self):
        # rebuilt from the __init__ arguments, so that it pickles
        return type(self), (self.node_index, self.value)


# radicand values in [-_RADICAND_CLAMP, 0) are rounding noise and clamped to 0
_RADICAND_CLAMP = 1e-10


def _gradient_term(coef: _Coeffs, G: Surface) -> np.ndarray:
    """(alpha / sigma) * a * rho * G_x, the hedging term of the positions.

    coef.c is the same loading multiplied in the solver's order, which can
    differ in the last bit; the pricing maps keep theirs.
    """
    return (coef.alpha / coef.sig) * coef.a * coef.rho * G.gradient


def _node_fields(G: Surface, m: ModelSpec, pref: Preferences):
    """Node coefficients, x-tilde, theta and log y shared by the maps."""
    coef = _Coeffs(m, G.grid.xs, pref.alpha)
    x_tilde = coef.m_ratio - _gradient_term(coef, G)
    log_y = coef.log_g_ratio + coef.alpha * G.values
    theta_g = theta_of_log(log_y + x_tilde)
    return coef, x_tilde, theta_g, log_y


def optimal_policy(G: Surface, m: ModelSpec, pref: Preferences) -> Surface:
    """The optimal dollar position in the risky asset, pi-hat = (x-tilde -
    theta_G) / alpha, nodewise on the surface grid; a policy that is not
    finite raises ValueError."""
    coef, x_tilde, theta_g, _ = _node_fields(G, m, pref)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (x_tilde - theta_g) / coef.alpha
    if not np.isfinite(values).all():
        raise ValueError("policy must be finite on the grid")
    return Surface(grid=G.grid, values=values)


def indifference_price(G_q: Surface, G_0: Surface, q: float) -> np.ndarray:
    """Per-unit buyer's price p = (G_q - G_0) / q for a claim with notional q."""
    if q <= 0:
        raise ValueError("notional q must be positive")
    if G_q.values.shape != G_0.values.shape or G_q.grid != G_0.grid:
        raise ValueError("surfaces must share a grid")
    return (G_q.values - G_0.values) / q


def insurance_rate(G: Surface, m: ModelSpec, pref: Preferences) -> np.ndarray:
    """Default-insurance rate, lower branch of the quadratic.

    f = sigma^2 * (x-tilde - sqrt(x-tilde^2 - (theta^2 + 2 theta
    - 2 (gamma/sigma^2) e^{alpha G}))).  The radicand is non-negative in
    exact arithmetic; values below -1e-10 raise RadicandNegative.
    """
    rad, x_tilde, s2 = _radicand(G, m, pref)
    return s2 * (x_tilde - np.sqrt(rad))


def _radicand(G: Surface, m: ModelSpec, pref: Preferences):
    coef, x_tilde, theta_g, log_y = _node_fields(G, m, pref)
    # an overflow to inf passes on to the rate (-inf), with no warning
    with np.errstate(over="ignore"):
        rad = x_tilde ** 2 - (theta_g ** 2 + 2.0 * theta_g
                              - 2.0 * np.exp(log_y))
    bad = rad < -_RADICAND_CLAMP
    if bad.any():
        idx = tuple(int(k[0]) for k in np.nonzero(bad))
        raise RadicandNegative(idx, float(rad[idx]))
    return np.maximum(rad, 0.0), x_tilde, coef.s2


def insurance_rate_h_form(pi_hat: float, y: float):
    """h(l, y) = l + y e^l - sqrt(l^2 + 2y(l e^l + 1 - e^l)); f = sigma^2 h.

    pi_hat is alpha times the dollar position; y = (gamma/sigma^2) e^{alpha G}.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("y must be positive")
    l = np.asarray(pi_hat, dtype=float)
    el = np.exp(l)
    rad = l * l + 2.0 * y * (l * el + 1.0 - el)
    return l + y * el - np.sqrt(np.maximum(rad, 0.0))


def zero_rate_position(y: float) -> float:
    """The alpha*pi-hat at which the short-horizon rate vanishes:
    l0(y) = log((sqrt(1 + 2y) - 1) / y)."""
    if y <= 0:
        raise ValueError("y must be positive")
    return float(np.log((np.sqrt(1.0 + 2.0 * y) - 1.0) / y))


def insurance_bounds(G: Surface, policy: Surface, m: ModelSpec,
                     pref: Preferences):
    """(upper, sign_indicator) for the insurance rate.

    upper = gamma e^{alpha (G + pi-hat)} is the default intensity under the
    dual measure; the rate equals it exactly where pi-hat = 0.
    sign_indicator = gamma e^{alpha (2 pi-hat + G)} / (2 sigma^2)
    + e^{alpha pi-hat} - 1 shares the sign of the rate.
    """
    coef = _Coeffs(m, G.grid.xs, pref.alpha)
    gam, s2, al = coef.gam, coef.s2, coef.alpha
    p = policy.values
    upper = gam * np.exp(al * (G.values + p))
    sign_ind = (gam * np.exp(al * (2.0 * p + G.values)) / (2.0 * s2)
                + np.exp(al * p) - 1.0)
    return upper, sign_ind


def protected_policy(G_d: Surface, f: np.ndarray, m: ModelSpec,
                     pref: Preferences) -> np.ndarray:
    """Optimal position with insurance: ((mu - f)/sigma^2 - gradient term)/alpha."""
    coef = _Coeffs(m, G_d.grid.xs, pref.alpha)
    return ((coef.mu - np.asarray(f, dtype=float)) / coef.s2
            - _gradient_term(coef, G_d)) / coef.alpha


def short_horizon_curve(y: float = 2.0 / 3.0, lo: float = -2.0,
                        hi: float = 2.0, step: float = 0.01):
    """Rate-vs-position curve at constant gamma/sigma^2 = y.

    Returns (alpha*pi-hat grid, f/sigma^2, upper bound gamma/sigma^2 * e^l)
    with G = 0, suitable for CSV export.
    """
    n = int(round((hi - lo) / step))
    ls = lo + step * np.arange(n + 1)
    curve = insurance_rate_h_form(ls, y)
    upper = y * np.exp(ls)
    return ls, curve, upper
