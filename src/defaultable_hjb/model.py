"""Factor-process and asset coefficient models on a one-dimensional domain.

A ModelSpec bundles the factor drift b, squared diffusion A, pre-default
return mu, volatility sigma, correlation rho and default intensity gamma
as vectorized evaluators on an open interval E.  Built-ins cover the
mean-reverting Gaussian (OU) and square-root (CIR) examples; a Custom
kind accepts arbitrary vectorized callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .backends import scipy_module

_ufuncs = scipy_module("scipy.special._ufuncs", "scipy.special")
gammaincinv, ndtri = _ufuncs.gammaincinv, _ufuncs.ndtri


class ModelError(ValueError):
    """Parameter or domain validation failure."""


@dataclass(frozen=True)
class Domain1D:
    """Open interval E = (lower, upper); bounds may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ModelError(f"empty domain ({self.lower}, {self.upper})")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (x > self.lower) & (x < self.upper)


def _require_square(value: float, name: str) -> None:
    """The equations divide by the square of a volatility: it must be a
    positive finite double."""
    if not 0.0 < value * value < np.inf:
        raise ModelError(f"{name}^2 = {value * value:g} must be positive "
                         "and finite")


@dataclass(frozen=True)
class OUParams:
    b_mr: float
    mu1: float
    mu2: float
    sigma_const: float
    gamma_const: float
    rho_const: float

    def __post_init__(self):
        if not self.sigma_const > 0:
            raise ModelError("sigma_const must be positive")
        _require_square(self.sigma_const, "sigma_const")
        if not self.gamma_const > 0:
            raise ModelError("gamma_const must be positive")
        if abs(self.rho_const) > 1:
            raise ModelError("rho_const must lie in [-1, 1]")


@dataclass(frozen=True)
class CIRParams:
    kappa: float
    theta_lr: float
    xi: float
    mu1: float
    mu2: float
    sigma_scale: float
    gamma1: float
    gamma2: float
    rho_const: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ModelError("kappa must be positive")
        if not self.theta_lr > 0:
            raise ModelError("theta_lr must be positive")
        if not self.xi > 0:
            raise ModelError("xi must be positive")
        _require_square(self.xi, "xi")
        if not self.sigma_scale > 0:
            raise ModelError("sigma_scale must be positive")
        _require_square(self.sigma_scale, "sigma_scale")
        if self.gamma1 < 0 or self.gamma2 < 0 or self.gamma1 + self.gamma2 == 0:
            raise ModelError("gamma1, gamma2 must be non-negative, not both zero")
        if abs(self.rho_const) > 1:
            raise ModelError("rho_const must lie in [-1, 1]")

    @property
    def feller_margin(self) -> float:
        return self.kappa * self.theta_lr - 0.5 * self.xi ** 2


@dataclass(frozen=True)
class ModelSpec:
    domain: Domain1D
    b: Callable
    A: Callable
    mu: Callable
    sigma: Callable
    rho: Callable
    gamma: Callable
    kind: str  # "ou" | "cir" | "custom"
    params: object = None

    def a(self, x):
        """Diffusion coefficient a = sqrt(A)."""
        return np.sqrt(self.A(x))


@dataclass(frozen=True)
class ClaimSpec:
    """Bounded terminal claim phi received on survival, held in notional q."""

    phi: Callable
    q: float
    phi_lower: float
    phi_upper: float

    def __post_init__(self):
        if not self.q > 0:
            raise ModelError("claim notional q must be positive")
        if self.phi_lower > 0 or self.phi_upper < 0:
            raise ModelError("phi bounds must satisfy phi_lower <= 0 <= phi_upper")


def zero_claim(q: float = 1.0) -> ClaimSpec:
    return ClaimSpec(phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                     q=q, phi_lower=0.0, phi_upper=0.0)


def bond_claim(q: float = 1.0) -> ClaimSpec:
    """Defaultable bond: phi identically 1."""
    return ClaimSpec(phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     q=q, phi_lower=0.0, phi_upper=1.0)


@dataclass(frozen=True)
class Preferences:
    alpha: float
    horizon_T: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ModelError("risk aversion alpha must be positive")
        if not self.horizon_T > 0:
            raise ModelError("horizon_T must be positive")


def make_ou_model(p: OUParams) -> ModelSpec:
    """OU factor: dX = -b X dt + dW on E = R, with mu = sigma(mu1 + mu2 x),
    constant sigma and constant intensity sigma * gamma."""
    s = p.sigma_const

    def _ones(x):
        return np.ones_like(np.asarray(x, dtype=float))

    return ModelSpec(
        domain=Domain1D(-np.inf, np.inf),
        b=lambda x, p=p: -p.b_mr * np.asarray(x, dtype=float),
        A=_ones,
        mu=lambda x, p=p: s * (p.mu1 + p.mu2 * np.asarray(x, dtype=float)),
        sigma=lambda x: s * _ones(x),
        rho=lambda x, p=p: p.rho_const * _ones(x),
        gamma=lambda x, p=p: s * p.gamma_const * _ones(x),
        kind="ou",
        params=p,
    )


def make_cir_model(p: CIRParams, enforce_feller: bool = True) -> ModelSpec:
    """CIR factor: dX = kappa(theta - X)dt + xi sqrt(X) dW on E = (0, inf),
    with mu = s(mu1 + mu2 x), sigma = s sqrt(x), gamma = s(gamma1 + gamma2 x).

    Requires the Feller condition kappa*theta >= xi^2/2, keeping the
    factor strictly positive; assumption checkers pass enforce_feller=False
    to obtain a reportable model from violating parameters."""
    if enforce_feller and p.feller_margin < 0:
        raise ModelError(
            "Feller condition violated: kappa*theta - xi^2/2 = "
            f"{p.feller_margin:.6g} < 0")
    s = p.sigma_scale
    return ModelSpec(
        domain=Domain1D(0.0, np.inf),
        b=lambda x, p=p: p.kappa * (p.theta_lr - np.asarray(x, dtype=float)),
        A=lambda x, p=p: p.xi ** 2 * np.asarray(x, dtype=float),
        mu=lambda x, p=p: s * (p.mu1 + p.mu2 * np.asarray(x, dtype=float)),
        sigma=lambda x: s * np.sqrt(np.asarray(x, dtype=float)),
        rho=lambda x, p=p: p.rho_const * np.ones_like(np.asarray(x, dtype=float)),
        gamma=lambda x, p=p: s * (p.gamma1 + p.gamma2 * np.asarray(x, dtype=float)),
        kind="cir",
        params=p,
    )


def make_custom_model(domain: Domain1D, b, A, mu, sigma, rho, gamma) -> ModelSpec:
    """Custom closed-form coefficients; callables must be vectorized."""
    return ModelSpec(domain=domain, b=b, A=A, mu=mu, sigma=sigma, rho=rho,
                     gamma=gamma, kind="custom")


def paper_cir_params() -> CIRParams:
    """The worked numerical configuration of the square-root example."""
    return CIRParams(kappa=0.25, theta_lr=0.06, xi=0.1,
                     mu1=0.0, mu2=1.3608, sigma_scale=1.2247,
                     gamma1=0.0, gamma2=0.4145, rho_const=-0.53)


def market_price_of_risk(m: ModelSpec, x):
    """ell(x) = (mu(x) - gamma(x)) / sigma(x)."""
    x = np.asarray(x, dtype=float)
    if not np.all(m.domain.contains(x)):
        raise ModelError("x outside the model domain")
    return (m.mu(x) - m.gamma(x)) / m.sigma(x)


def _stationary_law(m: ModelSpec) -> tuple[float, float]:
    """Parameters of the stationary law of a built-in factor.

    CIR: Gamma (shape 2 kappa theta / xi^2, rate 2 kappa / xi^2).
    OU: centred normal (0, s.d. 1 / sqrt(2 b), or 3 when b = 0).
    """
    if m.kind == "cir":
        p: CIRParams = m.params
        shape = 2.0 * p.kappa * p.theta_lr / p.xi ** 2
        rate = 2.0 * p.kappa / p.xi ** 2
        return shape, rate
    if m.kind == "ou":
        p: OUParams = m.params
        sd = 1.0 / np.sqrt(2.0 * p.b_mr) if p.b_mr > 0 else 3.0
        return 0.0, sd
    raise ModelError("the stationary law is only defined for built-in kinds")


def _stationary_quantiles(m: ModelSpec, q) -> np.ndarray:
    """Quantiles of the stationary law at the probabilities q."""
    q = np.asarray(q, dtype=float)
    if m.kind == "cir":
        shape, rate = _stationary_law(m)
        return gammaincinv(shape, q) * (1.0 / rate)
    _, sd = _stationary_law(m)
    return ndtri(q) * sd


# The certainty equivalent grows like x^2 across the interval and a Newton
# step squares it, so an edge past the fourth root of the largest double
# overflows the solve (a tiny OU mean reversion puts it near 1e150)
_EDGE_LIMIT = np.finfo(float).max ** 0.25


def default_truncation(m: ModelSpec) -> tuple[float, float]:
    """Truncated computational interval insulating the band of interest.

    CIR: the [0.001, 0.999] quantile band of the stationary law, widened
    by a factor 1.5.  OU: stationary mean +/- 6 standard deviations.
    Raises ModelError when an edge is not finite or lies beyond
    _EDGE_LIMIT, where a grid on the interval cannot be solved in double
    precision.
    """
    if m.kind == "cir":
        q_lo, q_hi = _stationary_quantiles(m, [0.001, 0.999])
        lo, hi = q_lo / 1.5, q_hi * 1.5
    else:
        _, sd = _stationary_law(m)
        lo, hi = -6.0 * sd, 6.0 * sd
    if not np.all(np.abs([lo, hi]) < _EDGE_LIMIT):
        raise ModelError(
            f"the truncation interval [{lo:.6g}, {hi:.6g}] cannot be "
            f"resolved in double precision: its edges must lie within "
            f"+/-{_EDGE_LIMIT:.3g}")
    return lo, hi


def invariant_band(m: ModelSpec, lo_q: float = 0.025, hi_q: float = 0.975
                   ) -> tuple[float, float]:
    """Quantile band of the stationary law, used as the reporting band."""
    lo, hi = _stationary_quantiles(m, [lo_q, hi_q])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# localization / mollifier machinery
# ---------------------------------------------------------------------------

def _smoothstep(t):
    """C^infinity step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    gp = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    gm = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return gp / (gp + gm)


@dataclass(frozen=True)
class LocalizationSpec:
    """Nested compact subinterval E_n with a smooth cutoff chi_n.

    chi_n = 1 on E_{n-1}, is supported on the closure of E_n, and is
    strictly positive inside E_n.
    """

    n_index: int
    inner: tuple[float, float]  # E_{n-1}
    outer: tuple[float, float]  # E_n
    chi: Callable = field(repr=False)

    def validate(self) -> None:
        lo, hi = self.outer
        xs = np.linspace(lo, hi, 1000)
        c = self.chi(xs)
        if np.any(c < -1e-15) or np.any(c > 1.0 + 1e-15):
            raise ModelError("chi_n must take values in [0, 1]")
        inner_mask = (xs >= self.inner[0]) & (xs <= self.inner[1])
        if np.any(np.abs(c[inner_mask] - 1.0) > 1e-12):
            raise ModelError("chi_n must equal 1 on E_{n-1}")
        strictly_inside = (xs > lo) & (xs < hi)
        if np.any(c[strictly_inside] <= 0.0):
            raise ModelError("chi_n must be strictly positive on E_n")
        if abs(float(self.chi(lo))) > 1e-300 or abs(float(self.chi(hi))) > 1e-300:
            raise ModelError("chi_n must vanish at the boundary of E_n")


# width of the cutoff's transition band, as a share of the gap between
# E_{n-1} and the boundary of E_n
_TRANSITION_WIDTH = 0.1


def nested_subdomain(m: ModelSpec, n: int) -> tuple[float, float]:
    """The n-th compact subinterval E_n of the model domain."""
    if n < 2:
        raise ModelError("localization index n must be >= 2")
    if m.kind == "cir":
        return 1.0 / n, float(n)
    if m.kind == "ou":
        return -float(n), float(n)
    lo, hi = m.domain.lower, m.domain.upper
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ModelError("custom localization needs a bounded domain")
    pad = (hi - lo) / (2.0 * (n + 1))
    return lo + pad, hi - pad


def build_localization(m: ModelSpec, n: int) -> LocalizationSpec:
    """Smooth cutoff for the localized PDE on E_n.

    The cutoff equals 1 away from the edges of E_n and decays to exactly 0
    at the boundary over a band of _TRANSITION_WIDTH times the gap between
    E_{n-1} and the boundary of E_n.
    """
    inner = nested_subdomain(m, n - 1) if n >= 3 else nested_subdomain(m, 2)
    outer = nested_subdomain(m, n)
    if n == 2:
        # shrink the inner plateau strictly inside E_2
        a, b = outer
        inner = (a + 0.25 * (b - a), b - 0.25 * (b - a))
    lo, hi = outer
    w_lo = _TRANSITION_WIDTH * (inner[0] - lo)
    w_hi = _TRANSITION_WIDTH * (hi - inner[1])
    if w_lo <= 0 or w_hi <= 0:
        raise ModelError("E_{n-1} must be strictly inside E_n")

    def chi(x, lo=lo, hi=hi, w_lo=w_lo, w_hi=w_hi):
        x = np.asarray(x, dtype=float)
        left = _smoothstep((x - lo) / w_lo)
        right = _smoothstep((hi - x) / w_hi)
        return left * right

    spec = LocalizationSpec(n_index=n, inner=inner, outer=outer, chi=chi)
    spec.validate()
    return spec
