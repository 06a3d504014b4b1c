"""Certification of the model's standing assumptions.

Static checks (state domain, factor SDE, intensity and asset-coefficient
positivity, claim boundedness) are grid-sampled.  The exponential
integrability of the market price of risk ell = (mu - gamma)/sigma is
certified in closed form: a Gaussian-moment argument for the OU model
and an explicit CIR moment bound E[exp(int (A/x + B x) dt)]
<= (Ce/D)^C x^{-C} e^{Dx + lambda T} for the square-root model, both
also under the drift-changed dynamics used by the duality argument.
Custom models get no certificate: their integrability is Unverified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CIRParams, ClaimSpec, ModelError, ModelSpec, OUParams,
                    Preferences, default_truncation)

HOLDS = "Holds"
FAILS = "Fails"
UNVERIFIED = "Unverified"

# p candidates for the moment-drift condition ("for some p > 1"): the
# grid 1.05..2.0, then p - 1 = 0.05 * 2^-k toward 1, near which the
# condition holds once the physical window does
_P_SCAN = ([1.0 + 0.05 * k for k in range(1, 21)]
           + [1.0 + 0.05 * 2.0 ** -k for k in range(1, 31)])
# log grid of candidate integrability constants epsilon
_EPS_SCAN = list(10.0 ** np.linspace(-8.0, 2.0, 101))
# the Feller margin of a square-root process, as witnesses print it
_MARGIN = "kappa*theta - xi^2/2"


def _sq(x: float) -> float:
    """x ** 2, or inf where the square overflows a double."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


class WindowViolation(ValueError):
    """A moment-bound coefficient left its validity window."""

    def __init__(self, expression: str, value: float):
        self.expression = expression
        self.value = value
        super().__init__(f"moment bound window violated: {expression} = "
                         f"{value:.6g} must be positive")


@dataclass(frozen=True)
class AssumptionEntry:
    id: str
    status: str
    witness: str

    def __post_init__(self):
        if self.status not in (HOLDS, FAILS, UNVERIFIED):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass
class AssumptionReport:
    entries: list

    def entry(self, id: str) -> AssumptionEntry:
        for e in self.entries:
            if e.id == id:
                return e
        raise KeyError(id)

    def status(self, id: str) -> str:
        return self.entry(id).status

    @property
    def all_hold(self) -> bool:
        return all(e.status == HOLDS for e in self.entries)

    @property
    def any_fail(self) -> bool:
        return any(e.status == FAILS for e in self.entries)

    def render_text(self) -> str:
        blocks = []
        for e in self.entries:
            blocks.append(f"[{e.status}] {e.id}\n    {e.witness}")
        return "\n".join(blocks)


def _moment_drift_entry(witness) -> AssumptionEntry:
    """The moment-drift entry for the first p of _P_SCAN with a witness;
    witness(p, eps) is None unless eps = p(p-1)/2 fits the p-drift window."""
    for pv in _P_SCAN:
        text = witness(pv, 0.5 * pv * (pv - 1.0))
        if text is not None:
            return AssumptionEntry("moment-drift-integrability", HOLDS, text)
    return AssumptionEntry("moment-drift-integrability", FAILS,
                           "no p in (1, 2] admits the required exponent")


# ---------------------------------------------------------------------------
# static assumptions
# ---------------------------------------------------------------------------

def feller_check(kappa: float, theta_lr: float, xi: float) -> AssumptionEntry:
    """Boundary non-attainment of the square-root factor."""
    margin = DriftChangedCIR(kappa, theta_lr, xi).feller_margin
    if margin >= 0:
        return AssumptionEntry(
            "factor-sde", HOLDS,
            f"kappa*theta - xi^2/2 = {margin:.6g} >= 0; the square-root "
            "process stays in (0, inf)")
    return AssumptionEntry(
        "factor-sde", FAILS,
        f"kappa*theta - xi^2/2 = {margin:.6g} < 0")


def _probe_grid(m: ModelSpec) -> np.ndarray:
    if m.kind in ("ou", "cir"):
        lo, hi = default_truncation(m)
    else:
        lo, hi = m.domain.lower, m.domain.upper
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ModelError("custom models need a bounded domain for checks")
        pad = 1e-9 * (hi - lo)
        lo, hi = lo + pad, hi - pad
    return np.linspace(lo, hi, 1000)


def check_static_assumptions(m: ModelSpec, c: ClaimSpec) -> AssumptionReport:
    """Grid-sampled positivity/boundedness checks on a compact subinterval."""
    xs = _probe_grid(m)
    entries = []

    entries.append(AssumptionEntry(
        "state-domain", HOLDS,
        f"E = ({m.domain.lower:.6g}, {m.domain.upper:.6g}) is a non-empty "
        "open interval (connected)"))

    if m.kind == "ou":
        entries.append(AssumptionEntry(
            "factor-sde", HOLDS,
            "linear drift, constant diffusion: globally Lipschitz, unique "
            "strong solution on R"))
    elif m.kind == "cir":
        p: CIRParams = m.params
        entries.append(feller_check(p.kappa, p.theta_lr, p.xi))
    else:
        a_min = float(np.min(m.A(xs)))
        finite = bool(np.all(np.isfinite(m.b(xs))))
        entries.append(AssumptionEntry(
            "factor-sde", UNVERIFIED,
            f"custom coefficients: grid probe inf A = {a_min:.6g}, drift "
            f"finite = {finite}; well-posedness not certified"))

    gam = np.asarray(m.gamma(xs), dtype=float)
    g_min = float(np.min(gam))
    entries.append(AssumptionEntry(
        "default-intensity",
        HOLDS if g_min > 0 and np.all(np.isfinite(gam)) else FAILS,
        f"inf gamma on the probe interval = {g_min:.6g} "
        f"{'>' if g_min > 0 else '<='} 0"))

    sig = np.asarray(m.sigma(xs), dtype=float)
    a_arr = np.asarray(m.A(xs), dtype=float)
    rho2 = np.asarray(m.rho(xs), dtype=float) ** 2
    s_min, a_min2, r_max = (float(np.min(sig)), float(np.min(a_arr)),
                            float(np.max(rho2)))
    ok = s_min > 0 and a_min2 > 0 and r_max <= 1.0 + 1e-14
    entries.append(AssumptionEntry(
        "asset-coefficients", HOLDS if ok else FAILS,
        f"inf sigma = {s_min:.6g}, inf A = {a_min2:.6g}, sup rho^2 = "
        f"{r_max:.6g}; need all positive and sup rho^2 <= 1"))

    phi = np.asarray(c.phi(xs), dtype=float)
    in_bounds = bool(np.all(np.isfinite(phi))
                     and phi.min() >= c.phi_lower - 1e-12
                     and phi.max() <= c.phi_upper + 1e-12)
    entries.append(AssumptionEntry(
        "claim-bounded", HOLDS if in_bounds else FAILS,
        f"phi range on probe interval [{phi.min():.6g}, {phi.max():.6g}] "
        f"within declared [{c.phi_lower:.6g}, {c.phi_upper:.6g}]"))

    return AssumptionReport(entries=entries)


# ---------------------------------------------------------------------------
# OU integrability
# ---------------------------------------------------------------------------

def _ou_window(c2: float, b_eff: float, T: float) -> float:
    """Gaussian window: eps below it keeps E[exp(2 eps c2^2 int X_t^2 dt)]
    finite on [0, T] for dX = -b_eff X dt + dW.

    It is 1/(4 T c2^2 v), with v the worst variance of X_t on [0, T].
    """
    if c2 == 0.0:
        return np.inf
    # expm1 keeps v near T for a tiny b_eff
    v = T if b_eff == 0.0 else -np.expm1(-2.0 * b_eff * T) / (2.0 * b_eff)
    denom = float(4.0 * T * _sq(c2) * v)
    return 1.0 / denom if denom > 0.0 else np.inf  # c2^2 may underflow


def check_ou_integrability(p: OUParams, T: float) -> AssumptionReport:
    """Exponential integrability of ell for the mean-reverting Gaussian model.

    ell(x) = (mu1 - gamma) + mu2 x, so ell^2 <= 2(mu1-gamma)^2 + 2 mu2^2 x^2
    and E[exp(eps int ell^2)] is finite inside the Gaussian window of
    _ou_window; this holds for every parameter choice with eps small enough.
    """
    if T <= 0:
        raise ModelError("degenerate horizon: T must be positive")
    c1 = p.mu1 - p.gamma_const
    c2 = p.mu2
    rho = p.rho_const
    entries = []

    # X stays OU under every drift change; take the narrowest window
    eps_max = min(_ou_window(c2, b, T) for b in
                  (p.b_mr, p.b_mr + rho * c2, p.b_mr - 0.5 * rho * c2))
    eps_word = ("unconstrained (ell is bounded)" if c2 == 0.0
                else f"any eps < {eps_max:.6g}")
    base = (f"ell^2 <= 2({c1:.6g})^2 + 2({c2:.6g})^2 x^2; Gaussian moments "
            f"finite for {eps_word}")

    if rho ** 2 < 1.0:
        entries.append(AssumptionEntry(
            "incomplete-market-integrability", HOLDS,
            f"sup rho^2 = {rho**2:.6g} < 1; {base}"))
    else:
        entries.append(AssumptionEntry(
            "incomplete-market-integrability", FAILS,
            f"sup rho^2 = {rho**2:.6g} is not < 1; use the complete-market "
            "condition instead"))

    entries.append(AssumptionEntry(
        "dual-drift-integrability", HOLDS,
        f"under the dual drift the factor is OU with rate "
        f"{p.b_mr + rho * c2:.6g}; {base}"))

    def pp_witness(pv: float, eps: float):
        # under the p-drift the factor is OU with rate b - (p-1) rho mu2
        if eps < _ou_window(c2, p.b_mr - (pv - 1.0) * rho * c2, T):
            return (f"p = {pv:.6g} gives exponent p(p-1)/2 = {eps:.6g} "
                    "inside the Gaussian window; " + base)
        return None

    entries.append(_moment_drift_entry(pp_witness))
    return AssumptionReport(entries=entries)


# ---------------------------------------------------------------------------
# CIR moment bound and integrability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftChangedCIR:
    """Square-root dynamics kappa(theta - x) dt + xi sqrt(x) dW."""

    kappa: float
    theta_lr: float
    xi: float

    feller_margin = CIRParams.feller_margin


@dataclass(frozen=True)
class CIRMomentBound:
    """Closed-form constants of E[exp(int (A/x + Bx) dt)] <= bound."""

    A_coef: float
    B_coef: float
    C_const: float
    D_const: float
    lambda_const: float
    kappa: float
    theta_lr: float
    xi: float

    def bound_at(self, x, T: float):
        x = np.asarray(x, dtype=float)
        out = np.exp(self.D_const * x + self.lambda_const * T)
        if self.C_const > 0.0:
            # (C e / D)^C * x^{-C}
            out = out * np.exp(
                self.C_const
                * (1.0 + np.log(self.C_const / self.D_const) - np.log(x)))
        return out if out.ndim else float(out)


def drift_changed_cir(p: CIRParams, measure: str,
                      p_exp: float = 1.5) -> DriftChangedCIR:
    """Square-root parameters under the physical, dual, or p-moment drift."""
    d1 = p.mu1 - p.gamma1
    d2 = p.mu2 - p.gamma2
    rho = p.rho_const
    if measure == "physical":
        kt, k = p.kappa * p.theta_lr, p.kappa
    elif measure == "p0":
        kt = p.kappa * p.theta_lr - p.xi * rho * d1
        k = p.kappa + p.xi * rho * d2
    elif measure == "pp":
        kt = p.kappa * p.theta_lr + (p_exp - 1.0) * p.xi * rho * d1
        k = p.kappa - (p_exp - 1.0) * p.xi * rho * d2
    else:
        raise ValueError(f"unknown measure {measure!r}")
    if k <= 0:
        raise WindowViolation("drift-changed kappa", k)
    return DriftChangedCIR(kappa=k, theta_lr=kt / k, xi=p.xi)


def _discriminant(xi: float, coef: float, scale: float) -> float:
    """1 - 2 xi^2 coef / scale^2, under the root of a closed-form constant.

    Past the range of doubles it is -inf or nan, which no window admits."""
    return 1.0 - 2.0 * xi ** 2 * float(coef) / _sq(scale)


def _cir_window(d: DriftChangedCIR, A_coef: float, B_coef: float):
    """The moment-bound window that (A, B) leaves, as (expression, value).

    A > 0 needs kappa*theta - xi^2/2 > 0 and 2 xi^2 A < (kappa*theta -
    xi^2/2)^2; B needs 2 xi^2 B < kappa^2.  Returns None inside both.
    D > 0 is a condition of the closed-form bound, not of the window: a
    certificate with mu2 = gamma2 (B = 0) holds while cir_moment_bound at
    B = 0 and A > 0 refuses.
    """
    if A_coef > 0:
        if d.feller_margin <= 0:
            return _MARGIN, d.feller_margin
        arg_a = _discriminant(d.xi, A_coef, d.feller_margin)
        if not arg_a > 0:
            return f"1 - 2 xi^2 A / ({_MARGIN})^2", arg_a
    arg_b = _discriminant(d.xi, B_coef, d.kappa)
    if not arg_b > 0:
        return "1 - 2 xi^2 B / kappa^2", arg_b
    return None


def cir_moment_bound(p, A_coef: float, B_coef: float, x: float,
                     T: float):
    """Bound E[exp(int_0^T (A/X_t + B X_t) dt)] for a square-root process.

    p needs attributes kappa, theta_lr, xi (CIRParams or DriftChangedCIR).
    Returns (bound value at (x, T), CIRMomentBound constants).
    """
    kappa, theta_lr, xi = p.kappa, p.theta_lr, p.xi
    if A_coef < 0:
        raise WindowViolation("A coefficient", A_coef)
    if B_coef < 0:
        raise WindowViolation("B coefficient", B_coef)
    if x <= 0:
        raise WindowViolation("evaluation point x", x)
    if kappa <= 0:
        raise WindowViolation("kappa", kappa)
    d = DriftChangedCIR(kappa, theta_lr, xi)
    violated = _cir_window(d, A_coef, B_coef)
    if violated is not None:
        raise WindowViolation(*violated)
    m0 = d.feller_margin
    C = (m0 / xi ** 2) * (1.0 - np.sqrt(_discriminant(xi, A_coef, m0))) \
        if A_coef > 0 else 0.0
    D = (kappa / xi ** 2) * (1.0 - np.sqrt(_discriminant(xi, B_coef, kappa)))
    if C > 0 and D <= 0:
        raise WindowViolation("D (need B > 0 when A > 0)", D)
    lam = kappa * C + kappa * theta_lr * D - xi ** 2 * C * D
    consts = CIRMomentBound(A_coef=A_coef, B_coef=B_coef, C_const=float(C),
                            D_const=float(D), lambda_const=float(lam),
                            kappa=kappa, theta_lr=theta_lr, xi=xi)
    return consts.bound_at(x, T), consts


def check_cir_integrability(p: CIRParams, pref: Preferences
                            ) -> AssumptionReport:
    """Certify exponential integrability for the affine square-root model."""
    entries = []
    d1 = p.mu1 - p.gamma1
    d2 = p.mu2 - p.gamma2
    rho = p.rho_const
    m0 = p.feller_margin

    entries.append(AssumptionEntry(
        "feller-strict", HOLDS if m0 > 0 else FAILS,
        f"kappa*theta - xi^2/2 = {m0:.6g} "
        f"{'> 0 (strict)' if m0 > 0 else 'is not > 0 (strict form required)'}"))

    if abs(rho) == 1.0:
        # perfectly correlated case: the stated lemma hypotheses, with the
        # signs of mu_i - gamma_i flipped when rho = -1
        s1, s2 = rho * d1, rho * d2
        c_a = s1 < m0 / p.xi ** 2
        c_b = s2 > -p.kappa / p.xi ** 2
        entries.append(AssumptionEntry(
            "perfect-correlation", HOLDS if (c_a and c_b) else FAILS,
            f"rho = {rho:.0f}: need rho*(mu1-gamma1) = {s1:.6g} < "
            f"(kappa*theta - xi^2/2)/xi^2 = {m0 / p.xi**2:.6g} and "
            f"rho*(mu2-gamma2) = {s2:.6g} > -kappa/xi^2 = "
            f"{-p.kappa / p.xi**2:.6g}"))

    def window(d: DriftChangedCIR, eps: float):
        # ell^2(x) = d1^2/x + 2 d1 d2 + d2^2 x; the constant never binds
        return _cir_window(d, eps * _sq(d1), eps * _sq(d2))

    def window_entry(id_: str, measure: str) -> AssumptionEntry:
        try:
            d = drift_changed_cir(p, measure)
        except WindowViolation as exc:
            return AssumptionEntry(id_, FAILS, str(exc))
        if m0 <= 0:
            return AssumptionEntry(
                id_, FAILS, f"strict Feller fails: margin {m0:.6g}")
        eps = np.inf if d1 == 0.0 and d2 == 0.0 else max(
            (e for e in _EPS_SCAN if window(d, e) is None), default=0.0)
        if eps > 0:
            return AssumptionEntry(
                id_, HOLDS,
                f"drift-changed (kappa, theta) = ({d.kappa:.6g}, "
                f"{d.theta_lr:.6g}); eps = {eps:.6g} keeps "
                f"eps*(mu1-gamma1)^2 = {eps * _sq(d1) if np.isfinite(eps) else 0:.6g} and "
                f"eps*(mu2-gamma2)^2 = {eps * _sq(d2) if np.isfinite(eps) else 0:.6g} "
                "inside the moment-bound windows")
        expression, value = window(d, _EPS_SCAN[0])
        if expression == _MARGIN:
            return AssumptionEntry(
                id_, FAILS,
                f"drift-changed {_MARGIN} = {value:.6g} <= 0 while "
                "ell^2 carries a 1/x term")
        return AssumptionEntry(
            id_, FAILS, "no eps on the scan grid fits the windows")

    if rho ** 2 < 1.0:
        entries.append(
            window_entry("incomplete-market-integrability", "physical"))
    else:
        entries.append(AssumptionEntry(
            "incomplete-market-integrability", FAILS,
            f"sup rho^2 = {rho**2:.6g} is not < 1; the complete-market "
            "condition applies instead"))

    entries.append(window_entry("dual-drift-integrability", "p0"))

    def pp_witness(pv: float, eps: float):
        try:
            d = drift_changed_cir(p, "pp", p_exp=pv)
        except WindowViolation:
            return None
        if m0 <= 0 or window(d, eps) is not None:
            return None
        return (f"p = {pv:.6g}: exponent p(p-1)/2 = {eps:.6g} fits the "
                "windows of the drift-changed square-root process "
                f"(kappa, theta) = ({d.kappa:.6g}, {d.theta_lr:.6g})")

    entries.append(_moment_drift_entry(pp_witness))
    return AssumptionReport(entries=entries)


def check_model(m: ModelSpec, c: ClaimSpec, pref: Preferences
                ) -> AssumptionReport:
    """Full report: static assumptions plus the integrability certificates."""
    entries = check_static_assumptions(m, c).entries
    if m.kind == "ou":
        entries += check_ou_integrability(m.params, pref.horizon_T).entries
    elif m.kind == "cir":
        entries += check_cir_integrability(m.params, pref).entries
    else:
        entries.append(AssumptionEntry(
            "incomplete-market-integrability", UNVERIFIED,
            "custom coefficients: no closed-form certificate"))
    return AssumptionReport(entries=entries)
