"""Backward-in-time solver for the certainty-equivalent HJB equation.

Three modes share one backward marcher, a Crank-Nicolson / Newton stepper
on a uniform (time x space) grid:

* full      -- the semilinear equation with the product-log source,
* local     -- the mollified equation with zero lateral Dirichlet data
               (the other modes extrapolate at the edges),
* protected -- the protected-market equation driven by an insurance
               rate field, terminal value zero.

The nonlinear source is treated fully implicitly; the Newton Jacobian is
tridiagonal, with the product-log derivatives obtained from the identity
y * theta'(y) * (1 + theta(y)) = theta(y).

The marcher carries the last operator evaluation (F, Jacobian) along:
an accepted line-search trial's serves the next Newton iterate, and a
converged row's serves the next step as its explicit half and, in full
and local modes, as its first iterate.  Each reuse stands for an
evaluation of identical inputs, so no value changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import backends
from .lambertw import theta_of_log
from .model import (ClaimSpec, LocalizationSpec, ModelSpec, Preferences,
                    default_truncation)


class NewtonDivergence(RuntimeError):
    """Newton failed to converge at a time step (grid too coarse/too wide)."""

    def __init__(self, step_index: int, residual_norm: float):
        self.step_index = step_index
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton diverged at time step {step_index}: "
            f"residual {residual_norm:.3e}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [x_min, x_max] x [0, t_end]."""

    x_min: float
    x_max: float
    n_space: int
    n_time: int
    t_end: float = 1.0

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_space < 16 or self.n_time < 16:
            raise ValueError("need at least 16 space and time intervals")
        if not self.t_end > 0:
            raise ValueError("need t_end > 0")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_space + 1)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_time + 1)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_space

    @property
    def dt(self) -> float:
        return self.t_end / self.n_time


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    scheme: str = "crank-nicolson"  # or "backward-euler"

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.scheme not in ("crank-nicolson", "backward-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def central_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Row-wise spatial gradient: central in the interior, one-sided at edges."""
    grad = np.empty_like(values)
    grad[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    grad[..., 0] = (values[..., 1] - values[..., 0]) / dx
    grad[..., -1] = (values[..., -1] - values[..., -2]) / dx
    return grad


def bilinear_cell(ts: np.ndarray, xs: np.ndarray, t: float, x) -> tuple:
    """Cell indices and weights of a bilinear lookup at (t, x).

    The point is clamped to the grid edges.  On the uniform x nodes the
    index is floor((x - x_min) / dx), corrected by one comparison with the
    node on each side, so that it equals
    clip(searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2) exactly.
    """
    x = np.asarray(x, dtype=float)
    t = min(max(float(t), ts[0]), ts[-1])
    i = min(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2)
    i = max(i, 0)
    wt = (t - ts[i]) / (ts[i + 1] - ts[i])
    xc = np.clip(x, xs[0], xs[-1])
    last = len(xs) - 2
    dx = (xs[-1] - xs[0]) / (last + 1)
    j = np.clip(((xc - xs[0]) / dx).astype(np.intp), 0, last)
    j -= xs[j] > xc
    j += (j < last) & (xs[j + 1] <= xc)
    j1 = j + 1
    wx = (xc - xs[j]) / (xs[j1] - xs[j])
    return i, wt, j, j1, wx


def bilinear_gather(values: np.ndarray, cell: tuple) -> np.ndarray:
    """Bilinear combination of the grid values around a bilinear_cell."""
    i, wt, j, j1, wx = cell
    lo, hi = values[i], values[i + 1]
    vx = 1 - wx
    row0 = lo[j] * vx + lo[j1] * wx
    row1 = hi[j] * vx + hi[j1] * wx
    return row0 * (1 - wt) + row1 * wt


@dataclass
class Surface:
    """Certainty equivalent on the grid, together with its spatial gradient."""

    grid: GridSpec
    values: np.ndarray  # (n_time+1, n_space+1); last row = terminal data
    gradient: np.ndarray = field(default=None)
    mode: str = "full"  # "full" | "local" | "protected"
    chi: Optional[np.ndarray] = None          # local mode cutoff on the x nodes
    rate_field: Optional[np.ndarray] = None   # protected mode insurance rate

    def __post_init__(self):
        if self.gradient is None:
            self.gradient = central_gradient(self.values, self.grid.dx)

    def at(self, t: float, x) -> np.ndarray:
        """Bilinear lookup in (t, x), clamped to the grid edges."""
        return bilinear_gather(self.values,
                               bilinear_cell(self.grid.ts, self.grid.xs, t, x))


class _Coeffs:
    """Model coefficients sampled once on the spatial nodes.

    The one place that samples a model on a grid: the marcher, the
    residual and the pricing maps all read their coefficients from here.
    """

    def __init__(self, m: ModelSpec, xs: np.ndarray, alpha: float):
        # grid endpoints may sit on the closure of the open domain
        if np.any(xs < m.domain.lower) or np.any(xs > m.domain.upper):
            raise ValueError("grid leaves the model domain")
        self.xs = xs
        self.b = np.asarray(m.b(xs), dtype=float)
        self.A = np.asarray(m.A(xs), dtype=float)
        self.mu = np.asarray(m.mu(xs), dtype=float)
        self.sig = np.asarray(m.sigma(xs), dtype=float)
        self.gam = np.asarray(m.gamma(xs), dtype=float)
        rho = np.asarray(m.rho(xs), dtype=float)
        if np.any(self.A <= 0) or np.any(self.sig <= 0) or np.any(self.gam <= 0):
            raise ValueError("A, sigma, gamma must be positive on the grid")
        if np.any(np.abs(rho) > 1 + 1e-14):
            raise ValueError("rho must lie in [-1, 1]")
        self.rho = rho
        self.a = np.sqrt(self.A)
        self.s2 = self.sig ** 2
        self.m_ratio = self.mu / self.s2
        self.g_ratio = self.gam / self.s2
        self.log_g_ratio = np.log(self.g_ratio)
        # gradient loading (alpha / sigma) * a * rho
        self.c = alpha * self.a * rho / self.sig
        self.alpha = alpha


def _source_full(coef: _Coeffs, G, Gx, chi):
    """Nonlinear source and its (G, Gx) derivatives for the full/local modes."""
    al = coef.alpha
    xt = coef.m_ratio - coef.c * Gx
    th = theta_of_log(coef.log_g_ratio + xt + al * G)
    bracket = 2.0 * coef.g_ratio + xt * xt - th * th - 2.0 * th
    scale = coef.s2 * chi / (2.0 * al)
    N = -0.5 * al * coef.A * Gx * Gx + scale * bracket
    dG = -coef.s2 * chi * th
    dGx = -al * coef.A * Gx - (coef.s2 * chi / al) * coef.c * (xt - th)
    return N, dG, dGx


def _source_protected(coef: _Coeffs, G, Gx, f_row):
    al = coef.alpha
    xt = (coef.mu - f_row) / coef.s2 - coef.c * Gx
    eg = np.exp(al * G)
    N = (-0.5 * al * coef.A * Gx * Gx
         + (coef.s2 / (2.0 * al)) * (2.0 * coef.g_ratio * (1.0 - eg) + xt * xt))
    dG = -coef.gam * eg
    dGx = -al * coef.A * Gx - (coef.s2 / al) * coef.c * xt
    return N, dG, dGx


def _spatial_operator(coef: _Coeffs, G: np.ndarray, dx: float, chi=None,
                      f_row=None, want_jacobian=True):
    """F(G) = (1/2) A G_xx + b G_x + N(G, G_x), extrapolated at the edges.

    The source N is the protected one when the rate row f_row is given,
    otherwise the full/local one with cutoff chi.  Returns
    (F, (sub, diag, sup)) where the tridiagonal block is dF/dG,
    or (F, None) when want_jacobian is False.
    """
    n = G.shape[0]
    Gx = central_gradient(G, dx)  # dirichlet: edge rows are overwritten
    Gxx = np.zeros(n)
    Gxx[1:-1] = (G[2:] - 2.0 * G[1:-1] + G[:-2]) / (dx * dx)
    # extrapolation: zero second derivative at the edges (Gxx stays 0)

    if f_row is not None:
        N, nG, nGx = _source_protected(coef, G, Gx, f_row)
    else:
        N, nG, nGx = _source_full(coef, G, Gx, chi)

    F = 0.5 * coef.A * Gxx + coef.b * Gx + N
    if not want_jacobian:
        return F, None

    sub = np.zeros(n - 1)
    diag = np.zeros(n)
    sup = np.zeros(n - 1)
    # interior rows
    Ai = coef.A[1:-1]
    bi = coef.b[1:-1]
    diag[1:-1] = -Ai / dx ** 2 + nG[1:-1]
    sub[:-1] = 0.5 * Ai / dx ** 2 - (bi + nGx[1:-1]) / (2.0 * dx)
    sup[1:] = 0.5 * Ai / dx ** 2 + (bi + nGx[1:-1]) / (2.0 * dx)
    # boundary rows: one-sided drift (dirichlet rows are overwritten)
    diag[0] = -(coef.b[0] + nGx[0]) / dx + nG[0]
    sup[0] = (coef.b[0] + nGx[0]) / dx
    diag[-1] = (coef.b[-1] + nGx[-1]) / dx + nG[-1]
    sub[-1] = -(coef.b[-1] + nGx[-1]) / dx
    return F, (sub, diag, sup)


def _weights(scheme: str, dt: float) -> tuple[float, float]:
    """(implicit, explicit) weights of the operator in one time step."""
    if scheme == "crank-nicolson":
        return 0.5 * dt, 0.5 * dt
    return dt, 0.0


def _step_residual(U, G_next, F_U, F_next, w_impl, w_expl, dirichlet):
    R = U - G_next - w_impl * F_U - w_expl * F_next
    if dirichlet:
        R[0] = U[0]
        R[-1] = U[-1]
    return R


def _solve_step(evaluate, G_next: np.ndarray, F_next, U: np.ndarray, ev,
                w_impl: float, w_expl: float, opt: SolverOptions,
                dirichlet: bool, step_index: int):
    """Damped Newton from U, given ev = evaluate(U) or None; returns (U, ev).

    A non-finite residual cannot be reduced, so it raises at once.
    """
    for it in range(opt.newton_max_iter + 1):
        if ev is None:
            ev = evaluate(U)
        F_U, (sub, diag, sup) = ev
        R = _step_residual(U, G_next, F_U, F_next, w_impl, w_expl, dirichlet)
        rnorm = float(np.max(np.abs(R)))
        if rnorm <= opt.newton_tol:
            return U, ev
        if it == opt.newton_max_iter or not np.isfinite(rnorm):
            raise NewtonDivergence(step_index, rnorm)
        jd = 1.0 - w_impl * diag
        jsub = -w_impl * sub
        jsup = -w_impl * sup
        if dirichlet:
            jd[0] = jd[-1] = 1.0
            jsup[0] = 0.0
            jsub[-1] = 0.0
        try:
            delta = backends.tridiag_solve(jsub, jd, jsup, -R)
        except np.linalg.LinAlgError:  # a singular Newton Jacobian
            raise NewtonDivergence(step_index, rnorm) from None
        # damped line search; an accepted trial's evaluation is reused
        s = 1.0
        for _ in range(10):
            trial = U + s * delta
            ev = evaluate(trial)
            R_t = _step_residual(trial, G_next, ev[0], F_next, w_impl, w_expl,
                                 dirichlet)
            if float(np.max(np.abs(R_t))) < rnorm:
                U = trial
                break
            s *= 0.5
        else:
            U = U + s * delta  # a point no trial evaluated
            ev = None


def _march(coef: _Coeffs, grid: GridSpec, terminal: np.ndarray,
           opt: SolverOptions, chi=None, f_surface=None,
           dirichlet: bool = False) -> np.ndarray:
    """Surface values marched backward from the terminal row.

    The source is the protected one if f_surface is given, else the
    full/local one with cutoff chi.  The edges extrapolate, or are held
    at zero if dirichlet.
    """
    w_impl, w_expl = _weights(opt.scheme, grid.dt)

    def evaluator(i):
        f_row = None if f_surface is None else f_surface[i]
        return lambda G: _spatial_operator(coef, G, grid.dx, chi=chi,
                                           f_row=f_row)

    values = np.empty((grid.n_time + 1, grid.n_space + 1))
    values[-1] = terminal
    ev = evaluator(grid.n_time)(values[-1])  # evaluation at values[i + 1]
    for i in range(grid.n_time - 1, -1, -1):
        G_next = values[i + 1]
        F_next = ev[0] if w_expl > 0.0 else 0.0
        U = G_next.copy()
        if dirichlet:
            U[0] = U[-1] = 0.0
        # G_next's evaluation is also the first iterate's, unless the
        # source row changes (protected) or the edge reset changed a bit
        if f_surface is not None or (dirichlet and
                                     U.tobytes() != G_next.tobytes()):
            ev = None
        values[i], ev = _solve_step(evaluator(i), G_next, F_next, U, ev,
                                    w_impl, w_expl, opt, dirichlet,
                                    step_index=i)
    return values


def solve_full(m: ModelSpec, c: ClaimSpec, pref: Preferences, grid: GridSpec,
               opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the full equation backward from G(T, .) = q * phi."""
    xs = grid.xs
    coef = _Coeffs(m, xs, pref.alpha)
    values = _march(coef, grid, c.q * np.asarray(c.phi(xs), dtype=float), opt,
                    chi=np.ones_like(xs))
    return Surface(grid=grid, values=values, mode="full")


def solve_local(m: ModelSpec, c: ClaimSpec, pref: Preferences,
                loc: LocalizationSpec, grid: GridSpec,
                opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the mollified equation on E_n with zero Dirichlet lateral data."""
    if not (np.isclose(grid.x_min, loc.outer[0]) and
            np.isclose(grid.x_max, loc.outer[1])):
        raise ValueError("grid must coincide with the localization interval E_n")
    xs = grid.xs
    coef = _Coeffs(m, xs, pref.alpha)
    chi = np.asarray(loc.chi(xs), dtype=float)
    values = _march(coef, grid, chi * c.q * np.asarray(c.phi(xs), dtype=float),
                    opt, chi=chi, dirichlet=True)
    return Surface(grid=grid, values=values, mode="local", chi=chi)


def solve_protected(m: ModelSpec, pref: Preferences, f_surface: np.ndarray,
                    grid: GridSpec,
                    opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the protected-market equation with terminal value zero.

    f_surface is the insurance rate on the same (time x space) grid.
    """
    f_surface = np.asarray(f_surface, dtype=float)
    if f_surface.shape != (grid.n_time + 1, grid.n_space + 1):
        raise ValueError("rate field not aligned with the grid")
    coef = _Coeffs(m, grid.xs, pref.alpha)
    values = _march(coef, grid, np.zeros(grid.n_space + 1), opt,
                    f_surface=f_surface)
    return Surface(grid=grid, values=values, mode="protected",
                   rate_field=f_surface)


def residual(surface: Surface, m: ModelSpec, pref: Preferences,
             opt: SolverOptions = SolverOptions(),
             rate_field: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete stepping residual of the surface, one row per time step.

    Uses exactly the operators and the closure the stepper drives to
    newton_tol; a converged solve therefore has max-norm residual
    <= 10 * newton_tol.  For protected-mode evaluation of a full-mode
    surface, pass rate_field.
    """
    grid = surface.grid
    values = surface.values
    coef = _Coeffs(m, grid.xs, pref.alpha)
    protected = surface.mode == "protected" or rate_field is not None
    chi = surface.chi if surface.chi is not None else np.ones_like(grid.xs)
    f_field = rate_field if rate_field is not None else surface.rate_field
    dirichlet = surface.mode == "local"
    w_impl, w_expl = _weights(opt.scheme, grid.dt)
    # each row is evaluated once: row i + 1 is also the explicit half of row i
    F = [_spatial_operator(coef, row, grid.dx, chi=chi,
                           f_row=f_field[i] if protected else None,
                           want_jacobian=False)[0]
         for i, row in enumerate(values)]
    out = np.empty((grid.n_time, grid.n_space + 1))
    for i in range(grid.n_time):
        F_next = F[i + 1] if w_expl > 0.0 else 0.0
        out[i] = _step_residual(values[i], values[i + 1], F[i], F_next,
                                w_impl, w_expl, dirichlet)
    return out


def default_grid(m: ModelSpec, pref: Preferences, n_space: int = 200,
                 n_time: int = 200) -> GridSpec:
    """Grid on the model's default truncation interval, ending at the horizon."""
    lo, hi = default_truncation(m)
    return GridSpec(x_min=lo, x_max=hi, n_space=n_space, n_time=n_time,
                    t_end=pref.horizon_T)
