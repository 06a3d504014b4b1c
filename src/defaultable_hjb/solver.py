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

The marcher steps a block of k surfaces that share a model, grid and
preferences (a single solve is a block of one): each Newton iterate
evaluates the operator once and solves one block-diagonal system for
every surface still iterating, while each surface keeps its own
convergence test and line search, and so takes exactly the Newton path
it takes alone.  A block fails as a whole, at the first failure of any
surface; solve_claims then marches the claims one by one to raise the
first failing claim's own error.

The marcher carries the operator evaluation (F, Jacobian) of the
current iterate along, always equal to evaluating it afresh: an
accepted line-search trial's serves the next Newton iterate, and a
converged row's serves the next step as its explicit half and as its
first iterate, unless the source row changes (protected mode) or the
Dirichlet edge reset changed a bit.  A trial that every row still
iterating accepts also passes its residual to the next convergence
test, and the explicit half w_expl F(G_next) is formed once per step.
Each reuse stands for a computation on identical inputs, so no value
changes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import backends
from .lambertw import ThetaDomainError, theta_of_log
from .model import (ClaimSpec, LocalizationSpec, ModelError, ModelSpec,
                    Preferences, default_truncation)


class NewtonDivergence(RuntimeError):
    """Newton failed to converge at a time step (grid too coarse/too wide)."""

    def __init__(self, step_index: int, residual_norm: float):
        self.step_index = step_index
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton diverged at time step {step_index}: "
            f"residual {residual_norm:.3e}")

    def __reduce__(self):
        # rebuilt from the __init__ arguments, so that it pickles
        return type(self), (self.step_index, self.residual_norm)


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
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        if not (isinstance(self.newton_max_iter, numbers.Integral)
                and self.newton_max_iter >= 1):
            raise ValueError("newton_max_iter must be an integer >= 1")
        if self.scheme not in ("crank-nicolson", "backward-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def central_gradient(values: np.ndarray, dx: float) -> np.ndarray:
    """Row-wise spatial gradient: central in the interior, one-sided at edges."""
    grad = np.empty_like(values)
    grad[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    grad[..., 0] = (values[..., 1] - values[..., 0]) / dx
    grad[..., -1] = (values[..., -1] - values[..., -2]) / dx
    return grad


class GridLookup:
    """Cells of bilinear lookups in (t, x) on one grid, clamped to its
    edges.  It holds two O(nx) tables of the x cells, each read with one
    take: (xs[j], xs[j+1]), with +inf for xs[j+1] in the last cell, for
    the index correction, and (xs[j], xs[j+1] - xs[j]) for the weight.
    """

    def __init__(self, ts: np.ndarray, xs: np.ndarray):
        self.ts = ts
        self.x_min, self.x_max = xs[0], xs[-1]
        self.last = len(xs) - 2
        self.dx = (xs[-1] - xs[0]) / (self.last + 1)
        self.bounds = np.column_stack([xs[:-1], np.append(xs[1:-1], np.inf)])
        self.spans = np.column_stack([xs[:-1], np.diff(xs)])

    def cell(self, t: float, x) -> tuple:
        """(i, (1 - wt, wt), j, (1 - wx, wx)): the time cell i with the
        weights of ts[i] and ts[i + 1], and per x the cell j with the
        weights of xs[j] and xs[j + 1].

        j is floor((x - x_min) / dx), corrected where x lies within
        rounding of a node, so that it equals clip(searchsorted(xs, x,
        side="right") - 1, 0, len(xs) - 2) exactly.  np.fmin caps it at
        the last cell before the cast and sends a NaN x there, with a NaN
        weight: a NaN cast to an index would be the most negative one.
        """
        ts = self.ts
        t = min(max(float(t), ts[0]), ts[-1])
        i = max(min(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2), 0)
        wt = (t - ts[i]) / (ts[i + 1] - ts[i])
        # np.clip's ordering: a tie keeps x, so -0.0 stays -0.0
        xc = np.minimum(self.x_max, np.maximum(self.x_min,
                                               np.asarray(x, dtype=float)))
        j = np.fmin((xc - self.x_min) / self.dx, self.last).astype(np.intp)
        lo, hi = self.bounds.take(j, axis=0).T
        down, up = lo > xc, hi <= xc
        if down.any():
            j -= down
        if up.any():
            j += up
        node, span = self.spans.take(j, axis=0).T
        wx = (xc - node) / span
        return i, (1 - wt, wt), j, (1 - wx, wx)


class CornerBlock:
    """Bilinear values of one surface at cells of a GridLookup on its grid.

    It keeps the (nx, 4) corner block of the time cell i it read last, row
    j holding values[i, j], values[i, j+1], values[i+1, j] and
    values[i+1, j+1], and rebuilds it only when i changes.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.i = None
        self.block = None

    def gather(self, cell: tuple) -> np.ndarray:
        i, (vt, wt), j, (vx, wx) = cell
        if i != self.i:
            v = self.values
            self.block = np.column_stack([v[i, :-1], v[i, 1:],
                                          v[i + 1, :-1], v[i + 1, 1:]])
            self.i = i
        c = self.block.take(j, axis=0)
        # (c0 vx + c1 wx) vt + (c2 vx + c3 wx) wt, in place, in this order
        row0 = c[..., 0] * vx
        row0 += c[..., 1] * wx
        row0 *= vt
        row1 = c[..., 2] * vx
        row1 += c[..., 3] * wx
        row1 *= wt
        row0 += row1
        return row0


@dataclass
class Surface:
    """A field on the grid, such as the certainty equivalent, a policy or
    a rate, together with its spatial gradient."""

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
        cell = GridLookup(self.grid.ts, self.grid.xs).cell(t, x)
        return CornerBlock(self.values).gather(cell)


class _Coeffs:
    """Model coefficients sampled once on the spatial nodes.

    The one place that samples a model on a grid: the marcher, the
    residual and the pricing maps all read their coefficients from here.
    Each is a (1, n) row, which broadcasts over a block of surface rows;
    on a block of one the operands have one shape, which numpy handles
    without the set-up of a broadcast.
    """

    def __init__(self, m: ModelSpec, xs: np.ndarray, alpha: float):
        # grid endpoints may sit on the closure of the open domain
        if np.any(xs < m.domain.lower) or np.any(xs > m.domain.upper):
            raise ValueError("grid leaves the model domain")

        def row(f):
            return np.asarray(f(xs), dtype=float).reshape(1, -1)

        # values that overflow are reported once, below, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            self.b = row(m.b)
            self.A = row(m.A)
            self.mu = row(m.mu)
            self.sig = row(m.sigma)
            self.gam = row(m.gamma)
            rho = row(m.rho)
            if np.any(self.A <= 0) or np.any(self.sig <= 0) \
                    or np.any(self.gam <= 0):
                raise ModelError("A, sigma, gamma must be positive on the grid")
            if np.any(np.abs(rho) > 1 + 1e-14):
                raise ModelError("rho must lie in [-1, 1]")
            self.rho = rho
            self.a = np.sqrt(self.A)
            self.s2 = self.sig ** 2
            self.m_ratio = self.mu / self.s2
            self.g_ratio = self.gam / self.s2
            self.log_g_ratio = np.log(self.g_ratio)
            # gradient loading (alpha / sigma) * a * rho
            self.c = alpha * self.a * rho / self.sig
            # the source squares mu / sigma^2 (its value at a zero gradient)
            m_ratio_sq = self.m_ratio * self.m_ratio
        for name, v in (("b", self.b), ("A", self.A), ("mu", self.mu),
                        ("sigma", self.sig), ("gamma", self.gam),
                        ("rho", rho), ("sigma^2", self.s2),
                        ("gamma / sigma^2", self.g_ratio),
                        ("(mu / sigma^2)^2", m_ratio_sq),
                        ("alpha a rho / sigma", self.c)):
            if not np.isfinite(v).all():
                raise ModelError(f"the model's {name} is not a finite double "
                                 "on every grid node")
        self.alpha = alpha


class _Operator:
    """F(G) = (1/2) A G_xx + b G_x + N(G, G_x) on a grid, extrapolated at
    the edges, with its tridiagonal Jacobian dF/dG.

    G holds one surface row per row of a (k, n) block.  The source N is the
    full/local one with cutoff chi, or the protected one (chi None), which
    takes a row of the insurance rate.  The products of coefficients that
    do not depend on G are formed once, each exactly as the formulas below
    group it, so no value changes.
    """

    def __init__(self, coef: _Coeffs, dx: float, chi=None):
        al = coef.alpha
        self.coef, self.dx, self.protected = coef, dx, chi is None
        self.half_A = 0.5 * coef.A
        self.quad = -0.5 * al * coef.A  # of G_x^2 in N
        self.lin = -al * coef.A         # of G_x in dN/dG_x
        self.two_g = 2.0 * coef.g_ratio
        if self.protected:
            self.scale = coef.s2 / (2.0 * al)
            self.dG = -coef.gam
            self.dGx = coef.s2 / al * coef.c
        else:
            self.scale = coef.s2 * chi / (2.0 * al)
            self.dG = -coef.s2 * chi
            self.dGx = coef.s2 * chi / al * coef.c
        Ai = coef.A[:, 1:-1]
        self.jac_diag = -Ai / dx ** 2
        self.jac_off = 0.5 * Ai / dx ** 2

    def _source(self, G, Gx, f_row):
        """Nonlinear source N and its derivatives in G and G_x."""
        coef = self.coef
        if self.protected:
            xt = (coef.mu - f_row) / coef.s2 - coef.c * Gx
            # a trial that overflows is rejected by its residual, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                eg = np.exp(coef.alpha * G)
                N = (self.quad * Gx * Gx
                     + self.scale * (self.two_g * (1.0 - eg) + xt * xt))
                return N, self.dG * eg, self.lin * Gx - self.dGx * xt
        xt = coef.m_ratio - coef.c * Gx
        th = theta_of_log(coef.log_g_ratio + xt + coef.alpha * G)
        bracket = self.two_g + xt * xt - th * th - 2.0 * th
        N = self.quad * Gx * Gx + self.scale * bracket
        return N, self.dG * th, self.lin * Gx - self.dGx * (xt - th)

    def __call__(self, G: np.ndarray, f_row=None, want_jacobian=True):
        """(F, (sub, diag, sup)), or (F, None) when want_jacobian is False."""
        dx, coef = self.dx, self.coef
        Gx = central_gradient(G, dx)  # dirichlet: edge rows are overwritten
        # (G[2:] - 2 G[1:-1] + G[:-2]) / dx^2 in place over the rows laid
        # end to end; the cells that straddle two rows are the edges, where
        # extrapolation sets a zero second derivative
        Gxx = np.empty_like(G, order="C")
        flat, inner = G.reshape(-1), Gxx.reshape(-1)[1:-1]
        np.multiply(2.0, flat[1:-1], out=inner)
        np.subtract(flat[2:], inner, out=inner)
        inner += flat[:-2]
        inner /= dx * dx
        Gxx[:, 0] = Gxx[:, -1] = 0.0
        N, nG, nGx = self._source(G, Gx, f_row)
        F = self.half_A * Gxx + coef.b * Gx + N
        if not want_jacobian:
            return F, None

        k, n = G.shape
        # every entry of the bands is written below
        sub = np.empty((k, n - 1))
        diag = np.empty_like(G)
        sup = np.empty_like(sub)
        nGx += coef.b  # the drift b + dN/dG_x
        # interior rows
        drift = nGx[:, 1:-1] / (2.0 * dx)
        diag[:, 1:-1] = self.jac_diag + nG[:, 1:-1]
        sub[:, :-1] = self.jac_off - drift
        sup[:, 1:] = self.jac_off + drift
        # boundary rows: one-sided drift (dirichlet rows are overwritten)
        lo = nGx[:, 0] / dx
        hi = nGx[:, -1] / dx
        diag[:, 0] = nG[:, 0] - lo
        sup[:, 0] = lo
        diag[:, -1] = hi + nG[:, -1]
        sub[:, -1] = -hi
        return F, (sub, diag, sup)


def _weights(scheme: str, dt: float) -> tuple[float, float]:
    """(implicit, explicit) weights of the operator in one time step."""
    if scheme == "crank-nicolson":
        return 0.5 * dt, 0.5 * dt
    return dt, 0.0


def _step_residual(U, G_next, F_U, expl, w_impl, dirichlet):
    """U - G_next - w_impl F(U) - expl, where expl is the explicit half
    w_expl F(G_next) that the caller forms (0.0 for backward Euler)."""
    R = U - G_next - w_impl * F_U - expl
    if dirichlet:
        R[..., 0] = U[..., 0]
        R[..., -1] = U[..., -1]
    return R


def _rows(rows: list):
    """Ascending row numbers as an index: a slice, so views, where they
    are contiguous."""
    if rows and rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


def _solve_step(evaluate, G_next: np.ndarray, expl, U: np.ndarray,
                ev: list, w_impl: float, opt: SolverOptions,
                dirichlet: bool, step_index: int):
    """Damped Newton on every row of the block U, in place.

    expl is the explicit half of the step's residual (see _step_residual).
    ev = [F, sub, diag, sup] holds evaluate(U) on entry and on exit; both
    are updated in place, and a line search that accepts no trial
    evaluates the point it steps to at once.  A trial that every row
    still iterating accepts is their next iterate: its residual serves
    the next convergence test, and when those rows are the whole block
    its evaluation becomes ev.  Each row iterates until its own residual
    converges, with its own line search, as it would alone.
    The block fails as a whole, at the first failure of any row: a residual
    that is not finite (it cannot be reduced) or not converged after
    newton_max_iter iterations, a Jacobian that is not finite or singular
    raise NewtonDivergence, and an evaluation outside the product-log's
    domain ThetaDomainError.  On a block of one row that is the row's own
    error.  The row bookkeeping is in lists: a block has a handful of rows.
    """
    rnorm = [0.0] * len(U)
    todo = list(range(len(U)))  # rows still iterating, ascending
    kept = None  # (R, norms) of the accepted trial that is U[todo]

    def residual_of(at, X, F_X):
        return _step_residual(X, G_next[at], F_X,
                              expl if isinstance(expl, float) else expl[at],
                              w_impl, dirichlet)

    def max_norms(R):
        return np.maximum.reduce(np.abs(R), axis=1).tolist()

    def store(rows, e, pick=slice(None)):
        at = _rows(rows)
        ev[0][at] = e[0][pick]
        for a, b in zip(ev[1:], e[1]):
            a[at] = b[pick]

    for it in range(opt.newton_max_iter + 1):
        t = _rows(todo)
        if kept is None:
            R = residual_of(t, U[t], ev[0][t])
            norms = max_norms(R)
        else:
            (R, norms), kept = kept, None
        going = []
        for pos, (r, v) in enumerate(zip(todo, norms)):
            rnorm[r] = v
            if not v <= opt.newton_tol:
                going.append(pos)
        if len(going) < len(todo):
            todo, R = [todo[pos] for pos in going], R[_rows(going)]
        if not todo:
            return
        bad = [r for r in todo if not math.isfinite(rnorm[r])] \
            if it < opt.newton_max_iter else todo
        if bad:
            raise NewtonDivergence(step_index, rnorm[bad[0]])
        t = _rows(todo)
        jd = 1.0 - w_impl * ev[2][t]
        jsub = -w_impl * ev[1][t]
        jsup = -w_impl * ev[3][t]
        if dirichlet:
            jd[:, 0] = jd[:, -1] = 1.0
            jsup[:, 0] = 0.0
            jsub[:, -1] = 0.0
        if not (np.isfinite(jd).all() and np.isfinite(jsub).all()
                and np.isfinite(jsup).all()):
            raise NewtonDivergence(step_index, rnorm[todo[0]])
        try:
            delta = backends.tridiag_solve(jsub, jd, jsup, -R)
        except backends.SingularBlock:
            raise NewtonDivergence(step_index, rnorm[todo[0]]) from None
        # damped line search; an accepted trial's evaluation is reused
        pend = list(range(len(todo)))  # positions in todo still searching
        rows, at = todo, t
        s = 1.0
        for _ in range(10):
            step = delta[_rows(pend)]
            trial = U[at] + (step if s == 1.0 else s * step)
            e = evaluate(trial)
            R = residual_of(at, trial, e[0])
            norms = max_norms(R)
            ok = [i for i, (r, v) in enumerate(zip(rows, norms))
                  if v < rnorm[r]]
            if len(ok) == len(rows):
                U[at] = trial
                if rows is todo:
                    kept = R, norms
                if rows is todo and len(todo) == len(U):
                    ev[:] = [e[0], *e[1]]
                else:
                    store(rows, e)
                break
            if ok:
                U[_rows([rows[i] for i in ok])] = trial[_rows(ok)]
                store([rows[i] for i in ok], e, _rows(ok))
                pend = [pos for i, pos in enumerate(pend) if i not in ok]
                rows = [todo[pos] for pos in pend]
                at = _rows(rows)
            s *= 0.5
        else:
            # a point no trial evaluated
            U[at] = U[at] + s * delta[_rows(pend)]
            store(rows, evaluate(U[at]))


def _march(op: _Operator, grid: GridSpec, terminal: np.ndarray,
           opt: SolverOptions, f_surface=None,
           dirichlet: bool = False) -> np.ndarray:
    """Surfaces marched backward from the terminal rows, as one block.

    terminal is (k, n_space + 1), one row per surface; returns the
    (k, n_time + 1, n_space + 1) values.  A protected operator takes its
    rate rows from f_surface.  The edges extrapolate, or are held at zero
    if dirichlet.  ev always holds the evaluation of the current rows: a
    step's first iterate is evaluated afresh only when the source row
    changes (protected) or the edge reset changed a bit.  The march fails
    as a whole, with the error of the first failing step (see
    _solve_step).
    """
    k, n = terminal.shape
    w_impl, w_expl = _weights(opt.scheme, grid.dt)

    def evaluator(i):
        f_row = None if f_surface is None else f_surface[i]
        return lambda G: op(G, f_row)

    values = np.empty((k, grid.n_time + 1, n))
    values[:, -1] = terminal
    # the evaluation at values[:, i + 1]
    F, jac = evaluator(grid.n_time)(values[:, -1])
    ev = [F, *jac]
    for i in range(grid.n_time - 1, -1, -1):
        G_next = values[:, i + 1]
        expl = w_expl * ev[0] if w_expl > 0.0 else 0.0
        U = G_next.copy()
        evaluate = evaluator(i)
        if dirichlet:
            U[:, 0] = U[:, -1] = 0.0
        if f_surface is not None or dirichlet and (
                U.view(np.uint64) != G_next.view(np.uint64)).any():
            F, jac = evaluate(U)
            ev = [F, *jac]
        _solve_step(evaluate, G_next, expl, U, ev, w_impl, opt, dirichlet, i)
        values[:, i] = U
    return values


def solve_claims(m: ModelSpec, claims: list, pref: Preferences,
                 grid: GridSpec, opt: SolverOptions = SolverOptions()
                 ) -> list:
    """Solve the full equation for each claim, all marched as one block.

    Each Surface is bit for bit the one the claim's own solve gives.  A
    block fails as a whole; the claims are then marched one by one, in
    order, so that the error raised is the first failing claim's own.
    """
    if not claims:
        raise ValueError("need at least one claim")
    xs = grid.xs
    op = _Operator(_Coeffs(m, xs, pref.alpha), grid.dx, np.ones_like(xs))
    terminal = np.array([c.q * np.asarray(c.phi(xs), dtype=float)
                         for c in claims])
    try:
        values = _march(op, grid, terminal, opt)
    except (NewtonDivergence, ThetaDomainError) as exc:
        if len(claims) == 1:
            raise
        error = exc
    else:
        return [Surface(grid=grid, values=v, mode="full") for v in values]
    # the first claim that fails alone raises its own error; the block's
    # is raised only if none does
    for row in terminal:
        _march(op, grid, row[None], opt)
    raise error


def solve_full(m: ModelSpec, c: ClaimSpec, pref: Preferences, grid: GridSpec,
               opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the full equation backward from G(T, .) = q * phi."""
    return solve_claims(m, [c], pref, grid, opt)[0]


def solve_local(m: ModelSpec, c: ClaimSpec, pref: Preferences,
                loc: LocalizationSpec, grid: GridSpec,
                opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the mollified equation on E_n with zero Dirichlet lateral data."""
    if not (np.isclose(grid.x_min, loc.outer[0]) and
            np.isclose(grid.x_max, loc.outer[1])):
        raise ValueError("grid must coincide with the localization interval E_n")
    xs = grid.xs
    chi = np.asarray(loc.chi(xs), dtype=float)
    op = _Operator(_Coeffs(m, xs, pref.alpha), grid.dx, chi)
    terminal = chi * c.q * np.asarray(c.phi(xs), dtype=float)
    values = _march(op, grid, terminal[None], opt, dirichlet=True)[0]
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
    op = _Operator(_Coeffs(m, grid.xs, pref.alpha), grid.dx)
    values = _march(op, grid, np.zeros((1, grid.n_space + 1)), opt,
                    f_surface=f_surface)[0]
    return Surface(grid=grid, values=values, mode="protected",
                   rate_field=f_surface)


# time rows per operator evaluation of residual: blocks this size keep the
# temporaries in cache (a whole 401-row surface at once is twice as slow
# and holds about 20 MB of temporaries)
_RESIDUAL_ROWS = 32


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
    protected = surface.mode == "protected" or rate_field is not None
    chi = surface.chi if surface.chi is not None else np.ones_like(grid.xs)
    f_field = rate_field if rate_field is not None else surface.rate_field
    op = _Operator(_Coeffs(m, grid.xs, pref.alpha), grid.dx,
                   None if protected else chi)
    dirichlet = surface.mode == "local"
    w_impl, w_expl = _weights(opt.scheme, grid.dt)
    # the time nodes are evaluated as blocks of rows (each row once: row
    # i + 1 is also the explicit half of row i)
    F = np.empty_like(values)
    for a in range(0, len(values), _RESIDUAL_ROWS):
        rows = slice(a, a + _RESIDUAL_ROWS)
        F[rows] = op(values[rows], f_field[rows] if protected else None,
                     want_jacobian=False)[0]
    # and so are the steps, whose temporaries then stay block-sized
    U, G_next, F_U, F_next = values[:-1], values[1:], F[:-1], F[1:]
    R = np.empty_like(U)
    for a in range(0, len(R), _RESIDUAL_ROWS):
        rows = slice(a, a + _RESIDUAL_ROWS)
        expl = w_expl * F_next[rows] if w_expl > 0.0 else 0.0
        R[rows] = _step_residual(U[rows], G_next[rows], F_U[rows], expl,
                                 w_impl, dirichlet)
    return R


def default_grid(m: ModelSpec, pref: Preferences, n_space: int = 200,
                 n_time: int = 200) -> GridSpec:
    """Grid on the model's default truncation interval, ending at the horizon."""
    lo, hi = default_truncation(m)
    return GridSpec(x_min=lo, x_max=hi, n_space=n_space, n_time=n_time,
                    t_end=pref.horizon_T)
