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

The marcher steps a block of surfaces that share a model, a mode and
preferences, laid end to end as segments of one array (a single solve is
a block of one).  Each segment has its own grid, time step and terminal
row: the claims of solve_claims are equal segments, and the CLI's
convergence ladder marches its three grids as one block.  The segments
step in lockstep: each Newton iteration evaluates the operator once and
solves one block-diagonal tridiagonal system on the span from the first
to the last segment still iterating, while each segment keeps its own
convergence test and its own line-search step length, halved until its
own residual falls, and so takes exactly the Newton path it takes
alone.  A block fails as a whole, at the first failure of any segment;
solve_claims then marches the claims one by one to raise the first
failing claim's own error.

The marcher carries the operator evaluation (F, Jacobian) of the
current iterate along, always equal to evaluating it afresh: the last
line-search trial's serves the next Newton iterate, and a converged
row's serves the next step as its explicit half and as its first
iterate, unless the source row changes (protected mode) or the
Dirichlet edge reset changed a bit.  The last trial also passes its
residual to the next convergence test, and the explicit half
w_expl F(G_next) is formed once per step.  Each reuse stands for a
computation on identical inputs, so no value changes.  The residual of
each step at convergence can be recorded: it is the array that
residual() computes afresh.  Each segment says what of it the march
keeps: its leading time rows, all of them or fewer, and whether its
record is filled.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from types import SimpleNamespace
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


# glibc's malloc serves a request of 128 KiB or more (its default mmap
# threshold) from a fresh mmap, which the kernel faults in page by page and
# which free hands back at once.  A row-by-row pass over a surface works
# in blocks whose largest temporary stays below that size, so that each
# block reuses the heap memory of the one before.
_MMAP_THRESHOLD = 128 * 1024


def block_rows(n_cols: int, item_bytes: int) -> int:
    """Rows per block of a pass over rows of n_cols values whose largest
    temporary takes item_bytes per value: the most that keep it below
    glibc's default mmap threshold, with room for malloc's chunk header,
    and at least one.  Float64 maps over 401 nodes take 40 rows."""
    return max(1, (_MMAP_THRESHOLD - 32) // (n_cols * item_bytes))


class Surface:
    """A field on the grid, such as the certainty equivalent, a policy or
    a rate, with its spatial gradient.

    values holds one row per time node, the last the terminal data, or
    only some of the rows.  A march that keeps the first k rows (see
    _Segment) gives a trimmed surface: its nodewise maps are those of
    rows 0..k-1, and at looks up only the t whose time cell lies within
    them, so at(0, x) needs two rows.  rows(start, stop) gives a surface
    for the nodewise maps alone.  The gradient is formed on
    its first read and then kept, so a surface that is only written or
    looked up never holds one; a gradient given to the constructor is
    used as it is.
    """

    def __init__(self, grid: GridSpec, values: np.ndarray,
                 gradient: Optional[np.ndarray] = None, mode: str = "full",
                 chi: Optional[np.ndarray] = None,
                 rate_field: Optional[np.ndarray] = None):
        self.grid = grid
        self.values = values
        self._gradient = gradient
        self.mode = mode  # "full" | "local" | "protected"
        self.chi = chi  # local mode cutoff on the x nodes
        self.rate_field = rate_field  # protected mode insurance rate

    @property
    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            self._gradient = central_gradient(self.values, self.grid.dx)
        return self._gradient

    def rows(self, start: int, stop: int) -> Surface:
        """The time rows start:stop on the same grid, as a field of the
        nodewise maps (mode, chi and rate_field are not carried).  Their
        gradient is the slice of one already formed, or else is formed from
        these rows alone, with the same bits: the gradient is row by row."""
        g = self._gradient
        return Surface(self.grid, self.values[start:stop],
                       None if g is None else g[start:stop])

    def at(self, t: float, x) -> np.ndarray:
        """Bilinear lookup in (t, x), clamped to the grid edges.  It reads
        the two rows of t's time cell; a trimmed surface that does not keep
        both raises ValueError."""
        cell = GridLookup(self.grid.ts, self.grid.xs).cell(t, x)
        if cell[0] + 1 >= len(self.values):
            raise ValueError(f"t = {float(t):g} lies in time cell {cell[0]}, "
                             f"past the {len(self.values)} rows the surface "
                             "keeps")
        return CornerBlock(self.values).gather(cell)


class _Coeffs:
    """Model coefficients sampled once on the spatial nodes.

    The one place that samples a model on a grid: the marcher, the
    residual and the pricing maps all read their coefficients from here.
    Each is a (1, n) row, which broadcasts over the time rows of a
    surface.
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


def _index(positions: list):
    """Ascending node positions as an index: a slice, so views, where they
    are evenly spaced."""
    step = positions[1] - positions[0] if len(positions) > 1 else 1
    if all(b - a == step for a, b in zip(positions, positions[1:])):
        return slice(positions[0], positions[-1] + 1, step)
    return np.array(positions, dtype=np.intp)


class _Span:
    """Segments a, ..., b - 1 of a block, laid end to end.

    at is their nodes in the block and band their entries of a sub- or
    super-diagonal (entry j couples nodes j + 1 and j); below is the
    nodes whose sub-diagonal entries those are.  Relative to the span:
    parts is each segment's nodes, sizes their counts, starts their
    first nodes, lo and hi the first and last node of every segment (lo1
    and hi1 the nodes next to them), and joints the band entries that
    couple two segments (None for one segment).
    """

    def __init__(self, offsets: list, a: int, b: int):
        base = offsets[a]
        self.a, self.b = a, b
        self.at = slice(base, offsets[b])
        self.band = slice(base, offsets[b] - 1)
        self.below = slice(base + 1, offsets[b])
        starts = [o - base for o in offsets[a:b]]
        ends = [o - base - 1 for o in offsets[a + 1:b + 1]]
        self.parts = [slice(s, e + 1) for s, e in zip(starts, ends)]
        self.sizes = [e + 1 - s for s, e in zip(starts, ends)]
        self.starts = np.array(starts, dtype=np.intp)
        self.lo, self.hi = _index(starts), _index(ends)
        self.lo1 = _index([s + 1 for s in starts])
        self.hi1 = _index([e - 1 for e in ends])
        self.edges = self.lo, self.hi
        self.joints = _index(ends[:-1]) if b - a > 1 else None


class _Layout:
    """Segments of the given node counts laid end to end in one block;
    span(a, b) is made once per pair."""

    def __init__(self, sizes: list):
        self.offsets = [0, *itertools.accumulate(sizes)]
        self.count = len(sizes)
        self._spans = {}

    def span(self, a: int, b: int) -> _Span:
        sp = self._spans.get((a, b))
        if sp is None:
            sp = self._spans[a, b] = _Span(self.offsets, a, b)
        return sp


class _Operator:
    """F(G) = (1/2) A G_xx + b G_x + N(G, G_x) on a block of segments laid
    end to end, each on its own grid and extrapolated at its edges, with
    the tridiagonal Jacobian dF/dG.

    parts holds (coefficients, dx, chi) per segment.  The source N is the
    full/local one with cutoff chi, or the protected one (chi None), which
    takes a row of the insurance rate; every segment has the same kind of
    source and the same alpha.  Every coefficient, and dx, is a per-node
    array over the block, so a segment's values are those of its grid
    alone; the products of coefficients that do not depend on G are
    formed once per segment, each exactly as the formulas below group it,
    so no value changes.  A call evaluates the nodes of one span: its
    first and last nodes are edges, and both bands hold a zero coupling
    at each joint, so the block's tridiagonal system is block-diagonal.
    """

    def __init__(self, parts: list):
        coef0, _, chi0 = parts[0]
        self.alpha, self.protected = coef0.alpha, chi0 is None
        self.layout = _Layout([coef.b.size for coef, _, _ in parts])
        rows = [self._rows(coef, dx, chi) for coef, dx, chi in parts]
        self._flat = {k: np.concatenate([r[k] for r in rows])
                      for k in rows[0]}
        self._views = {}

    def _rows(self, coef: _Coeffs, dx: float, chi) -> dict:
        al, A, n = coef.alpha, coef.A[0], coef.b.size
        rows = {"b": coef.b[0], "mu": coef.mu[0], "s2": coef.s2[0],
                "c": coef.c[0], "m_ratio": coef.m_ratio[0],
                "log_g_ratio": coef.log_g_ratio[0],
                "half_A": 0.5 * A,
                "quad": -0.5 * al * A,  # of G_x^2 in N
                "lin": -al * A,         # of G_x in dN/dG_x
                "two_g": 2.0 * coef.g_ratio[0],
                "jac_diag": -A / dx ** 2, "jac_off": 0.5 * A / dx ** 2,
                "dx": np.full(n, dx), "two_dx": np.full(n, 2.0 * dx),
                "dx2": np.full(n, dx * dx)}
        s2, c = rows["s2"], rows["c"]
        if chi is None:
            rows.update(scale=s2 / (2.0 * al), dG=-coef.gam[0],
                        dGx=s2 / al * c)
        else:
            rows.update(scale=s2 * chi / (2.0 * al), dG=-s2 * chi,
                        dGx=s2 * chi / al * c)
        return rows

    def _on(self, sp: _Span) -> SimpleNamespace:
        """The per-node arrays over the nodes of sp, as views."""
        v = self._views.get((sp.a, sp.b))
        if v is None:
            f = {k: a[sp.at] for k, a in self._flat.items()}
            v = self._views[sp.a, sp.b] = SimpleNamespace(
                **f, two_dx_in=f["two_dx"][1:-1], dx2_in=f["dx2"][1:-1],
                dx_lo=f["dx"][sp.lo], dx_hi=f["dx"][sp.hi],
                off_below=f["jac_off"][1:], off_above=f["jac_off"][:-1])
        return v

    def _source(self, c, G, Gx, f_row):
        """Nonlinear source N and its derivatives in G and G_x."""
        al = self.alpha
        if self.protected:
            xt = (c.mu - f_row) / c.s2 - c.c * Gx
            # a trial that overflows is rejected by its residual, not warned of
            with np.errstate(over="ignore", invalid="ignore"):
                eg = np.exp(al * G)
                N = (c.quad * Gx * Gx
                     + c.scale * (c.two_g * (1.0 - eg) + xt * xt))
                return N, c.dG * eg, c.lin * Gx - c.dGx * xt
        xt = c.m_ratio - c.c * Gx
        th = theta_of_log(c.log_g_ratio + xt + al * G)
        bracket = c.two_g + xt * xt - th * th - 2.0 * th
        N = c.quad * Gx * Gx + c.scale * bracket
        return N, c.dG * th, c.lin * Gx - c.dGx * (xt - th)

    def __call__(self, G: np.ndarray, sp: _Span = None, f_row=None,
                 want_jacobian=True):
        """(F, (sub, diag, sup)) on the nodes G of the span sp (the whole
        block by default), or (F, None) when want_jacobian is False."""
        if sp is None:
            sp = self.layout.span(0, self.layout.count)
        c, lo, hi = self._on(sp), sp.lo, sp.hi
        # central in the interior; the cells that straddle two segments
        # are edges, overwritten one-sided (dirichlet: overwritten again)
        Gx = np.empty_like(G)
        Gx[1:-1] = (G[2:] - G[:-2]) / c.two_dx_in
        Gx[lo] = (G[sp.lo1] - G[lo]) / c.dx_lo
        Gx[hi] = (G[hi] - G[sp.hi1]) / c.dx_hi
        # (G[2:] - 2 G[1:-1] + G[:-2]) / dx^2 in place; extrapolation sets
        # a zero second derivative at the edges
        Gxx = np.empty_like(G)
        inner = Gxx[1:-1]
        np.multiply(2.0, G[1:-1], out=inner)
        np.subtract(G[2:], inner, out=inner)
        inner += G[:-2]
        inner /= c.dx2_in
        Gxx[lo] = Gxx[hi] = 0.0
        N, nG, nGx = self._source(c, G, Gx, f_row)
        F = c.half_A * Gxx + c.b * Gx + N
        if not want_jacobian:
            return F, None

        nGx += c.b  # the drift b + dN/dG_x
        # interior nodes; the edge entries are overwritten below
        drift = nGx / c.two_dx
        diag = c.jac_diag + nG
        sub = c.off_below - drift[1:]
        sup = c.off_above + drift[:-1]
        # edge nodes: one-sided drift (dirichlet rows are overwritten)
        lo_v = nGx[lo] / c.dx_lo
        hi_v = nGx[hi] / c.dx_hi
        diag[lo] = nG[lo] - lo_v
        sup[lo] = lo_v
        diag[hi] = hi_v + nG[hi]
        sub[sp.hi1] = -hi_v
        if sp.joints is not None:
            sub[sp.joints] = sup[sp.joints] = 0.0
        return F, (sub, diag, sup)


def _weights(scheme: str, dt: float) -> tuple[float, float]:
    """(implicit, explicit) weights of the operator in one time step."""
    if scheme == "crank-nicolson":
        return 0.5 * dt, 0.5 * dt
    return dt, 0.0


def _step_residual(U, G_next, F_U, expl, w_impl, edges=None):
    """U - G_next - w_impl F(U) - expl, where expl is the explicit half
    w_expl F(G_next) that the caller forms (0.0 for backward Euler).  The
    Dirichlet closure holds U at the nodes of edges = (lo, hi) to zero."""
    R = U - G_next - w_impl * F_U - expl
    if edges is not None:
        for e in edges:
            R[e] = U[e]
    return R


def _solve_step(evaluate, layout: _Layout, G_next: np.ndarray, expl,
                U: np.ndarray, ev: list, w: tuple, opt: SolverOptions,
                dirichlet: bool, steps: list, record=None):
    """Damped Newton on every segment of the block U, in place.

    evaluate(X, sp) evaluates the operator on the nodes X of the span sp.
    expl is the explicit half of the step's residual (see _step_residual)
    and w = (w_impl, -w_impl) the implicit weight on every node.  ev =
    [F, sub, diag, sup] holds the evaluation of U on entry and on exit;
    both are updated in place.  Each segment iterates until its own
    residual converges, with its own line search, as it would alone;
    record, when given, holds per segment an array that receives its
    residual at convergence, or None.
    An iteration evaluates, solves and searches the span from the first
    to the last segment still iterating: a converged segment inside it
    solves the identity and keeps its values.  Segment g's line-search
    trial is U + s_g delta: a segment whose residual falls keeps its step
    length s_g, the others halve theirs, and after ten halvings the
    eleventh trial is taken untested.  Every trial thus evaluates each
    segment at its own point, and the last one is the next iterate: its
    evaluation becomes ev, and its residual serves the next convergence
    test.
    The block fails as a whole, at the first failure of any segment: a
    residual that is not finite (it cannot be reduced) or not converged
    after newton_max_iter iterations, a Jacobian that is not finite or
    singular, and, on several segments, a Newton step that is not finite
    (an overflow reaches the next segment through a zero coupling) raise
    NewtonDivergence with the failing segment s's step number steps[s],
    and an evaluation outside the product-log's domain ThetaDomainError.  On a
    block of one segment that is the segment's own error.  The segment
    bookkeeping is in lists: a block has a handful of segments.
    """
    w_impl, w_neg = w
    rnorm = [0.0] * len(steps)
    todo = list(range(len(steps)))  # segments still iterating, ascending
    sp = layout.span(0, len(steps))

    def residual_of(X, F_X):
        """The residual at X on sp, and each segment's max norm."""
        at = sp.at
        R = _step_residual(X, G_next[at], F_X,
                           expl if isinstance(expl, float) else expl[at],
                           w_impl[at], sp.edges if dirichlet else None)
        return R, np.maximum.reduceat(np.abs(R), sp.starts).tolist()

    R, norms = residual_of(U, ev[0])
    for it in range(opt.newton_max_iter + 1):
        going = []
        for s in todo:
            v = rnorm[s] = norms[s - sp.a]
            if not v <= opt.newton_tol:
                going.append(s)
            elif record is not None and record[s] is not None:
                record[s][...] = R[sp.parts[s - sp.a]]
        if not going:
            return
        if len(going) < len(todo):
            todo = going
            inner = layout.span(todo[0], todo[-1] + 1)
            R = R[inner.at.start - sp.at.start:inner.at.stop - sp.at.start]
            sp = inner
        bad = [s for s in todo if not math.isfinite(rnorm[s])] \
            if it < opt.newton_max_iter else todo
        if bad:
            raise NewtonDivergence(steps[bad[0]], rnorm[bad[0]])
        at, band = sp.at, sp.band
        jd = 1.0 - w_impl[at] * ev[2][at]
        jsub = w_neg[sp.below] * ev[1][band]
        jsup = w_neg[band] * ev[3][band]
        if dirichlet:
            jd[sp.lo] = jd[sp.hi] = 1.0
            jsup[sp.lo] = 0.0
            jsub[sp.hi1] = 0.0
        rhs = -R
        held = []  # the nodes of the converged segments inside sp
        if len(todo) < sp.b - sp.a:
            for s in set(range(sp.a, sp.b)).difference(todo):
                part = sp.parts[s - sp.a]
                inside = slice(part.start, part.stop - 1)
                jd[part], rhs[part] = 1.0, 0.0
                jsub[inside] = jsup[inside] = 0.0
                held.append(part)
        first = todo[0]
        if not (np.isfinite(jd).all() and np.isfinite(jsub).all()
                and np.isfinite(jsup).all()):
            raise NewtonDivergence(steps[first], rnorm[first])
        try:
            delta = backends.tridiag_solve(jsub, jd, jsup, rhs)
        except backends.SingularBlock:
            raise NewtonDivergence(steps[first], rnorm[first]) from None
        if sp.joints is not None and not np.isfinite(delta).all():
            raise NewtonDivergence(steps[first], rnorm[first])
        # damped line search on sp, each segment at its own step length
        # (per node from the first halving); held segments keep their bits,
        # as delta there is a zero of either sign
        base = U[at]
        searching = todo
        lengths, s_node = [1.0] * (sp.b - sp.a), None
        for k in range(11):
            trial = base + (delta if s_node is None else s_node * delta)
            for part in held:
                trial[part] = base[part]
            e = evaluate(trial, sp)
            R, norms = residual_of(trial, e[0])
            searching = [g for g in searching
                         if not norms[g - sp.a] < rnorm[g]]
            if not searching or k == 10:
                break
            for g in searching:
                lengths[g - sp.a] *= 0.5
            s_node = np.repeat(lengths, sp.sizes)
        if sp.b - sp.a == len(steps):
            U[:] = trial
            ev[:] = [e[0], *e[1]]
        else:
            U[at] = trial
            ev[0][at], ev[2][at] = e[0], e[1][1]
            ev[1][band], ev[3][band] = e[1][0], e[1][2]


@dataclass(frozen=True, eq=False)
class _Segment:
    """One surface of a march: its mode and grid, the model coefficients
    on its nodes, its terminal row, and the cutoff chi (full and local
    mode) or the insurance rate on the grid (protected mode).

    It also says what the march keeps of it: rows, the number of leading
    time rows its Surface holds (None keeps all n_time + 1; with fewer the
    surface is trimmed, see Surface), and record, whether the march fills
    its step-residual record.  Neither changes how it is marched.
    """

    mode: str
    grid: GridSpec
    coef: _Coeffs
    terminal: np.ndarray
    chi: Optional[np.ndarray] = None
    rate_field: Optional[np.ndarray] = None
    rows: Optional[int] = None
    record: bool = False

    def __post_init__(self):
        if self.rows is not None and self.rows < 1:
            raise ValueError("a surface keeps at least one time row")

    @property
    def kept(self) -> int:
        """The number of time rows its Surface holds."""
        n = self.grid.n_time + 1
        return n if self.rows is None else min(self.rows, n)

    def surface(self, values: np.ndarray) -> Surface:
        return Surface(grid=self.grid, values=values, mode=self.mode,
                       chi=self.chi if self.mode == "local" else None,
                       rate_field=self.rate_field)


# a trial that overflows fails its residual or Jacobian check, which
# raises NewtonDivergence: it is not warned of
@np.errstate(over="ignore", invalid="ignore")
def _march(segments: list, opt: SolverOptions = SolverOptions()) -> tuple:
    """Segments marched backward in lockstep, as one block laid end to end.

    Returns (surfaces, residuals), in the order of segments: each
    segment's Surface, of the rows it keeps, and, if it records, its
    (n_time, n_space + 1) step residuals at convergence, the array that
    residual returns for its whole surface (else None).  Only what a
    segment keeps is allocated; every row kept has the bits of the whole
    surface's.  The segments share a mode, a model and
    preferences; each has its own grid, time step and terminal row.  The
    block holds them by n_time, descending, and segment s steps on the
    first n_time_s ticks, so the segments that step form a prefix of the
    block.  The edges extrapolate, or are held at zero in local mode.  ev
    always holds the evaluation of the current rows: a tick's first
    iterate is evaluated afresh only when the source rows change
    (protected) or the edge reset changed a bit, and the explicit half
    w_expl F(G_next) is formed once per tick.  The march fails as a
    whole, with the error of the first failing step (see _solve_step).
    """
    order = sorted(range(len(segments)),
                   key=lambda k: -segments[k].grid.n_time)
    segs = [segments[k] for k in order]
    protected = segs[0].mode == "protected"
    # a protected segment has no chi: the operator's protected source
    op = _Operator([(seg.coef, seg.grid.dx, seg.chi) for seg in segs])
    layout = op.layout
    dirichlet = segs[0].mode == "local"
    n_times = [seg.grid.n_time for seg in segs]
    weights = [_weights(opt.scheme, seg.grid.dt) for seg in segs]
    w_impl = np.concatenate([np.full(seg.terminal.size, wi)
                             for seg, (wi, _) in zip(segs, weights)])
    w_neg = -w_impl
    w_expl = np.concatenate([np.full(seg.terminal.size, we)
                             for seg, (_, we) in zip(segs, weights)]) \
        if weights[0][1] > 0.0 else None
    values = [np.empty((seg.kept, seg.terminal.size)) for seg in segs]
    residuals = [np.empty((seg.grid.n_time, seg.terminal.size))
                 if seg.record else None for seg in segs]
    for v, seg in zip(values, segs):
        if len(v) > seg.grid.n_time:
            v[-1] = seg.terminal

    def rates(rows):
        return np.concatenate([seg.rate_field[i]
                               for seg, i in zip(segs, rows)]) \
            if protected else None

    count = len(segs)
    whole = layout.span(0, count)
    G = np.concatenate([seg.terminal for seg in segs])
    # the evaluation at the current rows G
    F, jac = op(G, whole, rates(n_times))
    ev = [F, *jac]
    for tick in range(n_times[0]):
        if n_times[count - 1] <= tick:
            while n_times[count - 1] <= tick:
                count -= 1
            whole = layout.span(0, count)
            G = G[whole.at]
            ev = [ev[0][whole.at], ev[1][whole.band], ev[2][whole.at],
                  ev[3][whole.band]]
        steps = [n - 1 - tick for n in n_times[:count]]
        at = whole.at
        expl = w_expl[at] * ev[0] if w_expl is not None else 0.0
        U = G.copy()
        f_row = rates(steps)

        def evaluate(X, sp, f_row=f_row):
            return op(X, sp, None if f_row is None else f_row[sp.at])

        if dirichlet:
            U[whole.lo] = U[whole.hi] = 0.0
        if protected or dirichlet and (
                U.view(np.uint64) != G.view(np.uint64)).any():
            F, jac = evaluate(U, whole)
            ev = [F, *jac]
        _solve_step(evaluate, layout, G, expl, U, ev,
                    (w_impl[at], w_neg[at]), opt, dirichlet, steps,
                    [None if r is None else r[i]
                     for r, i in zip(residuals, steps)])
        for v, i, part in zip(values, steps, whole.parts):
            if i < len(v):
                v[i] = U[part]
        G = U
    back = sorted(range(len(order)), key=order.__getitem__)
    return ([seg.surface(values[p]) for seg, p in zip(segments, back)],
            [residuals[p] for p in back])


def _full_segment(m: ModelSpec, c: ClaimSpec, pref: Preferences,
                  grid: GridSpec, coef: Optional[_Coeffs] = None) -> _Segment:
    """The full equation from G(T, .) = q * phi on grid."""
    xs = grid.xs
    if coef is None:
        coef = _Coeffs(m, xs, pref.alpha)
    return _Segment("full", grid, coef,
                    c.q * np.asarray(c.phi(xs), dtype=float),
                    chi=np.ones_like(xs))


def _local_segment(m: ModelSpec, c: ClaimSpec, pref: Preferences,
                   loc: LocalizationSpec, grid: GridSpec) -> _Segment:
    """The mollified equation on E_n, grid its interval."""
    if not (np.isclose(grid.x_min, loc.outer[0]) and
            np.isclose(grid.x_max, loc.outer[1])):
        raise ValueError("grid must coincide with the localization interval E_n")
    xs = grid.xs
    chi = np.asarray(loc.chi(xs), dtype=float)
    coef = _Coeffs(m, xs, pref.alpha)
    return _Segment("local", grid, coef,
                    chi * c.q * np.asarray(c.phi(xs), dtype=float), chi=chi)


def _protected_segment(m: ModelSpec, pref: Preferences,
                       f_surface: np.ndarray, grid: GridSpec) -> _Segment:
    """The protected-market equation from zero, with the rate f_surface."""
    f_surface = np.asarray(f_surface, dtype=float)
    if f_surface.shape != (grid.n_time + 1, grid.n_space + 1):
        raise ValueError("rate field not aligned with the grid")
    return _Segment("protected", grid, _Coeffs(m, grid.xs, pref.alpha),
                    np.zeros(grid.n_space + 1), rate_field=f_surface)


def solve_claims(m: ModelSpec, claims: list, pref: Preferences,
                 grid: GridSpec, opt: SolverOptions = SolverOptions(),
                 rows: Optional[int] = None) -> list:
    """Solve the full equation for each claim, all marched as one block.

    Each Surface is bit for bit the one the claim's own solve gives.
    With rows it keeps only the first rows time rows, t = 0 first (see
    Surface): rows = 1 serves the nodewise maps at t = 0, and lookups
    need two.  A block fails as a whole; the claims are then marched one
    by one, in order, so that the error raised is the first failing
    claim's own.
    """
    if not claims:
        raise ValueError("need at least one claim")
    coef = _Coeffs(m, grid.xs, pref.alpha)
    segments = [replace(_full_segment(m, c, pref, grid, coef), rows=rows)
                for c in claims]
    try:
        return _march(segments, opt)[0]
    except (NewtonDivergence, ThetaDomainError) as exc:
        if len(claims) == 1:
            raise
        error = exc
    # the first claim that fails alone raises its own error; the block's
    # is raised only if none does
    for segment in segments:
        _march([segment], opt)
    raise error


def solve_full(m: ModelSpec, c: ClaimSpec, pref: Preferences, grid: GridSpec,
               opt: SolverOptions = SolverOptions(),
               rows: Optional[int] = None) -> Surface:
    """Solve the full equation backward from G(T, .) = q * phi, keeping
    the first rows time rows (all by default; see solve_claims)."""
    return solve_claims(m, [c], pref, grid, opt, rows)[0]


def solve_local(m: ModelSpec, c: ClaimSpec, pref: Preferences,
                loc: LocalizationSpec, grid: GridSpec,
                opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the mollified equation on E_n with zero Dirichlet lateral data."""
    return _march([_local_segment(m, c, pref, loc, grid)], opt)[0][0]


def solve_protected(m: ModelSpec, pref: Preferences, f_surface: np.ndarray,
                    grid: GridSpec,
                    opt: SolverOptions = SolverOptions()) -> Surface:
    """Solve the protected-market equation with terminal value zero.

    f_surface is the insurance rate on the same (time x space) grid.
    """
    return _march([_protected_segment(m, pref, f_surface, grid)], opt)[0][0]


def residual(surface: Surface, m: ModelSpec, pref: Preferences,
             opt: SolverOptions = SolverOptions(),
             rate_field: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete stepping residual of the surface, one row per time step.

    The reference check on a march, independent of it: it evaluates the
    operator row by row, with exactly the operators and the closure the
    stepper drives to newton_tol, so a converged solve has max-norm
    residual <= 10 * newton_tol.  For protected-mode evaluation of a
    full-mode surface, pass rate_field.
    """
    grid = surface.grid
    values = surface.values
    protected = surface.mode == "protected" or rate_field is not None
    chi = surface.chi if surface.chi is not None else np.ones_like(grid.xs)
    f_field = rate_field if rate_field is not None else surface.rate_field
    op = _Operator([(_Coeffs(m, grid.xs, pref.alpha), grid.dx,
                     None if protected else chi)])
    edges = op.layout.span(0, 1).edges if surface.mode == "local" else None
    w_impl, w_expl = _weights(opt.scheme, grid.dt)
    F = [op(row, f_row=f_field[i] if protected else None,
            want_jacobian=False)[0] for i, row in enumerate(values)]
    return np.array([_step_residual(
        values[i], values[i + 1], F[i],
        w_expl * F[i + 1] if w_expl > 0.0 else 0.0, w_impl, edges)
        for i in range(grid.n_time)])


def default_grid(m: ModelSpec, pref: Preferences, n_space: int = 200,
                 n_time: int = 200) -> GridSpec:
    """Grid on the model's default truncation interval, ending at the horizon."""
    lo, hi = default_truncation(m)
    return GridSpec(x_min=lo, x_max=hi, n_space=n_space, n_time=n_time,
                    t_end=pref.horizon_T)
