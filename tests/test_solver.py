import numpy as np
import pytest

import defaultable_hjb as dh
from defaultable_hjb import cli, solver
from defaultable_hjb.lambertw import theta_of_log
from defaultable_hjb.solver import (CornerBlock, GridLookup,
                                    NewtonDivergence, SolverOptions)
from oracles import rk4_constant_oracle


def test_grid_validation():
    with pytest.raises(ValueError):
        dh.GridSpec(1.0, 0.0, 100, 100)
    with pytest.raises(ValueError):
        dh.GridSpec(0.0, 1.0, 4, 100)
    g = dh.GridSpec(0.0, 1.0, 100, 50)
    assert g.dx == pytest.approx(0.01)
    assert g.dt == pytest.approx(0.02)
    assert len(g.xs) == 101 and len(g.ts) == 51


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(scheme="explicit")
    with pytest.raises(ValueError):
        SolverOptions(newton_tol=0.0)


def test_terminal_row_exact(paper_model, paper_pref, paper_grid):
    G = dh.solve_full(paper_model, dh.bond_claim(3.0), paper_pref, paper_grid)
    assert np.array_equal(G.values[-1], 3.0 * np.ones_like(paper_grid.xs))


def test_constant_coefficient_matches_ode_oracle(constant_model):
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    grid = dh.GridSpec(-5.0, 5.0, 100, 400)
    G = dh.solve_full(constant_model, dh.zero_claim(), pref, grid)
    oracle = rk4_constant_oracle(2.0, 1.0, 1.0, 1.0, 1.0, 400)
    assert np.max(np.abs(G.values[0] - oracle)) < 1e-6


def test_local_with_unit_cutoff_equals_dirichlet_full(paper_model, paper_pref):
    # local mode is the full equation with the Dirichlet closure: with a
    # unit cutoff it is the marcher's full-source Dirichlet solve
    loc = dh.build_localization(paper_model, 4)
    grid = dh.GridSpec(loc.outer[0], loc.outer[1], 128, 64)
    claim = dh.bond_claim(1.0)
    unit = dh.LocalizationSpec(
        n_index=loc.n_index, inner=loc.inner, outer=loc.outer,
        chi=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    G_local = dh.solve_local(paper_model, claim, paper_pref, unit, grid)
    xs = grid.xs
    op = solver._Operator(solver._Coeffs(paper_model, xs, paper_pref.alpha),
                          grid.dx, np.ones_like(xs))
    full = solver._march(op, grid, (claim.q * claim.phi(xs))[None],
                         SolverOptions(), dirichlet=True)[0]
    assert np.max(np.abs(G_local.values - full)) <= 1e-10
    # the residual of a local surface uses the same closure
    assert np.max(np.abs(dh.residual(G_local, paper_model,
                                     paper_pref))) <= 1e-9


def test_local_mode_respects_cutoff_terminal(paper_model, paper_pref):
    loc = dh.build_localization(paper_model, 4)
    grid = dh.GridSpec(loc.outer[0], loc.outer[1], 128, 64)
    G = dh.solve_local(paper_model, dh.bond_claim(2.0), paper_pref, loc, grid)
    chi = loc.chi(grid.xs)
    assert np.allclose(G.values[-1], 2.0 * chi)
    assert G.values[0, 0] == 0.0 and G.values[0, -1] == 0.0
    wrong = dh.GridSpec(loc.outer[0] + 0.1, loc.outer[1], 128, 64)
    with pytest.raises(ValueError):
        dh.solve_local(paper_model, dh.bond_claim(2.0), paper_pref, loc, wrong)


def test_residual_small_then_grows_under_perturbation(paper_model, paper_pref,
                                                      G_zero):
    res = dh.residual(G_zero, paper_model, paper_pref)
    base = np.max(np.abs(res))
    assert base <= 1e-9  # 10x the Newton tolerance
    bumped = dh.Surface(grid=G_zero.grid,
                        values=G_zero.values
                        + 1e-3 * np.sin(G_zero.grid.xs * 20.0))
    res2 = dh.residual(bumped, paper_model, paper_pref)
    assert np.max(np.abs(res2)) > 100 * base


def test_self_convergence_order(paper_model, paper_pref):
    vals = []
    for n in (50, 100, 200):
        grid = dh.default_grid(paper_model, paper_pref, n, n)
        g = dh.solve_full(paper_model, dh.bond_claim(5.0), paper_pref, grid)
        vals.append(g)
    xs = vals[0].grid.xs
    lo = xs[0] + 0.1 * (xs[-1] - xs[0])
    hi = xs[-1] - 0.1 * (xs[-1] - xs[0])
    mask = (xs >= lo) & (xs <= hi)
    d1 = np.max(np.abs(vals[0].values[0][mask] - vals[1].values[0][::2][mask]))
    d2 = np.max(np.abs(vals[1].values[0][::2][mask]
                       - vals[2].values[0][::4][mask]))
    assert np.log2(d1 / d2) >= 1.7


def test_newton_divergence_raised(paper_model, paper_pref):
    grid = dh.default_grid(paper_model, paper_pref, 32, 16)
    opt = SolverOptions(newton_max_iter=1, newton_tol=1e-14)
    with pytest.raises(NewtonDivergence):
        dh.solve_full(paper_model, dh.bond_claim(10.0), paper_pref, grid, opt)
    # alpha = 1e5 and q = 1e8 make the Newton Jacobian singular at the
    # first step: a typed failure, not scipy's LinAlgError
    pref = dh.Preferences(alpha=1e5, horizon_T=1.0)
    grid = dh.default_grid(paper_model, pref, 32, 16)
    with pytest.raises(NewtonDivergence) as err:
        dh.solve_full(paper_model, dh.bond_claim(1e8), pref, grid)
    assert 0 <= err.value.step_index < grid.n_time
    assert err.value.residual_norm > SolverOptions().newton_tol


def test_backward_euler_scheme_runs(paper_model, paper_pref):
    grid = dh.default_grid(paper_model, paper_pref, 64, 64)
    g_be = dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid,
                         SolverOptions(scheme="backward-euler"))
    g_cn = dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid)
    # first-order vs second-order scheme: close but not identical
    gap = np.max(np.abs(g_be.values - g_cn.values))
    assert 0 < gap < 1e-3


def test_bilinear_interp_exact_on_bilinear_function():
    ts = np.linspace(0, 1, 5)
    xs = np.linspace(-1, 2, 7)
    vals = 2.0 + 3.0 * ts[:, None] + 0.5 * xs[None, :] \
        - 1.5 * ts[:, None] * xs[None, :]
    for t in (0.0, 0.33, 1.0):
        x = np.array([-1.0, 0.1, 1.9])
        want = 2.0 + 3.0 * t + 0.5 * x - 1.5 * t * x
        got = CornerBlock(vals).gather(GridLookup(ts, xs).cell(t, x))
        assert np.allclose(got, want, rtol=1e-12)
    # clamping outside the grid
    edge = CornerBlock(vals).gather(
        GridLookup(ts, xs).cell(-1.0, np.array([99.0])))
    assert edge[0] == pytest.approx(vals[0, -1])


def _searchsorted_interp(ts, xs, values, t, x):
    """The binary-search lookup that GridLookup's index arithmetic replaces."""
    t = min(max(float(t), ts[0]), ts[-1])
    i = max(min(np.searchsorted(ts, t, side="right") - 1, len(ts) - 2), 0)
    wt = (t - ts[i]) / (ts[i + 1] - ts[i])
    xc = np.clip(x, xs[0], xs[-1])
    j = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, len(xs) - 2)
    wx = (xc - xs[j]) / (xs[j + 1] - xs[j])
    row0 = values[i, j] * (1 - wx) + values[i, j + 1] * wx
    row1 = values[i + 1, j] * (1 - wx) + values[i + 1, j + 1] * wx
    return row0 * (1 - wt) + row1 * wt


def _cli_grids(paper_model, paper_pref):
    """The x grids the CLI builds: cir 200 and 400, local E_4, OU."""
    ou = dh.make_ou_model(dh.OUParams(1.0, 0.0, 1.0, 1.0, 0.5, 0.0))
    loc = dh.build_localization(paper_model, 4)
    return [dh.default_grid(paper_model, paper_pref, 200, 200),
            dh.default_grid(paper_model, paper_pref, 400, 400),
            dh.GridSpec(loc.outer[0], loc.outer[1], 400, 400),
            dh.default_grid(ou, paper_pref, 400, 400)]


def test_bilinear_cell_index_matches_searchsorted(paper_model, paper_pref):
    rng = np.random.default_rng(5)
    for grid in _cli_grids(paper_model, paper_pref):
        xs, ts = grid.xs, grid.ts
        span = xs[-1] - xs[0]
        x = np.concatenate([
            xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
            rng.uniform(xs[0], xs[-1], 50_000),
            rng.uniform(xs[0] - span, xs[0], 100),     # clamped to x_min
            rng.uniform(xs[-1], xs[-1] + span, 100)])  # clamped to x_max
        xc = np.clip(x, xs[0], xs[-1])
        want = np.clip(np.searchsorted(xs, xc, side="right") - 1,
                       0, len(xs) - 2)
        lookup = GridLookup(ts, xs)
        _, _, j, _ = lookup.cell(0.5, x)
        assert np.array_equal(j, want)
        values = rng.standard_normal((len(ts), len(xs)))
        for t in (-1.0, 0.0, 0.3, grid.ts[7], 1.0, 2.0):
            got = CornerBlock(values).gather(lookup.cell(t, x))
            assert got.tobytes() == \
                _searchsorted_interp(ts, xs, values, t, x).tobytes()


@pytest.mark.filterwarnings("error")
def test_bilinear_lookup_of_a_non_finite_factor(paper_model, paper_pref):
    # a NaN x cast to an index would be the most negative one: the lookup
    # gives NaN, with no IndexError or warning, and +-inf the edge values,
    # as the binary search does
    grid = dh.default_grid(paper_model, paper_pref, 64, 64)
    values = np.random.default_rng(9).standard_normal((65, 65))
    surface = dh.Surface(grid=grid, values=values)
    x = np.array([np.nan, np.inf, -np.inf, 0.06])
    for t in (0.0, 0.3, grid.ts[7], 1.0):
        want = _searchsorted_interp(grid.ts, grid.xs, values, t, x)
        assert np.isnan(want[0]) and np.isfinite(want[1:]).all()
        got = CornerBlock(values).gather(
            GridLookup(grid.ts, grid.xs).cell(t, x))
        assert got.tobytes() == want.tobytes()
        assert surface.at(t, x).tobytes() == want.tobytes()
        for xi, wi in zip(x, want):
            assert surface.at(t, np.array([xi])).tobytes() == \
                np.array([wi]).tobytes()


def test_surface_interp_and_csv(tmp_path, G_zero):
    x0 = np.array([0.06])
    v = G_zero.at(0.0, x0)
    assert np.isfinite(v[0])
    cli._write(cli.RunConfig(out_dir=str(tmp_path)), "surface.csv",
               ["alpha = 3"], cli._surface_lines(G_zero))
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "# alpha = 3"
    header = lines[1].split(",")
    assert header[0] == "t" and len(header) == len(G_zero.grid.xs) + 1
    # 17-significant-digit round trip
    row = np.array([float(v) for v in lines[2].split(",")])
    assert row[1:] == pytest.approx(G_zero.values[0], abs=0)


def test_hjb_rhs_pointwise(constant_model):
    # on a constant row G_x = G_xx = 0, so the operator is the source
    # N = (s2/2a)(2 g/s2 + m^2 - th^2 - 2 th), here at G = 0
    th = theta_of_log(np.log(1.0) + 2.0)
    want = 0.5 * (2.0 + 4.0 - th * th - 2 * th)
    grid = dh.GridSpec(-5.0, 5.0, 16, 16)
    xs = grid.xs
    op = solver._Operator(solver._Coeffs(constant_model, xs, 1.0), grid.dx,
                          np.ones_like(xs))
    F, _ = op(np.zeros((1, len(xs))), want_jacobian=False)
    assert F[0] == pytest.approx(np.full_like(xs, want), rel=1e-12)


def test_protected_rejects_misaligned_rate(paper_model, paper_pref,
                                           paper_grid):
    with pytest.raises(ValueError):
        dh.solve_protected(paper_model, paper_pref,
                           np.zeros((3, 3)), paper_grid)


def test_marcher_reuses_operator_evaluations(monkeypatch, paper_model,
                                             paper_pref):
    # Each step needs one product-log evaluation per line-search trial;
    # re-evaluating a known point (explicit half, first iterate, accepted
    # trial) would cost about 6 per step instead of 2.
    grid = dh.default_grid(paper_model, paper_pref, 64, 64)
    G = dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid)
    rate = dh.insurance_rate(G, paper_model, paper_pref)
    calls = []

    def counting(u):
        calls.append(u)
        return theta_of_log(u)

    monkeypatch.setattr(solver, "theta_of_log", counting)
    dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid)
    assert len(calls) <= 2 * grid.n_time + 8
    calls.clear()
    # the protected source goes through exp, never the product-log
    dh.solve_protected(paper_model, paper_pref, rate, grid)
    assert calls == []


def _claims(qs):
    return [dh.zero_claim() if q == 0 else dh.bond_claim(q) for q in qs]


def test_solve_claims_bit_identical_to_solve_full(paper_model, paper_pref):
    grid = dh.default_grid(paper_model, paper_pref, 200, 200)
    claims = _claims((0, 1.0, 3.0, 5.0, 10.0))
    block = dh.solve_claims(paper_model, claims, paper_pref, grid)
    for c, G in zip(claims, block):
        alone = dh.solve_full(paper_model, c, paper_pref, grid)
        assert G.values.tobytes() == alone.values.tobytes()
        assert G.gradient.tobytes() == alone.gradient.tobytes()
    # on a coarse grid a large notional needs its own damped line search
    grid = dh.default_grid(paper_model, paper_pref, 32, 16)
    claims = _claims((0, 3.0, 30.0, 100.0))
    block = dh.solve_claims(paper_model, claims, paper_pref, grid)
    for c, G in zip(claims, block):
        alone = dh.solve_full(paper_model, c, paper_pref, grid)
        assert G.values.tobytes() == alone.values.tobytes()
    ou = dh.make_ou_model(dh.OUParams(1.0, 0.1, 0.5, 1.0, 0.3, 0.2))
    grid = dh.default_grid(ou, paper_pref, 100, 80)
    claims = _claims((2.0, 0, 0.5))
    block = dh.solve_claims(ou, claims, paper_pref, grid)
    for c, G in zip(claims, block):
        alone = dh.solve_full(ou, c, paper_pref, grid)
        assert G.values.tobytes() == alone.values.tobytes()


def _first_failure(m, claims, pref, grid, opt):
    """The error a claim-by-claim solve raises first, and every claim's."""
    errors = []
    for c in claims:
        try:
            dh.solve_full(m, c, pref, grid, opt)
            errors.append(None)
        except NewtonDivergence as exc:
            errors.append(exc)
    return next(e for e in errors if e is not None), errors


# at the rounding floor the claims fail at different steps: with
# tolerance 1e-18 on 32x32 the zero claim fails at step 21, q = 0.001 at
# step 23 and q = 0.01 at the first step, 31; with one Newton iteration
# every claim fails at the first step
@pytest.mark.parametrize("qs, opt", [
    ((0, 0.01), SolverOptions(newton_tol=1e-18)),
    ((0.01, 0), SolverOptions(newton_tol=1e-18)),
    ((0.001, 0, 0.01), SolverOptions(newton_tol=1e-18)),
    ((0, 0.01, 0.1), SolverOptions(newton_tol=1e-17)),
    ((10.0, 0), SolverOptions(newton_tol=1e-14, newton_max_iter=1))])
def test_block_raises_the_first_failing_claims_error(paper_model, paper_pref,
                                                     qs, opt):
    grid = dh.default_grid(paper_model, paper_pref, 32, 32)
    first, errors = _first_failure(paper_model, _claims(qs), paper_pref, grid,
                                   opt)
    with pytest.raises(NewtonDivergence) as err:
        dh.solve_claims(paper_model, _claims(qs), paper_pref, grid, opt)
    assert (err.value.step_index, err.value.residual_norm) == \
        (first.step_index, first.residual_norm)
    if qs == (0, 0.01):
        # row 1 fails first in march order; row 0 marches on past it
        assert errors[1].step_index > errors[0].step_index


def _singular_block(pos):
    """alpha = 1e5 and q = 1e8 make the first step's Jacobian singular;
    the zero claim and q = 0.001 converge.  The singular claim is at pos."""
    pref = dh.Preferences(alpha=1e5, horizon_T=1.0)
    claims = [dh.zero_claim(), dh.bond_claim(1e-3)]
    claims.insert(pos, dh.bond_claim(1e8))
    return claims, pref


@pytest.mark.parametrize("pos", [0, 1, 2], ids=["first", "middle", "last"])
def test_block_with_a_singular_claim(paper_model, pos):
    claims, pref = _singular_block(pos)
    grid = dh.default_grid(paper_model, pref, 32, 16)
    first, errors = _first_failure(paper_model, claims, pref, grid,
                                   SolverOptions())
    assert [e is not None for e in errors] == [i == pos for i in range(3)]
    with pytest.raises(NewtonDivergence) as err:
        dh.solve_claims(paper_model, claims, pref, grid)
    assert (err.value.step_index, err.value.residual_norm) == \
        (first.step_index, first.residual_norm)


def test_a_failing_block_is_re_marched_up_to_the_first_failing_claim(
        monkeypatch, paper_model, paper_pref):
    marched = []
    march = solver._march

    def counting(op, grid, terminal, *args, **kwargs):
        marched.append(len(terminal))
        return march(op, grid, terminal, *args, **kwargs)

    monkeypatch.setattr(solver, "_march", counting)
    grid = dh.default_grid(paper_model, paper_pref, 32, 16)
    dh.solve_claims(paper_model, _claims((0, 1.0, 3.0)), paper_pref, grid)
    assert marched == [3]
    # the block, then claim by claim: the zero claim converges and the
    # singular one fails, so the last claim is not marched
    marched.clear()
    claims, pref = _singular_block(1)
    grid = dh.default_grid(paper_model, pref, 32, 16)
    with pytest.raises(NewtonDivergence):
        dh.solve_claims(paper_model, claims, pref, grid)
    assert marched == [3, 1, 1]


def test_bad_newton_jacobian_rows_fail_the_block():
    # a linear operator F = -G whose Jacobian is tagged by the row's
    # value: 1 -> a NaN diagonal (gtsv reports no zero pivot, and the NaN
    # would reach the row before it through the zero coupling), 2 -> a
    # zero pivot
    n, w = 8, 0.5

    def evaluate(G):
        tag = G[:, :1]
        diag = np.where(tag == 1.0, np.nan, np.where(tag == 2.0, 1.0 / w,
                                                     -1.0)) * np.ones(n)
        zeros = np.zeros((len(G), n - 1))
        return -G, (zeros, diag, zeros)

    def step(tags):
        G_next = np.repeat(np.array(tags)[:, None], n, axis=1)
        U = G_next.copy()
        F, jac = evaluate(U)
        solver._solve_step(evaluate, G_next, 0.0, U, [F, *jac], w, 0.0,
                           SolverOptions(), False, 7)
        return G_next, U

    for tags in ((3.0, 0.0), (0.0, 3.0, -2.0), (5.0,)):
        G_next, U = step(tags)
        # F = -G: each row converges to G_next / (1 + w)
        assert np.allclose(U, G_next / (1.0 + w), rtol=0, atol=1e-12)
    # a bad row alone fails with its own residual, w * tag at the start
    for tag in (1.0, 2.0):
        with pytest.raises(NewtonDivergence) as err:
            step((tag,))
        assert err.value.step_index == 7
        assert err.value.residual_norm == pytest.approx(w * tag)
    # a bad row anywhere in a block fails the block
    for tags in ((0.0, 1.0, 2.0), (0.0, 2.0, 1.0), (3.0, 0.0, 1.0),
                 (3.0, 2.0), (2.0, 3.0), (2.0, 1.0)):
        with pytest.raises(NewtonDivergence) as err:
            step(tags)
        assert err.value.step_index == 7


def test_block_residual_equals_row_by_row(paper_model, paper_pref):
    grid = dh.default_grid(paper_model, paper_pref, 64, 48)
    xs = grid.xs
    G = dh.solve_full(paper_model, dh.bond_claim(3.0), paper_pref, grid)
    rate = dh.insurance_rate(G, paper_model, paper_pref)
    P = dh.solve_protected(paper_model, paper_pref, rate, grid)
    loc = dh.build_localization(paper_model, 4)
    lgrid = dh.GridSpec(loc.outer[0], loc.outer[1], 64, 48)
    L = dh.solve_local(paper_model, dh.bond_claim(2.0), paper_pref, loc, lgrid)
    be = SolverOptions(scheme="backward-euler")
    cases = [(G, SolverOptions(), None), (G, be, None),
             (G, SolverOptions(), rate), (P, SolverOptions(), None),
             (L, SolverOptions(), None)]
    for surface, opt, rate_field in cases:
        g = surface.grid
        chi = surface.chi if surface.chi is not None else np.ones_like(xs)
        f_field = rate_field if rate_field is not None else surface.rate_field
        op = solver._Operator(solver._Coeffs(paper_model, g.xs,
                                             paper_pref.alpha),
                              g.dx, chi if f_field is None else None)
        w_impl, w_expl = solver._weights(opt.scheme, g.dt)
        F = [op(row[None], None if f_field is None else f_field[i],
                want_jacobian=False)[0][0]
             for i, row in enumerate(surface.values)]
        want = [solver._step_residual(
                    surface.values[i], surface.values[i + 1], F[i],
                    F[i + 1] if w_expl > 0.0 else 0.0, w_impl, w_expl,
                    surface.mode == "local")
                for i in range(g.n_time)]
        got = dh.residual(surface, paper_model, paper_pref, opt,
                          rate_field=rate_field)
        assert got.tobytes() == np.array(want).tobytes()


def test_theta_calls_do_not_grow_with_the_block(monkeypatch, paper_model,
                                                paper_pref):
    # one product-log call per line-search round serves every claim; on
    # 200x200 each of these claims alone takes two rounds a step
    grid = dh.default_grid(paper_model, paper_pref, 200, 200)
    calls = []

    def counting(u):
        calls.append(u)
        return theta_of_log(u)

    monkeypatch.setattr(solver, "theta_of_log", counting)
    for qs in ((0,), (0, 1.0, 3.0), (0, 1.0, 3.0, 5.0, 10.0)):
        calls.clear()
        dh.solve_claims(paper_model, _claims(qs), paper_pref, grid)
        assert len(calls) <= 2 * grid.n_time + 8
