"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The Monte Carlo battery (criteria 12-13) runs 10 seeds x 1e5 paths x 1000
steps in 20k-path chunks, with a Brownian-coupled step-halved (500-step)
rerun per chunk.  The chunks run two at a time where two CPUs are free
(fork_map, in the test helper module forkmap); each process holds one
chunk's noise (2 x 160 MB), which sets the peak memory.  Run with pytest
-s to see the per-criterion lines.
"""

import numpy as np
import pytest

import defaultable_hjb as dh
from defaultable_hjb import montecarlo as mc
from defaultable_hjb.assumptions import cir_moment_bound
from defaultable_hjb.lambertw import theta, theta_of_log
from defaultable_hjb.pricing import (insurance_rate_h_form,
                                     short_horizon_curve, zero_rate_position)
from forkmap import fork_map
from oracles import mc_cir_weight_probe, pool_estimates, rk4_constant_oracle


def _crit(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n:02d} {name}: {detail}")
    assert ok, f"criterion {n:02d} {name}: {detail}"


def test_criterion_01_parameter_identities():
    sig, mu2, g2, th = 1.2247, 1.3608, 0.4145, 0.06
    vals = (sig ** 2 * th, sig * mu2 * th, np.exp(-sig * g2 * th))
    want = (0.09, 0.10, 0.97)
    ok = all(abs(v - w) <= 1e-3 for v, w in zip(vals, want))
    _crit(1, "parameter-identities", ok,
          f"sigma^2 theta={vals[0]:.5f}, sigma mu2 theta={vals[1]:.5f}, "
          f"exp(-sigma gamma2 theta)={vals[2]:.5f}")


def test_criterion_02_product_log_exactness():
    ys = np.exp(np.random.default_rng(0).uniform(np.log(1e-8), np.log(1e8),
                                                 10_000))
    ws = theta(ys)
    err = np.max(np.abs(ws * np.exp(ws) - ys) / np.maximum(1.0, ys))
    ok = err <= 1e-12 and abs(theta(1.0) - 0.5671432904) <= 1e-9
    _crit(2, "product-log-exactness", ok,
          f"max identity error {err:.3e}, theta(1)={theta(1.0):.12f}")


def test_criterion_03_source_inequality():
    rng = np.random.default_rng(1)
    x = rng.uniform(-20.0, 20.0, 100_000)
    y = np.exp(rng.uniform(np.log(1e-6), np.log(1e4), 100_000))
    w = theta_of_log(np.log(y) + x)
    expr = 2.0 * y + x * x - w * w - 2.0 * w
    min_expr = float(np.min(expr))
    # equality on the diagonal x = y > 0
    yd = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 1000))
    wd = theta_of_log(np.log(yd) + yd)
    diag = float(np.max(np.abs(2.0 * yd + yd * yd - wd * wd - 2.0 * wd)))
    ok = min_expr >= -1e-10 and diag <= 1e-8
    _crit(3, "source-inequality", ok,
          f"min over 1e5 samples {min_expr:.3e}, diagonal residual {diag:.3e}")


def test_criterion_04_constant_coefficient_oracle(constant_model):
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    grid = dh.GridSpec(-5.0, 5.0, 400, 2000)
    G = dh.solve_full(constant_model, dh.zero_claim(), pref, grid)
    oracle = rk4_constant_oracle(2.0, 1.0, 1.0, 1.0, 1.0, 2000)
    dev = float(np.max(np.abs(G.values[0] - oracle)))
    _crit(4, "constant-coefficient-oracle", dev <= 1e-6,
          f"max |PDE - ODE| = {dev:.3e} on 400x2000")


def test_criterion_05_self_convergence(paper_model, paper_pref):
    rows = []
    for n in (50, 100, 200):
        grid = dh.default_grid(paper_model, paper_pref, n, n)
        g = dh.solve_full(paper_model, dh.bond_claim(5.0), paper_pref, grid)
        rows.append(g.values[0])
    xs = dh.default_grid(paper_model, paper_pref, 50, 50).xs
    lo = xs[0] + 0.1 * (xs[-1] - xs[0])
    hi = xs[-1] - 0.1 * (xs[-1] - xs[0])
    mask = (xs >= lo) & (xs <= hi)
    d1 = np.max(np.abs(rows[0][mask] - rows[1][::2][mask]))
    d2 = np.max(np.abs(rows[1][::2][mask] - rows[2][::4][mask]))
    order = float(np.log2(d1 / d2))
    _crit(5, "self-convergence", order >= 1.7,
          f"order {order:.3f} on the interior 80% (diffs {d1:.2e}, {d2:.2e})")


def test_criterion_06_lower_bound(paper_model, paper_pref, G_zero,
                                  bond_surfaces):
    mins = {"full-phi0": float(G_zero.values.min())}
    for q, g in bond_surfaces.items():
        mins[f"full-q{q:g}"] = float(g.values.min())
    loc = dh.build_localization(paper_model, 4)
    lgrid = dh.GridSpec(loc.outer[0], loc.outer[1], 128, 64)
    # backward Euler is monotone, so the discrete minimum principle holds
    # on the steep cutoff terminal data (Crank-Nicolson undershoots there)
    lopt = dh.SolverOptions(scheme="backward-euler")
    mins["local-phi0"] = float(
        dh.solve_local(paper_model, dh.zero_claim(), paper_pref, loc,
                       lgrid, lopt).values.min())
    for q in (1.0, 3.0, 5.0, 10.0):
        g = dh.solve_local(paper_model, dh.bond_claim(q), paper_pref, loc,
                           lgrid, lopt)
        mins[f"local-q{q:g}"] = float(g.values.min())
    grid = dh.default_grid(paper_model, paper_pref, 200, 200)
    G = dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid)
    f = dh.insurance_rate(G, paper_model, paper_pref)
    mins["protected"] = float(
        dh.solve_protected(paper_model, paper_pref, f, grid).values.min())
    # phi in {0, 1} and q > 0: min(0, q inf phi) = 0 in every case
    worst = min(mins.values())
    _crit(6, "lower-bound", worst >= -1e-8,
          f"global min over {len(mins)} solves = {worst:.3e}")


def test_criterion_07_insurance_form_equivalence(paper_model, paper_pref,
                                                 G_zero):
    f = dh.insurance_rate(G_zero, paper_model, paper_pref)
    xs = G_zero.grid.xs
    s2 = np.asarray(paper_model.sigma(xs), dtype=float) ** 2
    gam = np.asarray(paper_model.gamma(xs), dtype=float)
    al = paper_pref.alpha
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    y = (gam / s2) * np.exp(al * G_zero.values)
    f_h = s2 * insurance_rate_h_form(al * pol.values, y)
    rel = float(np.max(np.abs(f - f_h) / np.maximum(np.abs(f), 1e-12)))
    _crit(7, "insurance-form-equivalence", rel <= 1e-10,
          f"max relative gap {rel:.3e} over the grid")


def test_criterion_08_insurance_bounds(paper_model, paper_pref, G_zero):
    f = dh.insurance_rate(G_zero, paper_model, paper_pref)
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    upper, sign_ind = dh.insurance_bounds(G_zero, pol, paper_model,
                                          paper_pref)
    ok_upper = bool(np.all(f <= upper + 1e-8))
    big = np.abs(sign_ind) > 1e-8
    ok_sign = bool(np.all(np.sign(sign_ind[big]) == np.sign(f[big])))
    lo, hi = dh.invariant_band(paper_model)
    mask = (G_zero.grid.xs >= lo) & (G_zero.grid.xs <= hi)
    f0 = f[0, mask]
    gam = np.asarray(paper_model.gamma(G_zero.grid.xs[mask]), dtype=float)
    ok_band = bool(np.all(np.diff(f0) > 0)) and bool(np.all(f0 >= gam))
    _crit(8, "insurance-bounds", ok_upper and ok_sign and ok_band,
          f"f<=upper {ok_upper}, sign match {ok_sign}, band monotone and "
          f">= intensity {ok_band}")


def test_criterion_09_protected_identity(paper_model, paper_pref):
    grid = dh.default_grid(paper_model, paper_pref, 200, 200)
    G = dh.solve_full(paper_model, dh.zero_claim(), paper_pref, grid)
    f = dh.insurance_rate(G, paper_model, paper_pref)
    res = dh.residual(G, paper_model, paper_pref, rate_field=f)
    max_res = float(np.max(np.abs(res)))
    G_d = dh.solve_protected(paper_model, paper_pref, f, grid)
    gap = float(np.max(np.abs(G_d.values - G.values)))
    _crit(9, "protected-identity", max_res <= 1e-7 and gap <= 1e-5,
          f"operator residual {max_res:.3e}, resolve gap {gap:.3e}")


def test_criterion_10_indifference_price_monotonicity(paper_model, paper_pref,
                                                      G_zero, bond_surfaces):
    qs = (1.0, 3.0, 5.0, 10.0)
    prices = {q: dh.indifference_price(bond_surfaces[q], G_zero, q)
              for q in qs}
    lo, hi = dh.invariant_band(paper_model)
    mask = (G_zero.grid.xs >= lo) & (G_zero.grid.xs <= hi)
    ok_q = all(bool(np.all(prices[qs[i]][0] >= prices[qs[i + 1]][0] - 1e-12))
               for i in range(3))
    # the bond price falls as the state (and with it the default intensity)
    # rises; cross-validated against the Monte Carlo oracle at the band
    # edges -- see the repository notes on this criterion
    ok_x = all(bool(np.all(np.diff(prices[q][0, mask]) <= 1e-12))
               for q in qs)
    ok_T = all(bool(np.allclose(prices[q][-1], 1.0, atol=0)) for q in qs)
    _crit(10, "indifference-price-monotonicity", ok_q and ok_x and ok_T,
          f"decreasing in q {ok_q}, monotone (decreasing) in x on band "
          f"{ok_x}, terminal row exactly 1 {ok_T}")


def test_criterion_11_short_horizon_curve():
    ls, curve, upper = short_horizon_curve(y=2.0 / 3.0)
    at_zero = float(curve[np.argmin(np.abs(ls))])
    l0 = zero_rate_position(2.0 / 3.0)
    crossings = np.nonzero(np.diff(np.sign(curve)))[0]
    unique_root = len(crossings) == 1
    below = bool(np.all(curve <= upper + 1e-12))
    strict = ls != 0.0
    strictly_below = bool(np.all(curve[strict] < upper[strict]))
    ok = (abs(at_zero - 2.0 / 3.0) <= 1e-12
          and abs(l0 - (-0.2341)) <= 1e-3 and unique_root
          and below and strictly_below)
    _crit(11, "short-horizon-curve", ok,
          f"value at 0 = {at_zero:.6f}, root {l0:.5f}, unique {unique_root}, "
          f"below upper bound {below and strictly_below}")


# --------------------------------------------------------------------------
# shared Monte Carlo battery for criteria 12 and 13
# --------------------------------------------------------------------------

_N_SEEDS = 10
_CHUNK = 20_000
_CHUNKS_PER_SEED = 5          # 1e5 paths per seed
_N_STEPS = 1000


def _coarsen(noise, horizon):
    """The Brownian-coupled half-resolution noise of a spent noise: each
    pair of steps' increments summed and rescaled to standard normals of
    the doubled step.  The sums are formed in place, in the even rows."""
    cfg = noise.cfg
    dt = horizon / cfg.n_steps
    sq, sqc = np.sqrt(dt), np.sqrt(2.0 * dt)

    def pair(z):
        even, odd = z[0::2], z[1::2]
        even *= sq
        odd *= sq
        even += odd
        even /= sqc
        return even

    coarse = mc.SimConfig(n_paths=cfg.n_paths, n_steps=cfg.n_steps // 2,
                          seed=cfg.seed, x0=cfg.x0)
    return mc.Noise(cfg=coarse, z=pair(noise.z), z0=pair(noise.z0),
                    exp_draws=noise.exp_draws)


@pytest.fixture(scope="module")
def mc_battery(paper_model, paper_pref, G_zero):
    claim = dh.zero_claim()
    pol = dh.Surface(grid=G_zero.grid,
                     values=dh.optimal_policy(G_zero, paper_model,
                                              paper_pref).values)
    pert = dh.Surface(grid=G_zero.grid, values=pol.values + 0.5)

    def chunk(seed_j):
        seed, j = seed_j
        cfg = mc.SimConfig(n_paths=_CHUNK, n_steps=_N_STEPS,
                           seed=seed * 100 + j, x0=0.06)
        noise = mc.draw_noise(cfg)
        # seed 0 also replays the perturbed policy, in the same loop
        fields = [pol, pert] if seed == 0 else [pol]
        opt, *perturbed = mc.simulate_policies(paper_model, noise, 1.0,
                                               fields)
        ce = mc.estimate_certainty_equivalent(opt, claim, paper_pref)
        mc.dual_density_terminal(G_zero, opt, paper_pref)
        mass = mc.estimate_martingale_mass(opt)
        dual = mc.estimate_dual_value(opt, claim, paper_pref)
        (half,) = mc.simulate_policies(paper_model, _coarsen(noise, 1.0),
                                       1.0, [pol])
        ce_half = mc.estimate_certainty_equivalent(half, claim, paper_pref)
        ce_pert = [mc.estimate_certainty_equivalent(bp, claim, paper_pref,
                                                    label="ce-perturbed")
                   for bp in perturbed]
        return ce, ce_half, mass, dual, ce_pert

    # the chunks run two at a time where two CPUs are free, each worker
    # forked after G_zero is solved; the estimates pool in chunk order
    chunks = fork_map(chunk, [(seed, j) for seed in range(_N_SEEDS)
                                 for j in range(_CHUNKS_PER_SEED)])
    ces, ces_half, masses, duals, ces_pert = zip(*chunks)
    ces_pert = [e for per_chunk in ces_pert for e in per_chunk]
    paired = np.array([h.mean - f.mean for h, f in zip(ces_half, ces)])
    return {
        "g0": float(G_zero.at(0.0, np.atleast_1d(0.06))[0]),
        "ce": pool_estimates(ces, label="ce"),
        "ce_half": pool_estimates(ces_half, label="ce-half"),
        "mass": pool_estimates(masses, label="mass"),
        "dual": pool_estimates(duals, label="dual"),
        "ce_pert": pool_estimates(ces_pert, label="ce-perturbed"),
        "paired_se": float(np.std(paired, ddof=1) / np.sqrt(len(paired))),
    }


def test_criterion_12_primal_match(mc_battery):
    g0 = mc_battery["g0"]
    ce, half = mc_battery["ce"], mc_battery["ce_half"]
    gap = abs(ce.mean - g0)
    ok_match = gap <= 3.0 * ce.std_error
    # coupled step-halving: at 500 vs 1000 steps the residual bias is below
    # the Monte Carlo resolution, so "bias shrinks" is certified within the
    # coupled-noise tolerance of the paired comparison
    gap_half = abs(half.mean - g0)
    tol = 3.0 * mc_battery["paired_se"]
    ok_bias = gap <= gap_half + tol
    _crit(12, "mc-primal-match", ok_match and ok_bias,
          f"|CE - G| = {gap:.2e} vs 3 s.e. = {3 * ce.std_error:.2e}; "
          f"halved-step gap {gap_half:.2e} (paired tol {tol:.2e})")


def test_criterion_13_duality(mc_battery):
    g0 = mc_battery["g0"]
    mass, dual, pert = (mc_battery["mass"], mc_battery["dual"],
                        mc_battery["ce_pert"])
    ok_mass = abs(mass.mean - 1.0) <= 3.0 * mass.std_error
    ok_dual = abs(dual.mean - g0) <= 3.0 * dual.std_error
    ok_sub = pert.mean <= g0 + 3.0 * pert.std_error
    _crit(13, "mc-duality", ok_mass and ok_dual and ok_sub,
          f"mass {mass.mean:.5f}+-{mass.std_error:.1e}, dual gap "
          f"{abs(dual.mean - g0):.2e} vs {3 * dual.std_error:.2e}, "
          f"perturbed CE {pert.mean:.5f} <= G={g0:.5f} (+3 s.e.)")


def test_criterion_14_cir_moment_bound():
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    bound, _ = cir_moment_bound(P, 0.0, 1.5625, 0.06, 1.0)
    ests = [mc_cir_weight_probe(P, 0.0, 1.5625, 0.06, 1.0, n_paths=20_000,
                                n_steps=200, seed=s) for s in range(10)]
    pooled = pool_estimates(ests)
    ok = pooled.mean <= bound + 3.0 * pooled.std_error
    _crit(14, "cir-moment-bound", ok,
          f"MC {pooled.mean:.6f}+-{pooled.std_error:.1e} <= bound "
          f"{bound:.6f} (one-sided, 10 seeds)")


def test_criterion_15_assumption_reports(paper_model, paper_pref):
    rep = dh.check_model(paper_model, dh.zero_claim(), paper_pref)
    ok_paper = rep.all_hold
    bad = dh.CIRParams(kappa=0.25, theta_lr=0.06, xi=0.2, mu1=0.0, mu2=1.3608,
                       sigma_scale=1.2247, gamma1=0.0, gamma2=0.4145,
                       rho_const=-0.53)
    rep_bad = dh.check_cir_integrability(bad, paper_pref)
    witness = rep_bad.entry("feller-strict").witness
    ok_bad = rep_bad.any_fail and "-0.005" in witness
    ou = dh.OUParams(b_mr=1.0, mu1=0.2, mu2=0.7, sigma_const=1.0,
                     gamma_const=0.3, rho_const=-0.4)
    ok_ou = dh.check_ou_integrability(ou, paper_pref.horizon_T).all_hold
    _crit(15, "assumption-reports", ok_paper and ok_bad and ok_ou,
          f"paper all-hold {ok_paper}, xi=0.2 fails with witness "
          f"{ok_bad}, OU holds {ok_ou}")
