import numpy as np
import pytest

import defaultable_hjb as dh
from defaultable_hjb import cli
from defaultable_hjb.montecarlo import (MCEstimate, SimConfig,
                                        dual_density_terminal,
                                        estimate_certainty_equivalent,
                                        estimate_dual_value,
                                        estimate_martingale_mass,
                                        replay_policies, simulate_default,
                                        simulate_factor)
from oracles import (mc_exponential_functional, pool_estimates,
                     simulate_dual_density)


def _const_intensity_model(c=0.5, mu=1.0, sigma=1.0, rho=0.0):
    def const(v):
        return lambda x: v * np.ones_like(np.asarray(x, dtype=float))

    return dh.make_custom_model(dh.Domain1D(-8.0, 8.0), b=const(0.0),
                                A=const(1.0), mu=const(mu), sigma=const(sigma),
                                rho=const(rho), gamma=const(c))


def _zero_policy(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=0, n_steps=10, seed=0, x0=0.06)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=0, seed=0, x0=0.06)


def test_factor_validation(paper_model):
    cfg = SimConfig(n_paths=10, n_steps=10, seed=0, x0=0.06)
    with pytest.raises(ValueError):
        simulate_factor(paper_model, cfg, horizon=0.0)
    bad = SimConfig(n_paths=10, n_steps=10, seed=0, x0=-1.0)
    with pytest.raises(ValueError):
        simulate_factor(paper_model, bad, horizon=1.0)


def test_determinism_bit_identical(paper_model):
    cfg = SimConfig(n_paths=500, n_steps=50, seed=123, x0=0.06)
    b1 = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    b2 = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    assert np.array_equal(b1.x, b2.x)
    assert np.array_equal(b1.delta, b2.delta)
    cfg2 = SimConfig(n_paths=500, n_steps=50, seed=124, x0=0.06)
    b3 = simulate_factor(paper_model, cfg2, 1.0)
    assert not np.array_equal(b1.x, b3.x)


def test_ou_marginal_moments_exact_scheme():
    ou = dh.make_ou_model(dh.OUParams(b_mr=2.0, mu1=0, mu2=1, sigma_const=1,
                                      gamma_const=1, rho_const=0))
    cfg = SimConfig(n_paths=40000, n_steps=8, seed=5, x0=1.0)
    b = simulate_factor(ou, cfg, 1.0)
    # the exact scheme has no time-discretization bias even with 8 steps
    mean, var = np.exp(-2.0), (1 - np.exp(-4.0)) / 4.0
    se = np.sqrt(var / cfg.n_paths)
    assert np.mean(b.x[:, -1]) == pytest.approx(mean, abs=4 * se)
    assert np.var(b.x[:, -1]) == pytest.approx(var, rel=0.05)
    # the paths are the transition recursion driven by the stored dW
    decay = np.exp(-2.0 * b.dt)
    for k in range(cfg.n_steps):
        assert np.array_equal(b.x[:, k + 1], decay * b.x[:, k] + b.dW[:, k])
    # b = 0: Brownian motion, decay 1 and increments of s.d. sqrt(dt)
    bm = dh.make_ou_model(dh.OUParams(b_mr=0.0, mu1=0, mu2=1, sigma_const=1,
                                      gamma_const=1, rho_const=0))
    b0 = simulate_factor(bm, SimConfig(n_paths=1000, n_steps=8, seed=5,
                                       x0=1.0), 1.0)
    z = np.random.Generator(np.random.Philox(5)).standard_normal((1000, 8))
    assert np.array_equal(b0.dW, np.sqrt(b0.dt) * z)
    for k in range(8):
        assert np.array_equal(b0.x[:, k + 1], 1.0 * b0.x[:, k] + b0.dW[:, k])


def test_cir_marginal_mean(paper_model):
    cfg = SimConfig(n_paths=40000, n_steps=400, seed=7, x0=0.06)
    b = simulate_factor(paper_model, cfg, 1.0)
    want = 0.06  # x0 = theta: the mean is stationary
    sd = np.std(b.x[:, -1])
    assert np.mean(b.x[:, -1]) == pytest.approx(
        want, abs=4 * sd / np.sqrt(cfg.n_paths))
    assert np.all(b.x >= 0)


def test_single_step_simulation(paper_model):
    cfg = SimConfig(n_paths=16, n_steps=1, seed=0, x0=0.06)
    b = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    assert b.x.shape == (16, 2) and b.delta.shape == (16,)


def test_survival_probability_constant_intensity():
    m = _const_intensity_model(c=0.5)
    cfg = SimConfig(n_paths=50000, n_steps=20, seed=11, x0=0.0)
    b = simulate_default(m, simulate_factor(m, cfg, 1.0))
    p = np.mean(b.survived(1.0))
    want = np.exp(-0.5)
    se = np.sqrt(want * (1 - want) / cfg.n_paths)
    assert p == pytest.approx(want, abs=4 * se)
    # crossing times are exact for piecewise-constant intensity
    hit = np.isfinite(b.delta)
    assert np.allclose(b.delta[hit], b.exp_draws[hit] / 0.5, atol=1e-12)


def test_wealth_jump_and_freeze_at_default():
    m = _const_intensity_model(c=2.0, mu=1.5)
    cfg = SimConfig(n_paths=4000, n_steps=25, seed=3, x0=0.0)
    b = simulate_default(m, simulate_factor(m, cfg, 1.0))
    pi0 = 0.7
    (b,) = replay_policies(m, [lambda t, x: pi0 * np.ones_like(x)], b,
                           dh.Preferences(alpha=1.0, horizon_T=1.0))
    ds = b.default_step
    defaulted = ds < cfg.n_steps
    assert defaulted.any()
    for i in np.nonzero(defaulted)[0][:50]:
        k = ds[i]
        part = b.delta[i] - b.ts[k]
        want = pi0 * 1.5 * part - pi0
        assert b.wealth[i, k + 1] - b.wealth[i, k] == pytest.approx(
            want, abs=1e-12)
        # frozen afterwards
        assert np.all(b.wealth[i, k + 1:] == b.wealth[i, k + 1])


def test_zero_policy_gives_zero_certainty_equivalent(paper_model, paper_pref):
    cfg = SimConfig(n_paths=2000, n_steps=50, seed=2, x0=0.06)
    b = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    (b,) = replay_policies(paper_model, [_zero_policy], b, paper_pref)
    est = estimate_certainty_equivalent(b, dh.zero_claim(), paper_pref)
    assert est.mean == pytest.approx(0.0, abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)


def test_two_point_bond_oracle():
    # pi = 0, constant intensity c, unit bond: payoff is 1 with prob e^{-cT}
    c, al = 0.8, 2.0
    m = _const_intensity_model(c=c)
    pref = dh.Preferences(alpha=al, horizon_T=1.0)
    cfg = SimConfig(n_paths=60000, n_steps=30, seed=17, x0=0.0)
    b = simulate_default(m, simulate_factor(m, cfg, 1.0))
    (b,) = replay_policies(m, [_zero_policy], b, pref)
    est = estimate_certainty_equivalent(b, dh.bond_claim(1.0), pref)
    p = np.exp(-c)
    want = -np.log(p * np.exp(-al) + 1.0 - p) / al
    assert est.mean == pytest.approx(want, abs=3 * est.std_error)
    assert est.std_error < 2e-3


def test_protected_wealth_has_no_jump():
    m = _const_intensity_model(c=2.0, mu=1.5, sigma=0.3)
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    cfg = SimConfig(n_paths=2000, n_steps=25, seed=9, x0=0.0)
    b = simulate_default(m, simulate_factor(m, cfg, 1.0))
    f_field = lambda t, x: 2.5 * np.ones_like(x)
    (b,) = replay_policies(m, [lambda t, x: np.ones_like(x)], b, pref,
                           rate_field=f_field)
    assert b.protected
    # increments stay of diffusion size: no -pi jump anywhere
    inc = np.diff(b.wealth, axis=1)
    dt = b.dt
    bound = abs(1.5 - 2.0 - 2.5) * dt + 0.3 * 6 * np.sqrt(dt)
    assert np.max(np.abs(inc)) < bound
    est = estimate_certainty_equivalent(b, dh.bond_claim(5.0), pref)
    assert np.isfinite(est.mean)  # claim ignored when protected


def test_dual_density_initial_mass_and_match(paper_model, paper_pref, G_zero):
    cfg = SimConfig(n_paths=8000, n_steps=200, seed=21, x0=0.06)
    b = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    pol = dh.Surface(grid=G_zero.grid,
                     values=dh.optimal_policy(G_zero, paper_model,
                                              paper_pref).values)
    (b,) = replay_policies(paper_model, [pol], b, paper_pref)
    zhat_expform = simulate_dual_density(paper_model, G_zero, pol, b,
                                         paper_pref)
    assert np.allclose(b.zhat[:, 0], 1.0, atol=1e-12)
    assert np.allclose(zhat_expform[:, 0], 1.0)
    mass = estimate_martingale_mass(b)
    assert mass.mean == pytest.approx(1.0, abs=4 * mass.std_error)
    ce = estimate_certainty_equivalent(b, dh.zero_claim(), paper_pref)
    g0 = float(G_zero.at(0.0, np.atleast_1d(0.06))[0])
    assert ce.mean == pytest.approx(g0, abs=4 * ce.std_error + 2e-3)
    dual = estimate_dual_value(b, dh.zero_claim(), paper_pref)
    assert dual.mean == pytest.approx(g0, abs=4 * dual.std_error + 2e-3)


def test_dual_expform_gap_shrinks_with_steps(paper_model, paper_pref, G_zero):
    pol = dh.Surface(grid=G_zero.grid,
                     values=dh.optimal_policy(G_zero, paper_model,
                                              paper_pref).values)
    gaps = []
    for n_steps in (50, 200):
        cfg = SimConfig(n_paths=3000, n_steps=n_steps, seed=31, x0=0.06)
        b = simulate_default(paper_model,
                             simulate_factor(paper_model, cfg, 1.0))
        (b,) = replay_policies(paper_model, [pol], b, paper_pref)
        zhat_expform = simulate_dual_density(paper_model, G_zero, pol, b,
                                             paper_pref)
        gaps.append(np.mean(np.abs(b.zhat[:, -1] - zhat_expform[:, -1])))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-3


def test_replay_policies_match_separate_replays(paper_model, paper_pref,
                                                G_zero):
    # one loop over one bundle gives each policy the wealth that its own
    # replay on a freshly simulated bundle of the same seed gives
    pol = dh.Surface(grid=G_zero.grid,
                     values=dh.optimal_policy(G_zero, paper_model,
                                              paper_pref).values)
    pert = dh.Surface(grid=G_zero.grid, values=pol.values + 0.5)
    rate = dh.Surface(grid=G_zero.grid,
                      values=dh.insurance_rate(G_zero, paper_model,
                                               paper_pref))
    cfg = SimConfig(n_paths=2000, n_steps=60, seed=8, x0=0.06)

    def fresh():
        return simulate_default(paper_model,
                                simulate_factor(paper_model, cfg, 1.0))

    fields = [pol, pert, lambda t, x: 0.4 + t * x]
    for kw in ({}, {"rate_field": rate}):
        shared = fresh()
        replayed = replay_policies(paper_model, fields, shared, paper_pref,
                                   **kw)
        assert shared.wealth is None and len(replayed) == len(fields)
        for f, b in zip(fields, replayed):
            (want,) = replay_policies(paper_model, [f], fresh(), paper_pref,
                                      **kw)
            assert b.x is shared.x and b.protected == bool(kw)
            assert want.protected == bool(kw)
            assert np.array_equal(b.wealth[:, -1], want.wealth[:, -1])
            assert np.array_equal(b.wealth, want.wealth)


@pytest.mark.parametrize("n_steps", [49, 200])
def test_dual_density_terminal_is_last_closed_form_column(
        paper_model, paper_pref, G_zero, n_steps):
    # 49 steps: the last simulation time falls one ulp short of T = 1
    pol = dh.Surface(grid=G_zero.grid,
                     values=dh.optimal_policy(G_zero, paper_model,
                                              paper_pref).values)
    cfg = SimConfig(n_paths=2000, n_steps=n_steps, seed=13, x0=0.06)
    b = simulate_default(paper_model, simulate_factor(paper_model, cfg, 1.0))
    (b,) = replay_policies(paper_model, [pol], b, paper_pref)
    simulate_dual_density(paper_model, G_zero, pol, b, paper_pref)
    full = b.zhat[:, -1].copy()
    dual_density_terminal(G_zero, b, paper_pref)
    assert b.zhat.shape == (cfg.n_paths, 1)
    assert b.zhat[:, -1].tobytes() == full.tobytes()


def test_estimate_guards(paper_model, paper_pref):
    cfg = SimConfig(n_paths=10, n_steps=5, seed=0, x0=0.06)
    b = simulate_factor(paper_model, cfg, 1.0)
    with pytest.raises(ValueError):
        replay_policies(paper_model, [_zero_policy], b, paper_pref)
    simulate_default(paper_model, b)
    with pytest.raises(ValueError):
        estimate_certainty_equivalent(b, dh.zero_claim(), paper_pref)
    (b,) = replay_policies(paper_model, [_zero_policy], b, paper_pref)
    with pytest.raises(ValueError):
        estimate_dual_value(b, dh.zero_claim(), paper_pref)


def test_pool_estimates_math():
    es = [MCEstimate(mean=1.0, std_error=0.2, n_paths=100),
          MCEstimate(mean=3.0, std_error=0.2, n_paths=100)]
    p = pool_estimates(es)
    assert p.mean == pytest.approx(2.0)
    assert p.std_error == pytest.approx(np.sqrt(0.08) / 2)
    assert p.n_paths == 200
    with pytest.raises(ValueError):
        pool_estimates([])


def test_mc_exponential_functional_deterministic_weight():
    # zero diffusion, weight = 1: E[exp(int 1 dt)] = e^T exactly
    est = mc_exponential_functional(lambda x: 0.0 * x, lambda x: 0.0 * x,
                                    lambda x: np.ones_like(x), x0=1.0, T=2.0,
                                    n_paths=8, n_steps=64, seed=0)
    assert est.mean == pytest.approx(np.exp(2.0), rel=1e-12)
    assert est.note == ""


def test_mc_exponential_functional_flags_explosion():
    est = mc_exponential_functional(lambda x: x ** 2 + 10.0,
                                    lambda x: 0.0 * x,
                                    lambda x: np.zeros_like(x), x0=1e6,
                                    T=1.0, n_paths=4, n_steps=50, seed=0)
    assert est.note == "explosion"


def test_estimates_to_csv(tmp_path):
    # estimates go out through the CLI writer
    est = MCEstimate(mean=0.5, std_error=0.01, n_paths=10, label="ce")
    cli._write(cli.RunConfig(out_dir=str(tmp_path)), "est.csv",
               ["paths = 10"], cli._estimate_lines([est], seed=42))
    lines = (tmp_path / "est.csv").read_text().splitlines()
    assert lines[0] == "# paths = 10"
    assert lines[1] == "label,mean,std_error,n_paths,seed"
    assert lines[2] == "ce,0.5,0.01,10,42"
