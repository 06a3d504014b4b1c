import dataclasses
import os
import pickle
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import defaultable_hjb as dh
from defaultable_hjb import cli
from defaultable_hjb import montecarlo as mc
from defaultable_hjb.montecarlo import (MCEstimate, Noise, SimConfig,
                                        draw_noise, dual_density_terminal,
                                        estimate_certainty_equivalent,
                                        estimate_dual_value,
                                        estimate_martingale_mass,
                                        simulate_policies)
from forkmap import fork_map
from oracles import (cir_paths, crossing_times, mc_exponential_functional,
                     ou_paths, pool_estimates, replay_policies,
                     simulate_default, simulate_dual_density,
                     simulate_factor)


def _const_intensity_model(c=0.5, mu=1.0, sigma=1.0, rho=0.0):
    def const(v):
        return lambda x: v * np.ones_like(np.asarray(x, dtype=float))

    return dh.make_custom_model(dh.Domain1D(-8.0, 8.0), b=const(0.0),
                                A=const(1.0), mu=const(mu), sigma=const(sigma),
                                rho=const(rho), gamma=const(c))


def _zero_policy(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _simulate(m, cfg, horizon, fields, **kw):
    return simulate_policies(m, draw_noise(cfg), horizon, fields, **kw)


def _pipeline(m, cfg, horizon, fields, pref, **kw):
    """The reference: the three-stage pipeline of tests/oracles.py."""
    b = simulate_default(m, simulate_factor(m, cfg, horizon))
    return b, replay_policies(m, fields, b, pref, **kw)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=0, n_steps=10, seed=0, x0=0.06)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=0, seed=0, x0=0.06)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, n_steps=10, seed=-1, x0=0.06)


def test_factor_validation(paper_model):
    cfg = SimConfig(n_paths=10, n_steps=4, seed=0, x0=0.06)
    noise = draw_noise(cfg)
    with pytest.raises(ValueError):
        simulate_policies(paper_model, noise, 0.0, [_zero_policy])
    bad = SimConfig(n_paths=10, n_steps=10, seed=0, x0=-1.0)
    with pytest.raises(ValueError):
        simulate_policies(paper_model, draw_noise(bad), 1.0, [_zero_policy])
    # the noise must have the shape its SimConfig names
    with pytest.raises(ValueError):
        Noise(cfg=cfg, z=noise.z[:3], z0=noise.z0, exp_draws=noise.exp_draws)
    with pytest.raises(ValueError):
        Noise(cfg=cfg, z=noise.z, z0=noise.z0.T.copy(),
              exp_draws=noise.exp_draws)
    with pytest.raises(ValueError):
        Noise(cfg=cfg, z=noise.z, z0=noise.z0, exp_draws=noise.exp_draws[:9])


@pytest.mark.parametrize("n_paths, n_steps, block", [
    (33, 10, 64),    # one path per quarter block
    (33, 10, 256),   # 6 paths per quarter block, the last one ragged
    (5, 100, 64),    # a path longer than a block: one path per draw
    (1, 1, 1 << 17),
    (300, 49, 1 << 17),
])
def test_draw_noise_reads_the_stream_path_by_path(monkeypatch, n_paths,
                                                  n_steps, block):
    # the stream of one (n_paths, n_steps) draw of each noise, then the
    # uniforms, whatever the block the draw is split into; the helper
    # that reads it is gone when the draw returns
    monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
    cfg = SimConfig(n_paths=n_paths, n_steps=n_steps, seed=9, x0=0.0)
    threads = threading.active_count()
    noise = draw_noise(cfg)
    assert threading.active_count() == threads
    rng = np.random.Generator(np.random.Philox(9))
    z = rng.standard_normal((n_paths, n_steps))
    z0 = rng.standard_normal((n_paths, n_steps))
    u = rng.random(n_paths)
    assert noise.z.shape == noise.z0.shape == (n_steps, n_paths)
    assert np.array_equal(noise.z, z.T) and np.array_equal(noise.z0, z0.T)
    assert np.array_equal(noise.exp_draws, -np.log1p(-u))
    assert np.all(noise.exp_draws > 0)


class _CountingGenerator(np.random.Generator):
    """A Generator whose draw number `bad` of normals raises, or returns
    a block one step too long, which the caller cannot store."""

    drawn = []
    bad, fails = 0, True

    def standard_normal(self, size=None, **kwargs):
        k = len(self.drawn)
        self.drawn.append(k)
        if k == self.bad and self.fails:
            raise ValueError("no normals today")
        if k == self.bad:
            size = (size[0], size[1] + 1)
        return super().standard_normal(size, **kwargs)


@pytest.mark.parametrize("bad", [0, 2])
@pytest.mark.parametrize("fails", [True, False], ids=["helper", "caller"])
def test_a_failed_draw_raises_and_leaves_no_thread(monkeypatch, bad, fails):
    # an error of the helper is raised by draw_noise, and one of the
    # caller's stores stops the helper after one more block at most; of
    # the 800 quarter blocks, at most bad + 3 are read
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    monkeypatch.setattr(_CountingGenerator, "drawn", [])
    monkeypatch.setattr(_CountingGenerator, "bad", bad)
    monkeypatch.setattr(_CountingGenerator, "fails", fails)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    threads = threading.active_count()
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.0)
    with pytest.raises(ValueError,
                       match="no normals" if fails else "broadcast"):
        draw_noise(cfg)
    assert threading.active_count() == threads
    assert bad + 1 <= len(_CountingGenerator.drawn) <= bad + 3


def test_a_draw_left_without_waiting_stops_its_helper(monkeypatch):
    # a caller that leaves the with block (verify's solve failed) while the
    # helper waits to hand over its second block stops it there: of the
    # 800 quarter blocks, two are read
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    monkeypatch.setattr(_CountingGenerator, "drawn", [])
    monkeypatch.setattr(_CountingGenerator, "bad", -1)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    threads = threading.active_count()
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.0)
    with pytest.raises(KeyError):
        with mc.NoiseDraw(cfg) as draw:
            deadline = time.monotonic() + 10
            while len(_CountingGenerator.drawn) < 2 \
                    and time.monotonic() < deadline:
                time.sleep(1e-3)
            raise KeyError("the solve failed")
    assert not draw._helper.is_alive()
    assert threading.active_count() == threads
    assert len(_CountingGenerator.drawn) == 2


def test_determinism_bit_identical(paper_model):
    cfg = SimConfig(n_paths=500, n_steps=50, seed=123, x0=0.06)
    (b1,) = _simulate(paper_model, cfg, 1.0, [lambda t, x: 0.3 + x])
    (b2,) = _simulate(paper_model, cfg, 1.0, [lambda t, x: 0.3 + x])
    for name in ("x_T", "delta", "w_T"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))
    cfg2 = SimConfig(n_paths=500, n_steps=50, seed=124, x0=0.06)
    (b3,) = _simulate(paper_model, cfg2, 1.0, [lambda t, x: 0.3 + x])
    assert not np.array_equal(b1.x_T, b3.x_T)


def test_ou_marginal_moments_exact_scheme(paper_pref):
    ou = dh.make_ou_model(dh.OUParams(b_mr=2.0, mu1=0, mu2=1, sigma_const=1,
                                      gamma_const=1, rho_const=0))
    cfg = SimConfig(n_paths=40000, n_steps=8, seed=5, x0=1.0)
    (b,) = _simulate(ou, cfg, 1.0, [_zero_policy])
    # the exact scheme has no time-discretization bias even with 8 steps
    mean, var = np.exp(-2.0), (1 - np.exp(-4.0)) / 4.0
    se = np.sqrt(var / cfg.n_paths)
    assert np.mean(b.x_T) == pytest.approx(mean, abs=4 * se)
    assert np.var(b.x_T) == pytest.approx(var, rel=0.05)
    # the reference paths are the transition recursion driven by their dW,
    # and the one loop ends where they end
    ref = simulate_factor(ou, cfg, 1.0)
    decay = np.exp(-2.0 * ref.dt)
    for k in range(cfg.n_steps):
        assert np.array_equal(ref.x[:, k + 1],
                              decay * ref.x[:, k] + ref.dW[:, k])
    assert np.array_equal(b.x_T, ref.x[:, -1])
    # b = 0: Brownian motion, decay 1 and increments of s.d. sqrt(dt)
    bm = dh.make_ou_model(dh.OUParams(b_mr=0.0, mu1=0, mu2=1, sigma_const=1,
                                      gamma_const=1, rho_const=0))
    cfg0 = SimConfig(n_paths=1000, n_steps=8, seed=5, x0=1.0)
    b0 = simulate_factor(bm, cfg0, 1.0)
    z = np.random.Generator(np.random.Philox(5)).standard_normal((1000, 8))
    assert np.array_equal(b0.dW, np.sqrt(b0.dt) * z)
    for k in range(8):
        assert np.array_equal(b0.x[:, k + 1], 1.0 * b0.x[:, k] + b0.dW[:, k])
    (f0,) = _simulate(bm, cfg0, 1.0, [_zero_policy])
    assert np.array_equal(f0.x_T, b0.x[:, -1])


def test_cir_marginal_mean(paper_model):
    cfg = SimConfig(n_paths=40000, n_steps=400, seed=7, x0=0.06)
    (b,) = _simulate(paper_model, cfg, 1.0, [_zero_policy])
    want = 0.06  # x0 = theta: the mean is stationary
    sd = np.std(b.x_T)
    assert np.mean(b.x_T) == pytest.approx(
        want, abs=4 * sd / np.sqrt(cfg.n_paths))
    assert np.all(b.x_T >= 0)


def test_single_step_simulation(paper_model):
    cfg = SimConfig(n_paths=16, n_steps=1, seed=0, x0=0.06)
    (b,) = _simulate(paper_model, cfg, 1.0, [_zero_policy])
    assert b.x_T.shape == b.delta.shape == b.w_T.shape == (16,)
    assert b.t_end == 1.0


def test_survival_probability_constant_intensity():
    m = _const_intensity_model(c=0.5)
    cfg = SimConfig(n_paths=50000, n_steps=20, seed=11, x0=0.0)
    noise = draw_noise(cfg)
    (b,) = simulate_policies(m, noise, 1.0, [_zero_policy])
    p = np.mean(b.survived(1.0))
    want = np.exp(-0.5)
    se = np.sqrt(want * (1 - want) / cfg.n_paths)
    assert p == pytest.approx(want, abs=4 * se)
    # crossing times are exact for piecewise-constant intensity
    hit = np.isfinite(b.delta)
    assert np.allclose(b.delta[hit], noise.exp_draws[hit] / 0.5, atol=1e-12)


def test_wealth_jump_and_freeze_at_default():
    m = _const_intensity_model(c=2.0, mu=1.5)
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    cfg = SimConfig(n_paths=4000, n_steps=25, seed=3, x0=0.0)
    pi0 = 0.7
    policy = [lambda t, x: pi0 * np.ones_like(x)]
    # the jump and the freeze, along the reference trajectories
    ref, (rb,) = _pipeline(m, cfg, 1.0, policy, pref)
    ds = ref.default_step
    defaulted = ds < cfg.n_steps
    assert defaulted.any()
    for i in np.nonzero(defaulted)[0][:50]:
        k = ds[i]
        part = ref.delta[i] - ref.ts[k]
        want = pi0 * 1.5 * part - pi0
        assert rb.wealth[i, k + 1] - rb.wealth[i, k] == pytest.approx(
            want, abs=1e-12)
        # frozen afterwards
        assert np.all(rb.wealth[i, k + 1:] == rb.wealth[i, k + 1])
    # and the one loop ends with that wealth
    (b,) = _simulate(m, cfg, 1.0, policy)
    assert np.array_equal(b.w_T, rb.wealth[:, -1])
    assert np.array_equal(b.delta, ref.delta)


def test_zero_policy_gives_zero_certainty_equivalent(paper_model, paper_pref):
    cfg = SimConfig(n_paths=2000, n_steps=50, seed=2, x0=0.06)
    (b,) = _simulate(paper_model, cfg, 1.0, [_zero_policy])
    est = estimate_certainty_equivalent(b, dh.zero_claim(), paper_pref)
    assert est.mean == pytest.approx(0.0, abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)


def test_two_point_bond_oracle():
    # pi = 0, constant intensity c, unit bond: payoff is 1 with prob e^{-cT}
    c, al = 0.8, 2.0
    m = _const_intensity_model(c=c)
    pref = dh.Preferences(alpha=al, horizon_T=1.0)
    cfg = SimConfig(n_paths=60000, n_steps=30, seed=17, x0=0.0)
    (b,) = _simulate(m, cfg, 1.0, [_zero_policy])
    est = estimate_certainty_equivalent(b, dh.bond_claim(1.0), pref)
    p = np.exp(-c)
    want = -np.log(p * np.exp(-al) + 1.0 - p) / al
    assert est.mean == pytest.approx(want, abs=3 * est.std_error)
    assert est.std_error < 2e-3


def test_protected_wealth_has_no_jump():
    m = _const_intensity_model(c=2.0, mu=1.5, sigma=0.3)
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    cfg = SimConfig(n_paths=2000, n_steps=25, seed=9, x0=0.0)
    f_field = lambda t, x: 2.5 * np.ones_like(x)
    policy = [lambda t, x: np.ones_like(x)]
    _, (rb,) = _pipeline(m, cfg, 1.0, policy, pref, rate_field=f_field)
    assert rb.protected
    # increments stay of diffusion size: no -pi jump anywhere
    inc = np.diff(rb.wealth, axis=1)
    dt = rb.dt
    bound = abs(1.5 - 2.0 - 2.5) * dt + 0.3 * 6 * np.sqrt(dt)
    assert np.max(np.abs(inc)) < bound
    (b,) = _simulate(m, cfg, 1.0, policy, rate_field=f_field)
    assert b.protected and np.array_equal(b.w_T, rb.wealth[:, -1])
    est = estimate_certainty_equivalent(b, dh.bond_claim(5.0), pref)
    assert np.isfinite(est.mean)  # claim ignored when protected


def test_dual_density_initial_mass_and_match(paper_model, paper_pref, G_zero):
    cfg = SimConfig(n_paths=8000, n_steps=200, seed=21, x0=0.06)
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    _, (rb,) = _pipeline(paper_model, cfg, 1.0, [pol], paper_pref)
    zhat_expform = simulate_dual_density(paper_model, G_zero, pol, rb,
                                         paper_pref)
    assert np.allclose(rb.zhat[:, 0], 1.0, atol=1e-12)
    assert np.allclose(zhat_expform[:, 0], 1.0)
    (b,) = _simulate(paper_model, cfg, 1.0, [pol])
    dual_density_terminal(G_zero, b, paper_pref)
    mass = estimate_martingale_mass(b)
    assert mass.mean == pytest.approx(1.0, abs=4 * mass.std_error)
    ce = estimate_certainty_equivalent(b, dh.zero_claim(), paper_pref)
    g0 = float(G_zero.at(0.0, np.atleast_1d(0.06))[0])
    assert ce.mean == pytest.approx(g0, abs=4 * ce.std_error + 2e-3)
    dual = estimate_dual_value(b, dh.zero_claim(), paper_pref)
    assert dual.mean == pytest.approx(g0, abs=4 * dual.std_error + 2e-3)


def test_dual_expform_gap_shrinks_with_steps(paper_model, paper_pref, G_zero):
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    gaps = []
    for n_steps in (50, 200):
        cfg = SimConfig(n_paths=3000, n_steps=n_steps, seed=31, x0=0.06)
        _, (rb,) = _pipeline(paper_model, cfg, 1.0, [pol], paper_pref)
        zhat_expform = simulate_dual_density(paper_model, G_zero, pol, rb,
                                             paper_pref)
        (b,) = _simulate(paper_model, cfg, 1.0, [pol])
        dual_density_terminal(G_zero, b, paper_pref)
        gaps.append(np.mean(np.abs(b.z_T - zhat_expform[:, -1])))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-3


def test_one_value_for_every_path():
    # a custom coefficient or a policy may return one value for all paths:
    # the default-step jump reads it as it reads a per-path array
    per_path = _const_intensity_model(c=2.0, mu=1.5, sigma=0.8, rho=0.3)
    scalar = dataclasses.replace(per_path, mu=lambda x: 1.5,
                                 sigma=lambda x: 0.8, rho=lambda x: 0.3,
                                 gamma=lambda x: 2.0)
    noise = draw_noise(SimConfig(n_paths=500, n_steps=40, seed=4, x0=0.3))
    (want,) = simulate_policies(per_path, noise, 1.0,
                                [lambda t, x: 0.7 * np.ones_like(x)])
    (got,) = simulate_policies(scalar, noise, 1.0, [lambda t, x: 0.7])
    assert np.isfinite(want.delta).any()
    assert got.delta.tobytes() == want.delta.tobytes()
    assert got.w_T.tobytes() == want.w_T.tobytes()


def test_replay_policies_match_separate_replays(paper_model, paper_pref,
                                                G_zero):
    # one loop over several policies gives each policy the wealth that a
    # loop over it alone gives, with and without the insurance rate
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    pert = dh.Surface(grid=G_zero.grid, values=pol.values + 0.5)
    rate = dh.Surface(grid=G_zero.grid,
                      values=dh.insurance_rate(G_zero, paper_model,
                                               paper_pref))
    cfg = SimConfig(n_paths=2000, n_steps=60, seed=8, x0=0.06)
    noise = draw_noise(cfg)
    fields = [pol, pert, lambda t, x: 0.4 + t * x]
    for kw in ({}, {"rate_field": rate}):
        shared = simulate_policies(paper_model, noise, 1.0, fields, **kw)
        assert len(shared) == len(fields)
        for f, b in zip(fields, shared):
            (want,) = simulate_policies(paper_model, noise, 1.0, [f], **kw)
            assert b.x_T is shared[0].x_T and b.protected == bool(kw)
            assert want.protected == bool(kw)
            assert np.array_equal(b.w_T, want.w_T)
            assert np.array_equal(b.delta, want.delta)


@pytest.mark.parametrize("n_steps", [49, 200])
def test_dual_density_terminal_is_last_closed_form_column(
        paper_model, paper_pref, G_zero, n_steps):
    # 49 steps: the last simulation time falls one ulp short of T = 1
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    cfg = SimConfig(n_paths=2000, n_steps=n_steps, seed=13, x0=0.06)
    _, (rb,) = _pipeline(paper_model, cfg, 1.0, [pol], paper_pref)
    simulate_dual_density(paper_model, G_zero, pol, rb, paper_pref)
    (b,) = _simulate(paper_model, cfg, 1.0, [pol])
    assert b.t_end == rb.ts[-1]
    dual_density_terminal(G_zero, b, paper_pref)
    assert b.z_T.shape == (cfg.n_paths,)
    assert b.z_T.tobytes() == rb.zhat[:, -1].tobytes()


def _bit_identity_models():
    ou = dict(mu1=0.1, mu2=0.5, sigma_const=1.0, gamma_const=0.8,
              rho_const=-0.4)
    custom = _const_intensity_model(c=2.0, mu=1.5, sigma=0.8, rho=0.3)
    return {
        "cir": dh.make_cir_model(dh.paper_cir_params()),
        "ou-b2": dh.make_ou_model(dh.OUParams(b_mr=2.0, **ou)),
        "ou-b0": dh.make_ou_model(dh.OUParams(b_mr=0.0, **ou)),
        "custom-const": custom,
        # a custom rho is evaluated per path, the built-in ones are scalars
        "custom-rho": dataclasses.replace(
            custom, rho=lambda x: 0.5 * np.tanh(np.asarray(x, dtype=float))),
        # on a 64x64 surface 200 steps read each time cell's corner block
        # about three times; on G_zero's 400 time cells it changes each step
        "cir-64x64": dh.make_cir_model(dh.paper_cir_params()),
    }


@pytest.fixture(scope="module")
def G_64(paper_model, paper_pref):
    return dh.solve_full(paper_model, dh.zero_claim(), paper_pref,
                         dh.default_grid(paper_model, paper_pref, 64, 64))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n_steps", [1, 49, 200])
@pytest.mark.parametrize("kind", ["cir", "ou-b2", "ou-b0", "custom-const",
                                  "custom-rho", "cir-64x64"])
def test_terminal_state_equals_the_pipeline_bit_for_bit(
        paper_model, paper_pref, G_zero, G_64, kind, n_steps, seed):
    # x_T, the default times and steps, and each policy's W_T are the last
    # columns of the three-stage reference, unprotected and protected
    m = _bit_identity_models()[kind]
    G = G_64 if kind == "cir-64x64" else G_zero
    x0 = 0.06 if kind.startswith("cir") else 0.3
    cfg = SimConfig(n_paths=600, n_steps=n_steps, seed=seed, x0=x0)
    pol = dh.optimal_policy(G, paper_model, paper_pref)
    rate = dh.Surface(grid=G.grid,
                      values=dh.insurance_rate(G, paper_model, paper_pref))
    fields = [pol, dh.Surface(grid=G.grid, values=pol.values + 0.5),
              lambda t, x: 0.4 + t * np.tanh(x)]
    noise = draw_noise(cfg)
    exp_draws = noise.exp_draws.copy()
    if kind.startswith("custom"):
        # thresholds on the cumulative intensity itself: every third path
        # crosses exactly at a step end, where ">=" and ">" part
        cum = np.cumsum(np.full(n_steps, 0.5 * (2.0 + 2.0) * (1.0 / n_steps)))
        ties = np.arange(0, cfg.n_paths, 3)
        exp_draws[ties] = cum[ties % n_steps]
        noise = Noise(cfg=cfg, z=noise.z, z0=noise.z0, exp_draws=exp_draws)
    ref = simulate_factor(m, cfg, 1.0)
    ref.exp_draws = exp_draws
    simulate_default(m, ref)
    assert (ref.default_step < n_steps).any()
    for kw in ({}, {"rate_field": rate}):
        want = replay_policies(m, fields, ref, paper_pref, **kw)
        got = simulate_policies(m, noise, 1.0, fields, **kw)
        b = got[0]
        assert b.x_T.tobytes() == ref.x[:, -1].tobytes()
        assert b.delta.tobytes() == ref.delta.tobytes()
        for g, w in zip(got, want):
            assert g.w_T.tobytes() == w.wealth[:, -1].tobytes()


def test_one_run_holds_the_noise_and_per_path_state(paper_model, paper_pref,
                                                    G_zero):
    # 2000 paths x 500 steps with two policies: the noise takes
    # 16 B per path-step; everything else is one draw block and a bounded
    # number of per-path vectors (64 of 8 B), whatever the step count
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    pert = dh.Surface(grid=G_zero.grid, values=pol.values + 0.5)
    n_paths, n_steps = 2000, 500
    cfg = SimConfig(n_paths=n_paths, n_steps=n_steps, seed=0, x0=0.06)
    tracemalloc.start()
    try:
        simulate_policies(paper_model, draw_noise(cfg), 1.0, [pol, pert])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    noise_bytes = 16 * n_paths * n_steps
    allowance = 8 * mc._DRAW_BLOCK + 64 * 8 * n_paths
    assert noise_bytes < peak <= noise_bytes + allowance


def test_estimate_guards(paper_model, paper_pref):
    cfg = SimConfig(n_paths=10, n_steps=5, seed=0, x0=0.06)
    (b,) = _simulate(paper_model, cfg, 1.0, [_zero_policy])
    with pytest.raises(ValueError):
        estimate_dual_value(b, dh.zero_claim(), paper_pref)
    with pytest.raises(ValueError):
        estimate_martingale_mass(b)


def test_pool_estimates_math():
    es = [MCEstimate(mean=1.0, std_error=0.2, n_paths=100),
          MCEstimate(mean=3.0, std_error=0.2, n_paths=100)]
    p = pool_estimates(es)
    assert p.mean == pytest.approx(2.0)
    assert p.std_error == pytest.approx(np.sqrt(0.08) / 2)
    assert p.n_paths == 200
    with pytest.raises(ValueError):
        pool_estimates([])


def test_oracle_ou_paths_moments():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((20000, 50))
    decay = np.exp(-2.0 * 0.02)
    sd = np.sqrt((1.0 - decay * decay) / 4.0)
    x = ou_paths(1.0, decay, sd * z)
    # exact scheme: X_T mean e^{-bT}, variance (1-e^{-2bT})/(2b)
    T = 1.0
    mean, var = np.exp(-2.0 * T), (1 - np.exp(-4.0 * T)) / 4.0
    assert np.mean(x[:, -1]) == pytest.approx(mean,
                                              abs=4 * np.sqrt(var / 20000))
    assert np.var(x[:, -1]) == pytest.approx(var, rel=0.05)


def test_oracle_cir_paths_stay_nonnegative():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2000, 200))
    x = cir_paths(0.06, 0.25, 0.06, 0.1, 1.0 / 200, z)
    assert np.all(x >= 0)
    assert x.shape == (2000, 201)


def test_oracle_crossing_times_constant_intensity():
    # gamma = 2 constant: crossing at delta = e / 2
    intensity = np.full((3, 101), 2.0)
    draws = np.array([0.5, 1.0, 500.0])
    delta, step = crossing_times(intensity, 0.01, draws)
    assert delta[0] == pytest.approx(0.25, abs=1e-12)
    assert delta[1] == pytest.approx(0.5, abs=1e-12)
    assert np.isinf(delta[2]) and step[2] == 100


def test_mc_exponential_functional_deterministic_weight():
    # zero diffusion, weight = 1: E[exp(int 1 dt)] = e^T exactly
    est, exploded = mc_exponential_functional(
        lambda x: 0.0 * x, lambda x: 0.0 * x, lambda x: np.ones_like(x),
        x0=1.0, T=2.0, n_paths=8, n_steps=64, seed=0)
    assert est.mean == pytest.approx(np.exp(2.0), rel=1e-12)
    assert not exploded


def test_mc_exponential_functional_flags_explosion():
    _, exploded = mc_exponential_functional(lambda x: x ** 2 + 10.0,
                                            lambda x: 0.0 * x,
                                            lambda x: np.zeros_like(x),
                                            x0=1e6, T=1.0, n_paths=4,
                                            n_steps=50, seed=0)
    assert exploded


def test_estimates_to_csv(tmp_path):
    # estimates go out through the CLI writer
    est = MCEstimate(mean=0.5, std_error=0.01, n_paths=10, label="ce")
    cli._write(cli.RunConfig(out_dir=str(tmp_path)), "est.csv",
               ["paths = 10"], cli._estimate_lines([est], seed=42))
    lines = (tmp_path / "est.csv").read_text().splitlines()
    assert lines[0] == "# paths = 10"
    assert lines[1] == "label,mean,std_error,n_paths,seed"
    assert lines[2] == "ce,0.5,0.01,10,42"


# --------------------------------------------------------------------------
# the two path halves on two CPUs, and the map that runs them
# --------------------------------------------------------------------------


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tanh_field(t, x):
    # a callable field that pickles, so it can reach the worker
    return 0.4 + t * np.tanh(x)


def _counting_fork(monkeypatch):
    """Make os.fork record the pid of each worker it forks, in this list."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _split_run(m, cfg, fields, **kw):
    with mc.simulate_halves(m, cfg, 1.0) as halves:
        return halves.simulate(fields, **kw)


def _assert_same_bundles(got, want, cfg):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.cfg == cfg and g.protected == w.protected
        for name in ("x_T", "delta", "w_T"):
            assert getattr(g, name).tobytes() == \
                getattr(w, name).tobytes(), name
    assert all(g.x_T is got[0].x_T and g.delta is got[0].delta
               for g in got)


@pytest.fixture
def split_everything(monkeypatch):
    # with no work floor and two CPUs, even these small runs are split
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("n_paths", [1, 2, 301])
@pytest.mark.parametrize("kind", ["cir", "ou-b2", "custom-rho"])
def test_simulate_halves_equals_one_run_bit_for_bit(monkeypatch, paper_model,
                                                    paper_pref, G_64, kind,
                                                    n_paths,
                                                    split_everything):
    # one path runs in process; 2 and 301 paths split, 301 into halves of
    # 151 and 150, each smaller than one draw block
    m = _bit_identity_models()[kind]
    cfg = SimConfig(n_paths=n_paths, n_steps=49, seed=5,
                    x0=0.06 if kind == "cir" else 0.3)
    pol = dh.optimal_policy(G_64, paper_model, paper_pref)
    rate = dh.Surface(grid=G_64.grid,
                      values=dh.insurance_rate(G_64, paper_model, paper_pref))
    fields = [pol, _tanh_field]
    noise = draw_noise(cfg)
    pids = _counting_fork(monkeypatch)
    for kw in ({}, {"rate_field": rate}):
        want = simulate_policies(m, noise, 1.0, fields, **kw)
        got = _split_run(m, cfg, fields, **kw)
        _no_child_left()
        _assert_same_bundles(got, want, cfg)
    assert len(pids) == (2 if n_paths > 1 else 0)


@pytest.mark.parametrize("block", [
    4 * 49 * 7,    # 7 paths a block: both halves end in a ragged block
    4 * 49 * 150,  # 150 paths a block: one block for the worker's half
    64,            # a path longer than a block: one path per block
])
@pytest.mark.parametrize("kind", ["ou-b2", "custom-const"])
def test_simulate_halves_cuts_the_draw_at_the_half(monkeypatch, paper_model,
                                                   paper_pref, G_64, kind,
                                                   block, split_everything):
    # the blocks are cut at ceil(n/2), whatever the block size, and
    # each half's noise is the draw's
    monkeypatch.setattr(mc, "_DRAW_BLOCK", block)
    m = _bit_identity_models()[kind]
    cfg = SimConfig(n_paths=301, n_steps=49, seed=8, x0=0.3)
    fields = [dh.optimal_policy(G_64, paper_model, paper_pref)]
    want = simulate_policies(m, draw_noise(cfg), 1.0, fields)
    pids = _counting_fork(monkeypatch)
    _assert_same_bundles(_split_run(m, cfg, fields), want, cfg)
    _no_child_left()
    assert len(pids) == 1


@pytest.mark.parametrize("refused", ["pipe", "fork", "mmap"])
def test_simulate_halves_runs_in_process_where_no_split_is_had(
        monkeypatch, paper_model, paper_pref, G_64, refused,
        split_everything):
    # EAGAIN or ENOMEM: the in-process draw and loop, with the same bits
    # and no descriptor left open
    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cfg = SimConfig(n_paths=301, n_steps=49, seed=5, x0=0.06)
    fields = [dh.optimal_policy(G_64, paper_model, paper_pref)]
    want = simulate_policies(paper_model, draw_noise(cfg), 1.0, fields)
    fds = set(os.listdir("/proc/self/fd"))
    owner = mc.mmap if refused == "mmap" else os
    monkeypatch.setattr(owner, refused, refuse)
    got = _split_run(paper_model, cfg, fields)
    monkeypatch.undo()
    assert set(os.listdir("/proc/self/fd")) == fds
    _no_child_left()
    _assert_same_bundles(got, want, cfg)


@pytest.mark.parametrize("when", ["draw", "job"])
def test_a_worker_that_dies_raises_runtime_error(monkeypatch, paper_model,
                                                 paper_pref, G_64, when,
                                                 split_everything):
    # killed after the third block it was handed (the helper then finds
    # the ring full and the pipe closed), or as its job is sent after the
    # draw: the caller raises, and nothing is left behind
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    threads = threading.active_count()
    fields = [dh.optimal_policy(G_64, paper_model, paper_pref)]
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.06)
    feed, send = mc._Worker.feed, mc._Worker.send
    fed = []

    def killing_feed(worker, rng, rows):
        fed.append(rows)
        if when == "draw" and len(fed) == 4:
            os.kill(worker.pid, signal.SIGKILL)
        return feed(worker, rng, rows)

    def killing_send(worker, *args):
        os.kill(worker.pid, signal.SIGKILL)
        return send(worker, *args)

    monkeypatch.setattr(mc._Worker, "feed", killing_feed)
    monkeypatch.setattr(mc._Worker, "send", killing_send)
    pids = _counting_fork(monkeypatch)
    with pytest.raises(mc.WorkerDied,
                       match="ended during the draw" if when == "draw"
                       else "ended with exit code -9"):
        _split_run(paper_model, cfg, fields)
    _no_child_left()
    assert threading.active_count() == threads
    # of the worker's 400 blocks, the draw fed at most the 4 slots of the
    # ring and the 3 the worker freed before it was killed
    assert len(pids) == 1
    assert len(fed) <= 8 if when == "draw" else len(fed) == 400



def test_the_worker_ignores_sigint(monkeypatch, paper_model,
                                   split_everything):
    # a Ctrl-C to the process group interrupts only the caller, which
    # kills the worker on its way out; the caller's signal mask is restored
    pids = _counting_fork(monkeypatch)
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.06)
    with mc.simulate_halves(paper_model, cfg, 1.0):
        with open(f"/proc/{pids[0]}/status") as status:
            ignored = [int(line.split()[1], 16) for line in status
                       if line.startswith("SigIgn:")][0]
    assert ignored >> (signal.SIGINT - 1) & 1
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    _no_child_left()

@pytest.mark.parametrize("bad", [250, 799])
def test_a_failed_draw_of_the_workers_half_is_raised(monkeypatch,
                                                     paper_model, paper_pref,
                                                     G_64, bad,
                                                     split_everything):
    # of the 800 one-path blocks, the helper's error at a block of the
    # worker's z, or at its last z0 block, after the caller has stored
    # all of its own, is the error the caller raises
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    monkeypatch.setattr(_CountingGenerator, "drawn", [])
    monkeypatch.setattr(_CountingGenerator, "bad", bad)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    threads = threading.active_count()
    fields = [dh.optimal_policy(G_64, paper_model, paper_pref)]
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.06)
    with pytest.raises(ValueError, match="no normals"):
        _split_run(paper_model, cfg, fields)
    _no_child_left()
    assert threading.active_count() == threads
    assert len(_CountingGenerator.drawn) == bad + 1


def test_a_failed_solve_leaves_no_thread_and_no_child(monkeypatch,
                                                      paper_model,
                                                      split_everything):
    # a KeyError inside the with block, as a failed solve raises while the
    # helper draws and the worker stores: the helper stops after one more
    # block at most, and the worker is killed and reaped
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    monkeypatch.setattr(_CountingGenerator, "drawn", [])
    monkeypatch.setattr(_CountingGenerator, "bad", -1)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    pids = _counting_fork(monkeypatch)
    threads = threading.active_count()
    fds = set(os.listdir("/proc/self/fd"))
    cfg = SimConfig(n_paths=400, n_steps=10, seed=1, x0=0.06)
    with pytest.raises(KeyError):
        with mc.simulate_halves(paper_model, cfg, 1.0):
            deadline = time.monotonic() + 10
            while len(_CountingGenerator.drawn) < 2 \
                    and time.monotonic() < deadline:
                time.sleep(1e-3)
            raise KeyError("the solve failed")
    _no_child_left()
    assert threading.active_count() == threads
    assert set(os.listdir("/proc/self/fd")) == fds
    assert len(pids) == 1 and len(_CountingGenerator.drawn) == 2


def test_a_field_that_cannot_be_pickled_is_named(paper_model, paper_pref,
                                                 G_64, split_everything):
    # the worker's fields travel by pickle; a lambda does not
    pol = dh.optimal_policy(G_64, paper_model, paper_pref)
    cfg = SimConfig(n_paths=30, n_steps=10, seed=1, x0=0.06)
    with pytest.raises(TypeError, match="the field <function .*<lambda>"):
        _split_run(paper_model, cfg, [pol, lambda t, x: 0.0 * x])
    _no_child_left()


def test_the_caller_holds_only_its_half_of_the_noise(paper_model, paper_pref,
                                                     G_64, split_everything):
    # the traced peak of this process: the noise of its ceil(n/2) paths,
    # 16 B a path-step, plus the allowance of the draw's four quarter
    # blocks (_DRAW_BLOCK normals) and 16 float64 per path (the
    # thresholds, the loop's per-path state and the joined bundles; about
    # 5 are used).  The whole noise, as one process held it before the
    # split, peaked at 20.4 MB here
    cfg = SimConfig(n_paths=3001, n_steps=400, seed=2, x0=0.06)
    fields = [dh.optimal_policy(G_64, paper_model, paper_pref)]
    own = (cfg.n_paths + 1) // 2
    allowance = 8 * mc._DRAW_BLOCK + 16 * 8 * cfg.n_paths
    tracemalloc.start()
    try:
        got = _split_run(paper_model, cfg, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _no_child_left()
    assert got[0].w_T.shape == (cfg.n_paths,)
    assert 16 * own * cfg.n_steps < peak \
        <= 16 * own * cfg.n_steps + allowance
    # which is less than the whole noise
    assert 16 * own * cfg.n_steps + allowance \
        < 16 * cfg.n_paths * cfg.n_steps


def test_simulate_halves_forks_only_above_the_work_floor(monkeypatch,
                                                         paper_model,
                                                         paper_pref, G_64):
    pol = dh.optimal_policy(G_64, paper_model, paper_pref)
    # at 100 steps a worker's half of _HALF_FLOOR + _FORK_FLOOR / 100 paths
    # reaches the floor, one path fewer does not; a half of _HALF_FLOOR
    # paths saves nothing, however many its steps
    paths = 2 * (mc._HALF_FLOOR + mc._FORK_FLOOR // 100)
    for n_paths, n_steps, must_fork in ((paths, 100, True),
                                        (paths - 2, 100, False),
                                        (2 * mc._HALF_FLOOR, 4000, False)):
        cfg = SimConfig(n_paths=n_paths, n_steps=n_steps, seed=3, x0=0.06)
        pids = _counting_fork(monkeypatch)
        got = _split_run(paper_model, cfg, [pol])[0]
        _no_child_left()
        monkeypatch.undo()
        want = simulate_policies(paper_model, draw_noise(cfg), 1.0, [pol])[0]
        assert len(pids) == (must_fork and len(os.sched_getaffinity(0)) >= 2)
        for name in ("x_T", "delta", "w_T"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name


def test_fork_map_returns_the_results_in_item_order():
    got = fork_map(lambda i: (i * i, os.getpid()), range(7))
    _no_child_left()
    assert [v for v, _ in got] == [i * i for i in range(7)]
    pids = [pid for _, pid in got]
    # item j runs in worker j mod 2; worker 0 is this process
    assert set(pids[0::2]) == {os.getpid()}
    if len(os.sched_getaffinity(0)) >= 2:
        assert len(set(pids[1::2])) == 1 and os.getpid() not in pids[1::2]


@pytest.mark.parametrize("failing, first", [
    ({3, 4}, 3), ({2, 5}, 2), ({1}, 1), ({0, 1}, 0), ({5, 6}, 5)])
def test_fork_map_raises_the_first_failing_items_exception(failing, first):
    def fn(i):
        if i in failing:
            raise dh.NewtonDivergence(i, 0.5)
        return i

    with pytest.raises(dh.NewtonDivergence) as exc:
        fork_map(fn, range(7))
    _no_child_left()
    assert exc.value.step_index == first
    assert str(exc.value) == str(dh.NewtonDivergence(first, 0.5))


def test_fork_map_does_not_wait_for_a_child_when_item_0_fails():
    def fn(i):
        if i == 0:
            raise ValueError("item 0")
        time.sleep(60.0)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="item 0"):
        fork_map(fn, range(2))
    _no_child_left()
    assert time.perf_counter() - start < 30.0


def test_fork_map_forwards_the_warnings_of_every_item():
    def fn(i):
        warnings.warn(f"item {i}", UserWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fork_map(fn, range(4)) == list(range(4))
    _no_child_left()
    assert sorted(str(w.message) for w in caught) == \
        [f"item {i}" for i in range(4)]
    assert {w.category for w in caught} == {UserWarning}


def test_fork_map_raises_a_warning_that_the_filters_make_an_error():
    # Tier-1 runs with RuntimeWarnings as errors; a child inherits that
    def fn(i):
        if i == 1:
            warnings.warn("overflow in the child", RuntimeWarning)
        return i

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow in the child"):
            fork_map(fn, range(2))
    _no_child_left()


def test_a_child_that_dies_raises_runtime_error():
    def fn(i):
        if i == 1:
            os._exit(3)
        return i

    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs to fork a child")
    with pytest.raises(mc.WorkerDied, match="exit code 3"):
        fork_map(fn, range(4))
    _no_child_left()


def test_fork_map_on_one_cpu_runs_in_process(monkeypatch):
    def fn(i):
        if i >= 1:
            raise ValueError(f"item {i}")
        return i

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fork_map(lambda i: (i, os.getpid()), range(3)) == \
        [(i, os.getpid()) for i in range(3)]
    with pytest.raises(ValueError, match="item 1"):
        fork_map(fn, range(3))
    _no_child_left()


@pytest.mark.parametrize("refused", ["pipe", "fork"])
def test_fork_map_runs_in_process_where_no_fork_is_had(monkeypatch, refused):
    # EAGAIN, as under a process limit: the plain loop, in item order,
    # with no descriptor left open
    def refuse(*args):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, refused, refuse)
    assert fork_map(lambda i: (i * i, os.getpid()), range(7)) == \
        [(i * i, os.getpid()) for i in range(7)]
    monkeypatch.undo()
    assert set(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_fork_map_does_not_nest():
    def inner(i):
        return os.getpid()

    def outer(i):
        return fork_map(inner, range(3))

    for pids in fork_map(outer, range(2)):
        assert len(set(pids)) == 1
    _no_child_left()


@pytest.mark.parametrize("exc", [
    dh.NewtonDivergence(3, 1.0), dh.RadicandNegative((1, 2), -1.0),
    dh.WindowViolation("2 kappa - xi^2", -0.25)],
    ids=lambda e: type(e).__name__)
def test_the_typed_errors_survive_pickling(exc):
    # a forked worker carries its exception across a pipe
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
