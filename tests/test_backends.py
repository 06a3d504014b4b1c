import numpy as np
import pytest

from defaultable_hjb import backends


def test_backend_name():
    assert backends.backend_name() == "numpy"


def test_theta_array_np_scalar_and_array():
    w = backends.theta_array(1.0)
    assert np.isscalar(w) or w.ndim == 0
    ys = np.logspace(-6, 6, 100)
    ws = backends.theta_array(ys)
    assert np.all(np.abs(ws * np.exp(ws) - ys) <= 1e-12 * np.maximum(1, ys))


def test_theta_from_log_np():
    us = np.linspace(1.0, 1000.0, 50)
    ws = backends.theta_from_log_array(us)
    assert np.allclose(ws + np.log(ws), us, rtol=1e-12)


def test_tridiag_np_vs_dense():
    rng = np.random.default_rng(3)
    n = 40
    d = 4.0 + rng.random(n)
    dl = rng.random(n - 1)
    du = rng.random(n - 1)
    rhs = rng.random(n)
    A = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    x = backends.tridiag_solve(dl, d, du, rhs)
    assert np.allclose(A @ x, rhs, atol=1e-12)


def test_ou_paths_np_moments():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((20000, 50))
    decay = np.exp(-2.0 * 0.02)
    sd = np.sqrt((1.0 - decay * decay) / 4.0)
    x = backends.ou_paths(1.0, decay, sd * z)
    # exact scheme: X_T mean e^{-bT}, variance (1-e^{-2bT})/(2b)
    T = 1.0
    mean, var = np.exp(-2.0 * T), (1 - np.exp(-4.0 * T)) / 4.0
    assert np.mean(x[:, -1]) == pytest.approx(mean, abs=4 * np.sqrt(var / 20000))
    assert np.var(x[:, -1]) == pytest.approx(var, rel=0.05)


def test_cir_paths_np_stay_nonnegative():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2000, 200))
    x = backends.cir_paths(0.06, 0.25, 0.06, 0.1, 1.0 / 200, z)
    assert np.all(x >= 0)
    assert x.shape == (2000, 201)


def test_crossing_times_np_constant_intensity():
    # gamma = 2 constant: crossing at delta = e / 2
    intensity = np.full((3, 101), 2.0)
    draws = np.array([0.5, 1.0, 500.0])
    delta, step = backends.crossing_times(intensity, 0.01, draws)
    assert delta[0] == pytest.approx(0.25, abs=1e-12)
    assert delta[1] == pytest.approx(0.5, abs=1e-12)
    assert np.isinf(delta[2]) and step[2] == 100
