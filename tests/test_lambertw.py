import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defaultable_hjb.lambertw import ThetaDomainError, theta, theta_of_log


def theta_derivative(y):
    """d theta / dy by the identity y * theta'(y) * (1 + theta(y)) = theta(y)."""
    w = theta(y)
    return w / (np.asarray(y, dtype=np.float64) * (1.0 + w))


def test_known_values():
    assert theta(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)
    assert theta(np.e) == pytest.approx(1.0, abs=1e-12)
    # w = 2 at y = 2 e^2
    assert theta(2.0 * np.exp(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_defining_identity_on_log_grid():
    y = np.logspace(-8, 8, 10000)
    w = theta(y)
    assert np.all(np.abs(w * np.exp(w) - y) <= 1e-12 * np.maximum(1.0, y))


def test_monotone_increasing():
    y = np.logspace(-6, 6, 1000)
    assert np.all(np.diff(theta(y)) > 0)


def test_domain_errors():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ThetaDomainError):
            theta(bad)
    with pytest.raises(ThetaDomainError):
        theta(np.array([1.0, -2.0]))
    with pytest.raises(ThetaDomainError):
        theta_of_log(np.nan)


def test_derivative_identity():
    y = np.logspace(-4, 4, 200)
    w = theta(y)
    d = theta_derivative(y)
    # y * theta'(y) * (1 + theta(y)) = theta(y)
    assert np.allclose(y * d * (1.0 + w), w, rtol=1e-12)
    # finite-difference cross-check at a few points
    for yv in (0.5, 1.0, 10.0):
        h = 1e-7 * yv
        fd = (theta(yv + h) - theta(yv - h)) / (2.0 * h)
        assert theta_derivative(yv) == pytest.approx(fd, rel=1e-6)


def test_log_asymptote():
    # theta(y) / log(y) -> 1 for large y
    for u in (50.0, 200.0, 650.0):
        assert theta_of_log(u) / u == pytest.approx(1.0, rel=0.2)
    assert theta_of_log(1e5) / 1e5 == pytest.approx(1.0, rel=1e-3)


def test_theta_of_log_overflow_safe():
    u = 800.0  # exp(u) overflows float64
    w = theta_of_log(u)
    assert np.isfinite(w)
    assert w + np.log(w) == pytest.approx(u, rel=1e-12)


def test_theta_of_log_underflow_accuracy():
    u = -40.0
    ey = np.exp(u)
    assert theta_of_log(u) == pytest.approx(ey * (1.0 - ey), rel=1e-12)


def test_theta_np_scalar_and_array():
    w = theta(1.0)
    assert np.isscalar(w) or w.ndim == 0
    ys = np.logspace(-6, 6, 100)
    ws = theta(ys)
    assert np.all(np.abs(ws * np.exp(ws) - ys) <= 1e-12 * np.maximum(1, ys))


def test_theta_of_log_np_scalar_and_array():
    w = theta_of_log(1.0)
    assert np.isscalar(w) or w.ndim == 0
    us = np.linspace(1.0, 1000.0, 50)
    ws = theta_of_log(us)
    assert np.allclose(ws + np.log(ws), us, rtol=1e-12)


def test_theta_of_log_elementwise():
    # a value must get the same bits alone as inside a larger block: the
    # block marcher (solve_claims) relies on it to match solve_full
    rng = np.random.default_rng(2)
    u = np.concatenate([rng.uniform(-745.0, 0.0, 700),
                        rng.uniform(0.0, 800.0, 700),
                        np.exp(rng.uniform(np.log(800.0), np.log(1e300),
                                           600))])
    u = rng.permutation(u).reshape(5, 400)
    alone = np.array([[theta_of_log(v) for v in row] for row in u])
    assert theta_of_log(u).tobytes() == alone.tobytes()


def test_wrightomega_has_a_real_loop():
    # without the real 'd->d' loop numpy would cast float64 input to
    # complex silently, and theta_of_log would return complex values
    assert "d->d" in scipy.special.wrightomega.types
    out = scipy.special.wrightomega(np.linspace(-5.0, 5.0, 7))
    assert out.dtype == np.float64
    assert theta_of_log(np.zeros(3)).dtype == np.float64


def test_theta_of_log_matches_direct():
    u = np.linspace(-25.0, 600.0, 500)
    assert np.allclose(theta_of_log(u), theta(np.exp(u)), rtol=1e-11)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(min_value=-745.0, max_value=1e300))
@example(-745.0)
@example(-708.0)
@example(-30.0)
@example(-20.0)
@example(-8.0)
@example(800.0)
def test_property_identity_in_log_space(u):
    # relative, so that no u is held only to an absolute tolerance; no
    # oracle is needed.  Below -708, w is subnormal and log(w) loses bits,
    # so there w must be exp(u) (omega(u) = e^u (1 - e^u + ...)) to within
    # one subnormal ulp.
    w = theta_of_log(u)
    if u >= -708.0:
        assert abs(w + np.log(w) - u) <= 1e-14 * max(1.0, abs(u))
    else:
        assert abs(w - np.exp(u)) <= np.nextafter(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_property_derivative_positive(y):
    assert theta_derivative(y) > 0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=1e-8, max_value=1e6))
def test_property_source_inequality(x, y):
    # 2y + x^2 - theta(y e^x)^2 - 2 theta(y e^x) >= 0, equality iff x = y
    w = theta_of_log(np.log(y) + x)
    assert 2.0 * y + x * x - w * w - 2.0 * w >= -1e-10


def test_source_inequality_equality_on_diagonal():
    for y in (0.01, 0.5, 1.0, 3.0):
        w = theta_of_log(np.log(y) + y)  # x = y
        assert abs(2.0 * y + y * y - w * w - 2.0 * w) <= 1e-8
    # strictly positive away from the diagonal
    for x, y in ((0.5, 1.0), (-2.0, 0.3), (3.0, 0.1)):
        w = theta_of_log(np.log(y) + x)
        assert 2.0 * y + x * x - w * w - 2.0 * w > 1e-8
