import numpy as np
import pytest

import defaultable_hjb as dh
from defaultable_hjb.model import ModelError, _smoothstep


def test_domain_validation():
    with pytest.raises(ModelError):
        dh.Domain1D(1.0, 1.0)
    d = dh.Domain1D(0.0, np.inf)
    assert bool(d.contains(0.5)) and not bool(d.contains(0.0))


def test_param_validation():
    with pytest.raises(ModelError):
        dh.OUParams(b_mr=1.0, mu1=0, mu2=0, sigma_const=0.0, gamma_const=1.0,
                    rho_const=0.0)
    with pytest.raises(ModelError):
        dh.OUParams(b_mr=1.0, mu1=0, mu2=0, sigma_const=1.0, gamma_const=1.0,
                    rho_const=1.5)
    with pytest.raises(ModelError):
        dh.CIRParams(kappa=-1, theta_lr=0.06, xi=0.1, mu1=0, mu2=1,
                     sigma_scale=1, gamma1=0, gamma2=1, rho_const=0)
    with pytest.raises(ModelError):
        dh.CIRParams(kappa=0.25, theta_lr=0.06, xi=0.1, mu1=0, mu2=1,
                     sigma_scale=1, gamma1=0, gamma2=0, rho_const=0)


def test_feller_enforced_by_model_builder_not_params():
    p = dh.CIRParams(kappa=0.25, theta_lr=0.06, xi=0.2, mu1=0, mu2=1.3608,
                     sigma_scale=1.2247, gamma1=0, gamma2=0.4145,
                     rho_const=-0.53)
    assert p.feller_margin < 0
    with pytest.raises(ModelError, match="Feller"):
        dh.make_cir_model(p)
    m = dh.make_cir_model(p, enforce_feller=False)
    assert m.kind == "cir"


def test_feller_boundary_is_valid():
    p = dh.CIRParams(kappa=1.0, theta_lr=0.5, xi=1.0, mu1=0, mu2=1,
                     sigma_scale=1, gamma1=0, gamma2=1, rho_const=0)
    assert p.feller_margin == 0
    dh.make_cir_model(p)  # no error at the boundary


def test_paper_cir_coefficients():
    m = dh.make_cir_model(dh.paper_cir_params())
    x = np.array([0.01, 0.06, 0.2])
    s = 1.2247
    assert np.allclose(m.b(x), 0.25 * (0.06 - x))
    assert np.allclose(m.A(x), 0.01 * x)
    assert np.allclose(m.mu(x), s * 1.3608 * x)
    assert np.allclose(m.sigma(x), s * np.sqrt(x))
    assert np.allclose(m.gamma(x), s * 0.4145 * x)
    assert np.allclose(m.a(x), np.sqrt(0.01 * x))
    assert np.allclose(m.rho(x), -0.53)


def test_invariant_band_matches_stationary_gamma_law():
    m = dh.make_cir_model(dh.paper_cir_params())
    lo, hi = dh.invariant_band(m)
    # stationary law is Gamma(shape 2*kappa*theta/xi^2 = 3, rate 2*kappa/xi^2 = 50)
    assert lo == pytest.approx(0.01237, abs=1e-4)
    assert hi == pytest.approx(0.14449, abs=1e-4)
    t_lo, t_hi = dh.default_truncation(m)
    assert t_lo < lo and t_hi > hi
    # the truncation is the [0.001, 0.999] band widened by 1.5, exactly
    b_lo, b_hi = dh.invariant_band(m, 0.001, 0.999)
    assert (t_lo, t_hi) == (b_lo / 1.5, b_hi * 1.5)


def test_ou_truncation_and_band():
    m = dh.make_ou_model(dh.OUParams(b_mr=0.5, mu1=0, mu2=1, sigma_const=1,
                                     gamma_const=1, rho_const=0))
    lo, hi = dh.default_truncation(m)
    assert lo == pytest.approx(-6.0) and hi == pytest.approx(6.0)
    blo, bhi = dh.invariant_band(m)
    assert blo == pytest.approx(-bhi)


def test_unresolvable_truncation_and_volatility_squares():
    # the stationary s.d. of b = 1e-300 is near 7e149: edges past ~1e77
    # overflow a solve, so the interval is a model error
    for b in (1e-300, 5e-324):
        m = dh.make_ou_model(dh.OUParams(b_mr=b, mu1=0, mu2=1, sigma_const=1,
                                         gamma_const=1, rho_const=0))
        with pytest.raises(ModelError, match="cannot be resolved"):
            dh.default_truncation(m)
    base = dict(dh.paper_cir_params().__dict__)
    for key, value in (("xi", 1e-300), ("xi", 1e200),
                       ("sigma_scale", 1e-300)):
        with pytest.raises(ModelError, match=f"{key}\\^2"):
            dh.CIRParams(**{**base, key: value})
    with pytest.raises(ModelError, match="sigma_const\\^2"):
        dh.OUParams(b_mr=1.0, mu1=0, mu2=0, sigma_const=1e-300,
                    gamma_const=1.0, rho_const=0.0)


def test_market_price_of_risk():
    m = dh.make_cir_model(dh.paper_cir_params())
    x = np.array([0.02, 0.06, 0.1])
    ell = dh.market_price_of_risk(m, x)
    assert np.allclose(ell, (1.3608 - 0.4145) * np.sqrt(x), rtol=1e-12)
    with pytest.raises(ModelError):
        dh.market_price_of_risk(m, -1.0)


def test_cir_ell_square_expansion_identity():
    # ell^2 = (mu1-g1)^2/x + 2(mu1-g1)(mu2-g2) + (mu2-g2)^2 x
    p = dh.CIRParams(kappa=0.25, theta_lr=0.06, xi=0.1, mu1=0.3, mu2=1.2,
                     sigma_scale=1.5, gamma1=0.1, gamma2=0.4, rho_const=0.0)
    m = dh.make_cir_model(p)
    x = np.linspace(0.01, 2.0, 500)
    lhs = dh.market_price_of_risk(m, x) ** 2
    d1, d2 = p.mu1 - p.gamma1, p.mu2 - p.gamma2
    rhs = d1 ** 2 / x + 2 * d1 * d2 + d2 ** 2 * x
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_claims():
    c = dh.bond_claim(3.0)
    assert np.allclose(c.phi(np.array([0.1, 5.0])), 1.0)
    z = dh.zero_claim()
    assert np.allclose(z.phi(np.array([0.1])), 0.0)
    with pytest.raises(ModelError):
        dh.bond_claim(0.0)


def test_preferences_validation():
    with pytest.raises(ModelError):
        dh.Preferences(alpha=0.0, horizon_T=1.0)
    with pytest.raises(ModelError):
        dh.Preferences(alpha=1.0, horizon_T=0.0)


def test_smoothstep_shape():
    t = np.linspace(-1, 2, 301)
    s = _smoothstep(t)
    assert np.all(s[t <= 0] == 0)
    assert np.all(s[t >= 1] == 1)
    inside = (t > 0.1) & (t < 0.9)
    assert np.all(np.diff(s[inside]) > 0)
    assert np.all(np.diff(s) >= 0)


def test_nested_subdomains():
    m = dh.make_cir_model(dh.paper_cir_params())
    assert dh.nested_subdomain(m, 4) == (0.25, 4.0)
    ou = dh.make_ou_model(dh.OUParams(1, 0, 1, 1, 1, 0))
    assert dh.nested_subdomain(ou, 3) == (-3.0, 3.0)
    with pytest.raises(ModelError):
        dh.nested_subdomain(m, 1)


def test_localization_cutoff_properties():
    m = dh.make_cir_model(dh.paper_cir_params())
    for n in (2, 4, 8):
        loc = dh.build_localization(m, n)
        loc.validate()
        lo, hi = loc.outer
        assert loc.chi(lo) == 0.0 and loc.chi(hi) == 0.0
        xs = np.linspace(loc.inner[0], loc.inner[1], 101)
        assert np.allclose(loc.chi(xs), 1.0)
        mid = np.linspace(lo, hi, 1001)[1:-1]
        assert np.all(loc.chi(mid) > 0)
        assert np.all(loc.chi(mid) <= 1.0)
