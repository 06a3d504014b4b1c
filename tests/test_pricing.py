import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defaultable_hjb as dh
from defaultable_hjb.lambertw import theta
from defaultable_hjb import cli, pricing
from defaultable_hjb.pricing import (RadicandNegative, insurance_rate_h_form,
                                     short_horizon_curve, zero_rate_position)


def _flat_surface(value, x_lo=-2.0, x_hi=2.0):
    grid = dh.GridSpec(x_lo, x_hi, 32, 16)
    return dh.Surface(grid=grid,
                      values=np.full((17, 33), float(value)))


def _unit_model(mu):
    def const(c):
        return lambda x: c * np.ones_like(np.asarray(x, dtype=float))

    return dh.make_custom_model(dh.Domain1D(-5.0, 5.0), b=const(0.0),
                                A=const(1.0), mu=const(mu), sigma=const(1.0),
                                rho=const(0.0), gamma=const(1.0))


def test_policy_zero_when_drift_balances_intensity():
    # mu = sigma = gamma = 1, rho = 0, alpha = 1, G = 0:
    # x-tilde = 1, theta(e) = 1, so pi-hat = 0
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    pol = dh.optimal_policy(_flat_surface(0.0), _unit_model(1.0), pref)
    assert np.allclose(pol.values, 0.0, atol=1e-14)


def test_policy_known_value_mu_two():
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    pol = dh.optimal_policy(_flat_surface(0.0), _unit_model(2.0), pref)
    want = 2.0 - theta(np.exp(2.0))  # 0.44285440100238867
    assert np.allclose(pol.values, want, rtol=1e-12)
    assert pol.values[0, 0] == pytest.approx(0.44285440100238867, abs=1e-12)


def test_policy_rejects_nonfinite():
    # pi-hat = 0.44... / alpha overflows
    pref = dh.Preferences(alpha=5e-324, horizon_T=1.0)
    with pytest.raises(ValueError, match="policy must be finite"):
        dh.optimal_policy(_flat_surface(0.0), _unit_model(2.0), pref)


def test_indifference_price_trivial_and_errors(bond_surfaces, G_zero):
    p1 = dh.indifference_price(bond_surfaces[1.0], G_zero, 1.0)
    assert p1.shape == G_zero.values.shape
    # terminal row: price of the bond at maturity is its payout
    assert np.allclose(p1[-1], 1.0)
    assert np.all(p1 > 0) and np.all(p1 <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        dh.indifference_price(bond_surfaces[1.0], G_zero, 0.0)
    other = _flat_surface(0.0)
    with pytest.raises(ValueError):
        dh.indifference_price(other, G_zero, 1.0)


def test_indifference_price_decreasing_in_notional(bond_surfaces, G_zero):
    # risk aversion: the per-unit buyer's price falls as the position grows
    k = G_zero.values.shape[1] // 2
    prices = [dh.indifference_price(bond_surfaces[q], G_zero, q)[0, k]
              for q in (1.0, 3.0, 5.0, 10.0)]
    assert prices[0] > prices[1] > prices[2] > prices[3]


def test_rate_equals_upper_bound_at_zero_position():
    # pi-hat = 0 everywhere; f = gamma e^{alpha G} = upper bound exactly
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    m = _unit_model(1.0)
    G = _flat_surface(0.0)
    f = dh.insurance_rate(G, m, pref)
    pol = dh.optimal_policy(G, m, pref)
    upper, sign_ind = dh.insurance_bounds(G, pol, m, pref)
    assert np.allclose(f, 1.0, atol=1e-10)
    assert np.allclose(upper, 1.0, atol=1e-14)
    assert np.all(sign_ind > 0)


def test_rate_branches_and_h_form_agree(paper_model, paper_pref, G_zero):
    f = dh.insurance_rate(G_zero, paper_model, paper_pref)
    # the two roots s2 (x-tilde -+ sqrt(radicand)) of the quadratic; the
    # rate is the lower one
    coef, x_tilde, theta_g, log_y = pricing._node_fields(
        G_zero, paper_model, paper_pref)
    rad = np.maximum(x_tilde ** 2 - (theta_g ** 2 + 2.0 * theta_g
                                     - 2.0 * np.exp(log_y)), 0.0)
    assert np.array_equal(f, coef.s2 * (x_tilde - np.sqrt(rad)))
    f_up = coef.s2 * (x_tilde + np.sqrt(rad))
    assert np.all(f_up >= f - 1e-14)
    # h-form: f = sigma^2 h(alpha pi-hat, (gamma/sigma^2) e^{alpha G})
    xs = G_zero.grid.xs
    s2 = np.asarray(paper_model.sigma(xs), dtype=float) ** 2
    gam = np.asarray(paper_model.gamma(xs), dtype=float)
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    al = paper_pref.alpha
    y = (gam / s2) * np.exp(al * G_zero.values)
    f_h = s2 * insurance_rate_h_form(al * pol.values, y)
    scale = np.maximum(np.abs(f), 1e-12)
    assert np.max(np.abs(f - f_h) / scale) < 1e-10


def test_rate_bounds_on_paper_solve(paper_model, paper_pref, G_zero):
    f = dh.insurance_rate(G_zero, paper_model, paper_pref)
    pol = dh.optimal_policy(G_zero, paper_model, paper_pref)
    upper, sign_ind = dh.insurance_bounds(G_zero, pol, paper_model, paper_pref)
    assert np.all(f <= upper + 1e-12)
    assert np.all(np.sign(sign_ind) * np.sign(f) >= 0)
    # on the invariant band the insured pays at least the physical intensity
    lo, hi = dh.invariant_band(paper_model)
    mask = (G_zero.grid.xs >= lo) & (G_zero.grid.xs <= hi)
    gam = np.asarray(paper_model.gamma(G_zero.grid.xs), dtype=float)
    assert np.all(f[0, mask] >= gam[mask])


def test_rate_sign_matches_indicator_at_tiny_intensity():
    # at gamma = 1e-7, theta(e^u) stays below 3e-4 over the whole grid, so
    # the rate needs theta to relative accuracy: one held only to an
    # absolute 1e-12 gives a rate of exactly 0 at 65 of the 4225 nodes,
    # where the sign indicator is well away from 0
    m = dh.make_ou_model(dh.OUParams(b_mr=1.0, mu1=0.0, mu2=1.0,
                                     sigma_const=1.0, gamma_const=1e-7,
                                     rho_const=0.0))
    pref = dh.Preferences(alpha=3.0, horizon_T=1.0)
    G = dh.solve_full(m, dh.zero_claim(), pref,
                      dh.default_grid(m, pref, 64, 64))
    f = dh.insurance_rate(G, m, pref)
    _, sign_ind = dh.insurance_bounds(G, dh.optimal_policy(G, m, pref), m,
                                      pref)
    big = np.abs(sign_ind) > 1e-8
    assert big.any()
    assert np.array_equal(np.sign(f[big]), np.sign(sign_ind[big]))


def test_h_form_known_values():
    assert insurance_rate_h_form(1.0, 1.0) == pytest.approx(
        1.986231020890168, abs=1e-12)
    assert insurance_rate_h_form(1.0, 2.0 / 3.0) == pytest.approx(
        1.2846626539874169, abs=1e-12)
    with pytest.raises(ValueError):
        insurance_rate_h_form(1.0, 0.0)


def test_zero_rate_position_is_root():
    y = 2.0 / 3.0
    l0 = zero_rate_position(y)
    assert l0 == pytest.approx(-0.23409347415215095, abs=1e-12)
    assert insurance_rate_h_form(l0, y) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        zero_rate_position(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=1e-6, max_value=100.0))
def test_property_rate_below_dual_intensity(l, y):
    # h(l, y) <= y e^l, with equality only at l = 0
    h = insurance_rate_h_form(l, y)
    assert h <= y * np.exp(l) + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-4, max_value=50.0))
def test_property_rate_increasing_in_position(y):
    ls = np.linspace(-3.0, 3.0, 201)
    h = insurance_rate_h_form(ls, y)
    assert np.all(np.diff(h) > 0)
    # sign change exactly at the zero-rate position
    l0 = zero_rate_position(y)
    assert insurance_rate_h_form(l0 - 1e-3, y) < 0
    assert insurance_rate_h_form(l0 + 1e-3, y) > 0


def test_protected_policy_zero_when_rate_absorbs_drift():
    pref = dh.Preferences(alpha=1.0, horizon_T=1.0)
    m = _unit_model(2.0)
    G = _flat_surface(0.3)
    f = np.full_like(G.values, 2.0)  # f = mu, rho = 0 -> position 0
    pi_d = dh.protected_policy(G, f, m, pref)
    assert np.allclose(pi_d, 0.0, atol=1e-14)


def test_protected_policy_nonnegative_on_paper_solve(paper_model, paper_pref,
                                                     G_zero):
    f = dh.insurance_rate(G_zero, paper_model, paper_pref)
    pi_d = dh.protected_policy(G_zero, f, paper_model, paper_pref)
    assert np.all(pi_d >= -1e-12)


def test_radicand_negative_attributes():
    err = RadicandNegative((3, 7), -2.5e-4)
    assert err.node_index == (3, 7)
    assert err.value == -2.5e-4
    assert "radicand" in str(err)


def test_short_horizon_curve_shape_and_root():
    ls, curve, upper = short_horizon_curve()
    assert len(ls) == len(curve) == len(upper) == 401
    assert ls[0] == pytest.approx(-2.0) and ls[-1] == pytest.approx(2.0)
    assert np.all(curve <= upper + 1e-12)
    assert np.all(np.diff(curve) > 0)
    l0 = zero_rate_position(2.0 / 3.0)
    k = np.searchsorted(ls, l0)
    assert curve[k - 1] < 0 < curve[k + 1]


def test_curves_to_csv(tmp_path):
    # named curves go out through the CLI writer
    cli._write(cli.RunConfig(out_dir=str(tmp_path)), "curve.csv", ["y = 2/3"],
               cli._columns({"l": np.array([0.0, 1.0]),
                             "h": np.array([2.0, 3.0])}))
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "# y = 2/3"
    assert lines[1] == "l,h"
    assert lines[2].split(",") == ["0", "1"] or lines[2].startswith("0,")
    with pytest.raises(ValueError):
        cli._columns({"a": np.zeros(3), "b": np.zeros(2)})


def test_maps_of_the_first_row_are_row_0_of_the_maps(paper_model, paper_pref,
                                                     G_zero):
    # price-insurance maps the t = 0 row alone; the maps are nodewise
    row0 = dh.Surface(grid=G_zero.grid, values=G_zero.values[:1],
                      gradient=G_zero.gradient[:1])
    pol, pol0 = (dh.optimal_policy(g, paper_model, paper_pref)
                 for g in (G_zero, row0))
    assert pol0.values.tobytes() == pol.values[:1].tobytes()
    f, f0 = (dh.insurance_rate(g, paper_model, paper_pref)
             for g in (G_zero, row0))
    assert f0.tobytes() == f[:1].tobytes()
    upper, _ = dh.insurance_bounds(G_zero, pol, paper_model, paper_pref)
    upper0, _ = dh.insurance_bounds(row0, pol0, paper_model, paper_pref)
    assert upper0.tobytes() == upper[:1].tobytes()
