import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defaultable_hjb as dh
from defaultable_hjb import cli
from defaultable_hjb.assumptions import (FAILS, HOLDS, UNVERIFIED,
                                         AssumptionEntry, AssumptionReport,
                                         WindowViolation, cir_moment_bound,
                                         drift_changed_cir, feller_check)
from defaultable_hjb.model import ModelError
from oracles import mc_cir_weight_probe, mc_integrability_probe


def _const_model(rho):
    def const(c):
        return lambda x: c * np.ones_like(np.asarray(x, dtype=float))

    return dh.make_custom_model(dh.Domain1D(-2.0, 2.0), b=const(0.0),
                                A=const(1.0), mu=const(1.0), sigma=const(1.0),
                                rho=const(rho), gamma=const(0.5))


def test_feller_check_witness():
    e = feller_check(0.25, 0.06, 0.1)
    assert e.id == "factor-sde" and e.status == HOLDS
    assert "0.01" in e.witness
    e2 = feller_check(0.25, 0.06, 0.2)
    assert e2.status == FAILS


def test_entry_rejects_unknown_status():
    with pytest.raises(ValueError):
        AssumptionEntry("x", "Maybe", "")


def test_static_checks_paper_model_hold(paper_model):
    rep = dh.check_static_assumptions(paper_model, dh.bond_claim(1.0))
    assert rep.all_hold
    ids = [e.id for e in rep.entries]
    assert ids == ["state-domain", "factor-sde", "default-intensity",
                   "asset-coefficients", "claim-bounded"]


def test_static_checks_flag_bad_correlation():
    rep = dh.check_static_assumptions(_const_model(1.5), dh.zero_claim())
    assert rep.status("asset-coefficients") == FAILS
    assert rep.any_fail
    assert rep.status("factor-sde") == UNVERIFIED


def test_report_render_csv_merge(tmp_path):
    r1 = AssumptionReport(entries=[AssumptionEntry("a", HOLDS, 'w "quoted"')])
    r2 = AssumptionReport(entries=[AssumptionEntry("b", FAILS, "bad")])
    merged = AssumptionReport(entries=r1.entries + r2.entries)
    assert [e.id for e in merged.entries] == ["a", "b"]
    assert not merged.all_hold and merged.any_fail
    txt = merged.render_text()
    assert "[Holds] a" in txt and "[Fails] b" in txt
    # the CSV goes out through the CLI writer
    cli._write(cli.RunConfig(out_dir=str(tmp_path)), "rep.csv",
               ["model = test"], cli._report_lines(merged))
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert lines[0] == "# model = test"
    assert lines[1] == "id,status,witness"
    assert lines[2] == "a,Holds,\"w 'quoted'\""
    with pytest.raises(KeyError):
        merged.entry("zzz")


def test_ou_integrability_holds():
    p = dh.OUParams(b_mr=0.5, mu1=0.2, mu2=0.8, sigma_const=1.0,
                    gamma_const=0.1, rho_const=-0.3)
    rep = dh.check_ou_integrability(p, 1.0)
    assert rep.all_hold
    assert "eps" in rep.entry("incomplete-market-integrability").witness


def test_ou_integrability_unconstrained_when_ell_bounded():
    p = dh.OUParams(b_mr=0.5, mu1=0.2, mu2=0.0, sigma_const=1.0,
                    gamma_const=0.1, rho_const=0.0)
    rep = dh.check_ou_integrability(p, 1.0)
    assert rep.all_hold
    assert "unconstrained" in rep.entry(
        "incomplete-market-integrability").witness


def test_ou_integrability_degenerate_horizon():
    p = dh.OUParams(b_mr=0.5, mu1=0.0, mu2=1.0, sigma_const=1.0,
                    gamma_const=0.1, rho_const=0.0)
    with pytest.raises(ModelError):
        dh.check_ou_integrability(p, 0.0)


def test_ou_perfect_correlation_reroutes():
    p = dh.OUParams(b_mr=0.5, mu1=0.0, mu2=1.0, sigma_const=1.0,
                    gamma_const=0.1, rho_const=1.0)
    rep = dh.check_ou_integrability(p, 1.0)
    assert rep.status("incomplete-market-integrability") == FAILS


def test_cir_moment_bound_worked_example():
    # kappa=0.25, theta=0.06, xi=0.1, A=0, B=1.5625, x=0.06, T=1
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    bound, consts = cir_moment_bound(P, 0.0, 1.5625, 0.06, 1.0)
    assert consts.C_const == 0.0
    assert consts.D_const == pytest.approx(7.322330470336313, rel=1e-12)
    assert consts.lambda_const == pytest.approx(0.10983495705504469, rel=1e-12)
    assert bound == pytest.approx(np.exp(0.06 * consts.D_const
                                         + consts.lambda_const), rel=1e-14)
    assert bound == pytest.approx(1.7318233019477358, rel=1e-12)


def test_cir_moment_bound_window_violations():
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    class Q:  # kappa*theta - xi^2/2 = -0.005
        kappa, theta_lr, xi = 0.25, 0.06, 0.2

    err = pytest.raises(WindowViolation, cir_moment_bound, P, 0.0,
                        0.25 ** 2 / (2 * 0.1 ** 2), 0.06, 1.0).value
    assert err.expression == "1 - 2 xi^2 B / kappa^2"
    err = pytest.raises(WindowViolation, cir_moment_bound, P, 1.0, 0.0,
                        0.06, 1.0).value  # A above its window
    assert err.expression == "1 - 2 xi^2 A / (kappa*theta - xi^2/2)^2"
    err = pytest.raises(WindowViolation, cir_moment_bound, Q, 0.1, 1.0,
                        0.06, 1.0).value
    assert err.expression == "kappa*theta - xi^2/2"
    assert err.value == pytest.approx(-0.005, rel=1e-12)
    with pytest.raises(WindowViolation):
        cir_moment_bound(P, 0.0, 1.0, -0.06, 1.0)
    with pytest.raises(WindowViolation):
        cir_moment_bound(P, -1.0, 0.0, 0.06, 1.0)
    err = pytest.raises(WindowViolation,
                        cir_moment_bound, P, 0.0, -1.0, 0.06, 1.0).value
    assert err.expression == "B coefficient" and err.value == -1.0


def test_cir_moment_bound_continuity_at_zero_A():
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    b0, _ = cir_moment_bound(P, 0.0, 0.5, 0.06, 1.0)
    b1, c1 = cir_moment_bound(P, 1e-10, 0.5, 0.06, 1.0)
    assert c1.C_const > 0
    assert b1 == pytest.approx(b0, rel=1e-4)


def test_cir_moment_bound_monotone_in_T_and_B():
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    b1, _ = cir_moment_bound(P, 0.0, 0.5, 0.06, 1.0)
    b2, _ = cir_moment_bound(P, 0.0, 0.5, 0.06, 2.0)
    b3, _ = cir_moment_bound(P, 0.0, 1.0, 0.06, 1.0)
    assert b2 > b1 and b3 > b1 and b1 > 1.0


def test_drift_changed_cir():
    p = dh.paper_cir_params()
    d_phys = drift_changed_cir(p, "physical")
    assert d_phys.kappa == p.kappa and d_phys.theta_lr == p.theta_lr
    d0 = drift_changed_cir(p, "p0")
    # kappa-tilde = kappa + xi rho (mu2 - gamma2); mu1 = gamma1 = 0
    want_k = p.kappa + p.xi * p.rho_const * (p.mu2 - p.gamma2)
    assert d0.kappa == pytest.approx(want_k, rel=1e-12)
    assert d0.kappa * d0.theta_lr == pytest.approx(p.kappa * p.theta_lr,
                                                   rel=1e-12)
    dp = drift_changed_cir(p, "pp", p_exp=1.5)
    want_kp = p.kappa - 0.5 * p.xi * p.rho_const * (p.mu2 - p.gamma2)
    assert dp.kappa == pytest.approx(want_kp, rel=1e-12)
    with pytest.raises(ValueError):
        drift_changed_cir(p, "q-measure")


def test_cir_integrability_paper_params_hold(paper_pref):
    rep = dh.check_cir_integrability(dh.paper_cir_params(), paper_pref)
    assert rep.all_hold
    ids = [e.id for e in rep.entries]
    assert "perfect-correlation" not in ids
    for key in ("feller-strict", "incomplete-market-integrability",
                "dual-drift-integrability", "moment-drift-integrability"):
        assert rep.status(key) == HOLDS


def test_cir_integrability_feller_violation_fails(paper_pref):
    p = dh.CIRParams(kappa=0.25, theta_lr=0.06, xi=0.2, mu1=0, mu2=1.3608,
                     sigma_scale=1.2247, gamma1=0, gamma2=0.4145,
                     rho_const=-0.53)
    rep = dh.check_cir_integrability(p, paper_pref)
    assert rep.status("feller-strict") == FAILS
    assert rep.any_fail


def test_cir_integrability_perfect_correlation(paper_pref):
    base = dh.paper_cir_params()
    ok = dh.CIRParams(kappa=base.kappa, theta_lr=base.theta_lr, xi=base.xi,
                      mu1=0.0, mu2=base.mu2, sigma_scale=base.sigma_scale,
                      gamma1=0.0, gamma2=base.gamma2, rho_const=-1.0)
    rep = dh.check_cir_integrability(ok, paper_pref)
    e = rep.entry("perfect-correlation")
    # rho = -1: rho*(mu2-gamma2) < 0 must still exceed -kappa/xi^2 = -25
    assert e.status == HOLDS
    bad = dh.CIRParams(kappa=0.01, theta_lr=0.5, xi=0.1, mu1=0.0, mu2=2.0,
                       sigma_scale=1.0, gamma1=0.0, gamma2=0.5, rho_const=-1.0)
    rep2 = dh.check_cir_integrability(bad, paper_pref)
    assert rep2.status("perfect-correlation") == FAILS


def test_check_model_dispatch(paper_model, paper_pref):
    rep = dh.check_model(paper_model, dh.zero_claim(), paper_pref)
    assert rep.all_hold and len(rep.entries) == 9
    custom = _const_model(0.0)
    rep2 = dh.check_model(custom, dh.zero_claim(), paper_pref)
    assert rep2.status("incomplete-market-integrability") == UNVERIFIED
    # the witness names no probe: the package ships none
    assert "probe" not in rep2.entry("incomplete-market-integrability").witness
    assert len(rep2.entries) == 6


def test_mc_integrability_probe_eps_zero_is_one(paper_model):
    est, _ = mc_integrability_probe(paper_model, "physical", 0.0, 0.06, 1.0,
                                    n_paths=200, n_steps=50)
    assert est.mean == pytest.approx(1.0, abs=1e-14)
    assert est.std_error == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        mc_integrability_probe(paper_model, "physical", -1.0, 0.06, 1.0,
                               n_paths=10, n_steps=10)
    with pytest.raises(ValueError):
        mc_integrability_probe(paper_model, "q", 0.1, 0.06, 1.0,
                               n_paths=10, n_steps=10)


def test_mc_probe_finite_for_paper_model(paper_model):
    est, exploded = mc_integrability_probe(paper_model, "p0", 0.05, 0.06,
                                           1.0, n_paths=2000, n_steps=100,
                                           seed=4)
    assert not exploded
    assert 1.0 < est.mean < 2.0


def test_mc_cir_weight_probe_respects_bound():
    class P:
        kappa, theta_lr, xi = 0.25, 0.06, 0.1

    bound, _ = cir_moment_bound(P, 0.0, 1.5625, 0.06, 1.0)
    est = mc_cir_weight_probe(P, 0.0, 1.5625, 0.06, 1.0,
                              n_paths=4000, n_steps=200, seed=1)
    assert est.mean <= bound + 3.0 * est.std_error
    assert est.mean > 1.0


def test_window_certificate_holds_where_the_closed_form_refuses(paper_pref):
    # mu2 = gamma2 puts B = 0 in the window; the closed form needs D > 0
    base = dh.paper_cir_params()
    p = dh.CIRParams(kappa=base.kappa, theta_lr=base.theta_lr, xi=base.xi,
                     mu1=0.01, mu2=base.gamma2, sigma_scale=base.sigma_scale,
                     gamma1=0.0, gamma2=base.gamma2, rho_const=base.rho_const)
    rep = dh.check_cir_integrability(p, paper_pref)
    assert rep.status("incomplete-market-integrability") == HOLDS
    err = pytest.raises(WindowViolation, cir_moment_bound,
                        drift_changed_cir(p, "physical"), 1e-6, 0.0,
                        0.06, 1.0).value
    assert err.expression == "D (need B > 0 when A > 0)"


def test_cir_moment_drift_refines_p_toward_one(paper_pref):
    # the grid 1.05..2.0 misses; p = 1.025 fits
    base = dh.paper_cir_params()
    p = dh.CIRParams(kappa=base.kappa, theta_lr=base.theta_lr, xi=base.xi,
                     mu1=0.5, mu2=base.mu2, sigma_scale=base.sigma_scale,
                     gamma1=base.gamma1, gamma2=base.gamma2,
                     rho_const=base.rho_const)
    rep = dh.check_cir_integrability(p, paper_pref)
    assert rep.all_hold
    assert rep.entry("moment-drift-integrability").witness.startswith(
        "p = 1.025: exponent p(p-1)/2 = 0.0128125 fits")


def test_ou_steep_slope_reports_moment_drift():
    rep = dh.check_ou_integrability(dh.OUParams(1, 0, 5, 1, 0.5, 0), 1.0)
    assert rep.all_hold
    assert rep.entry("moment-drift-integrability").witness.startswith(
        "p = 1.025 gives exponent p(p-1)/2 = 0.0128125")


def test_ou_moment_drift_fails_when_no_p_fits():
    # explosive factor: the worst variance on [0, 1] is about 3e41
    rep = dh.check_ou_integrability(dh.OUParams(-50, 0, 1, 1, 0.5, 0), 1.0)
    e = rep.entry("moment-drift-integrability")
    assert e.status == FAILS
    assert e.witness == "no p in (1, 2] admits the required exponent"


# The bounded INI parameter box of the property tests; the horizon T is
# drawn from (0.05, 5] with each kind.
_T = st.floats(0.05, 5.0)
_CIR_BOX = dict(kappa=st.floats(0.01, 5.0), theta_lr=st.floats(0.001, 2.0),
                xi=st.floats(0.01, 2.0), mu1=st.floats(-3.0, 3.0),
                mu2=st.floats(-5.0, 5.0), sigma_scale=st.floats(0.1, 3.0),
                gamma1=st.floats(0.0, 2.0), gamma2=st.floats(0.01, 2.0),
                rho_const=st.floats(-1.0, 1.0))
_OU_BOX = dict(b_mr=st.floats(-1.0, 3.0), mu1=st.floats(-3.0, 3.0),
               mu2=st.floats(-5.0, 5.0), sigma_const=st.floats(0.1, 3.0),
               gamma_const=st.floats(0.01, 2.0),
               rho_const=st.floats(-1.0, 1.0))
_BOX_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _report(params, T):
    m = (dh.make_ou_model(params) if isinstance(params, dh.OUParams)
         else dh.make_cir_model(params, enforce_feller=False))
    return dh.check_model(m, dh.bond_claim(1.0),
                          dh.Preferences(alpha=3.0, horizon_T=T))


@_BOX_SETTINGS
@given(st.builds(dh.CIRParams, **_CIR_BOX), _T)
def test_cir_box_report_and_moment_drift(params, T):
    rep = _report(params, T)  # never raises
    if (rep.status("feller-strict") == HOLDS
            and rep.status("incomplete-market-integrability") == HOLDS):
        assert rep.status("moment-drift-integrability") == HOLDS


@_BOX_SETTINGS
@given(st.builds(dh.OUParams, **_OU_BOX), _T)
def test_ou_box_report_and_integrability(params, T):
    rep = _report(params, T)  # never raises
    if params.rho_const ** 2 < 1.0:
        for key in ("incomplete-market-integrability",
                    "dual-drift-integrability", "moment-drift-integrability"):
            assert rep.status(key) == HOLDS
