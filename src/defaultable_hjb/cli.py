"""Command-line interface.

Subcommands: solve | price-bond | price-insurance | verify |
check-assumptions.  Configuration is a flat INI file with sections
model / claim / preferences / grid / mc / output; unknown keys are hard
errors.  Exit codes: 0 success, 1 verification/check failure,
2 configuration error or a solve that does not converge.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import assumptions as asm
from . import montecarlo as mc
from . import pricing
from .model import (ModelError, OUParams, CIRParams, Preferences,
                    bond_claim, build_localization, default_truncation,
                    invariant_band, make_cir_model, make_ou_model,
                    paper_cir_params, zero_claim)
from .solver import (GridSpec, NewtonDivergence, Surface, residual,
                     solve_full, solve_local, solve_protected)


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


class CheckFailure(RuntimeError):
    """A verification or assumption check failed; maps to exit code 1."""


_KNOWN_KEYS = {
    "model": {"kind", "kappa", "theta", "xi", "mu1", "mu2", "sigma",
              "gamma1", "gamma2", "gamma", "rho", "b", "x_min", "x_max",
              "x0"},
    "claim": {"phi", "q"},
    "preferences": {"alpha", "horizon"},
    "grid": {"nx", "nt"},
    "mc": {"paths", "steps", "seed"},
    "output": {"dir"},
}


@dataclass
class RunConfig:
    kind: str = "cir"
    model_values: dict = field(default_factory=dict)
    phi: str = "zero"
    q_list: list = field(default_factory=lambda: [1.0])
    alpha: float = 3.0
    horizon: float = 1.0
    nx: int = 200
    nt: int = 200
    paths: int = 100000
    steps: int = 1000
    seed: int = 0
    out_dir: str = "."
    mode: str = "full"
    local_n: int = 4
    x_min: float = None
    x_max: float = None
    x0: float = None
    debug: bool = False

    def header_lines(self) -> list:
        lines = [f"model.kind = {self.kind}"]
        for k in sorted(self.model_values):
            lines.append(f"model.{k} = {self.model_values[k]:.17g}")
        lines += [
            f"claim.phi = {self.phi}",
            "claim.q = " + ",".join(f"{q:g}" for q in self.q_list),
            f"preferences.alpha = {self.alpha:.17g}",
            f"preferences.horizon = {self.horizon:.17g}",
            f"grid.nx = {self.nx}", f"grid.nt = {self.nt}",
            f"mc.paths = {self.paths}", f"mc.steps = {self.steps}",
            f"mc.seed = {self.seed}", f"mode = {self.mode}",
        ]
        if self.mode == "local":
            lines.append(f"mode.local_n = {self.local_n}")
        if self.x0 is not None:
            lines.append(f"model.x0 = {self.x0:.17g}")
        return lines


# config key -> CIRParams field; the defaults are the paper's parameters
_CIR_FIELDS = {"kappa": "kappa", "theta": "theta_lr", "xi": "xi",
               "mu1": "mu1", "mu2": "mu2", "sigma": "sigma_scale",
               "gamma1": "gamma1", "gamma2": "gamma2", "rho": "rho_const"}
_CIR_DEFAULTS = {key: getattr(paper_cir_params(), name)
                 for key, name in _CIR_FIELDS.items()}
_OU_DEFAULTS = {"b": 1.0, "mu1": 0.0, "mu2": 1.0, "sigma": 1.0,
                "gamma": 0.5, "rho": 0.0}


def parse_config(path: str | None, args) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")
        if "model" not in parser:
            raise ConfigError("missing [model] section")
        ms = parser["model"]
        cfg.kind = ms.get("kind", "cir").strip().lower()
        if cfg.kind not in ("cir", "ou"):
            raise ConfigError(f"unknown model kind {cfg.kind!r}")
        try:
            defaults = _CIR_DEFAULTS if cfg.kind == "cir" else _OU_DEFAULTS
            cfg.model_values = {
                k: ms.getfloat(k, v) for k, v in defaults.items()}
            if "x_min" in ms:
                cfg.x_min = ms.getfloat("x_min")
            if "x_max" in ms:
                cfg.x_max = ms.getfloat("x_max")
            if "x0" in ms:
                cfg.x0 = ms.getfloat("x0")
            if "claim" in parser:
                cs = parser["claim"]
                cfg.phi = cs.get("phi", cfg.phi).strip().lower()
                if cfg.phi not in ("zero", "one"):
                    raise ConfigError(f"unknown claim phi {cfg.phi!r}")
                if "q" in cs:
                    cfg.q_list = [float(v) for v in
                                  cs.get("q").replace(",", " ").split()]
                    if not cfg.q_list:
                        raise ConfigError("claim.q must be non-empty")
            if "preferences" in parser:
                ps = parser["preferences"]
                cfg.alpha = ps.getfloat("alpha", cfg.alpha)
                cfg.horizon = ps.getfloat("horizon", cfg.horizon)
            if "grid" in parser:
                gs = parser["grid"]
                cfg.nx = gs.getint("nx", cfg.nx)
                cfg.nt = gs.getint("nt", cfg.nt)
            if "mc" in parser:
                s = parser["mc"]
                cfg.paths = s.getint("paths", cfg.paths)
                cfg.steps = s.getint("steps", cfg.steps)
                cfg.seed = s.getint("seed", cfg.seed)
            if "output" in parser:
                cfg.out_dir = parser["output"].get("dir", cfg.out_dir)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad config value: {exc}") from exc
    else:
        cfg.model_values = dict(_CIR_DEFAULTS)

    # command-line overrides
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "paths", None) is not None:
        cfg.paths = args.paths
    if getattr(args, "grid", None):
        try:
            nx, nt = args.grid.split(",")
            cfg.nx, cfg.nt = int(nx), int(nt)
        except ValueError as exc:
            raise ConfigError("--grid expects NX,NT") from exc
    if getattr(args, "mode", None):
        mode = args.mode
        if mode.startswith("local:"):
            cfg.mode = "local"
            try:
                cfg.local_n = int(mode.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError("--mode local:N expects integer N") from exc
        elif mode in ("full", "local", "protected"):
            cfg.mode = mode
        else:
            raise ConfigError(f"unknown mode {mode!r}")
    cfg.debug = bool(getattr(args, "debug", False))
    return cfg


def build_problem(cfg: RunConfig, enforce_feller: bool = True):
    """(model, claims per q, preferences) from a resolved config.

    Solving requires the Feller condition (enforce_feller=True); the
    assumption checker builds the model permissively so that a violation
    surfaces as a Fails entry rather than a configuration error.
    """
    v = cfg.model_values
    try:
        if cfg.kind == "cir":
            params = CIRParams(**{name: v[key]
                                  for key, name in _CIR_FIELDS.items()})
            m = make_cir_model(params, enforce_feller=enforce_feller)
        else:
            params = OUParams(b_mr=v["b"], mu1=v["mu1"], mu2=v["mu2"],
                              sigma_const=v["sigma"],
                              gamma_const=v["gamma"], rho_const=v["rho"])
            m = make_ou_model(params)
        make = zero_claim if cfg.phi == "zero" else bond_claim
        claims = [make(q) for q in cfg.q_list]
        pref = Preferences(alpha=cfg.alpha, horizon_T=cfg.horizon)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    return m, claims, pref


def make_grid(cfg: RunConfig, m, pref, nx=None, nt=None) -> GridSpec:
    lo, hi = default_truncation(m)
    if cfg.x_min is not None:
        lo = cfg.x_min
    if cfg.x_max is not None:
        hi = cfg.x_max
    # the solver samples the coefficients on every node, edges included
    if lo < m.domain.lower or hi > m.domain.upper:
        raise ConfigError(
            f"bad grid: [{lo:.17g}, {hi:.17g}] leaves the model domain "
            f"({m.domain.lower:g}, {m.domain.upper:g})")
    try:
        return GridSpec(x_min=lo, x_max=hi, n_space=nx or cfg.nx,
                        n_time=nt or cfg.nt, t_end=pref.horizon_T)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _default_x0(cfg: RunConfig, m) -> float:
    if cfg.x0 is not None:
        return cfg.x0
    return m.params.theta_lr if m.kind == "cir" else 0.0


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _solve_mode(cfg: RunConfig, m, claim, pref, grid) -> Surface:
    if cfg.mode == "local":
        try:
            loc = build_localization(m, cfg.local_n)
        except ModelError as exc:
            raise ConfigError(f"bad --mode local:{cfg.local_n}: {exc}") \
                from exc
        lgrid = replace(grid, x_min=loc.outer[0], x_max=loc.outer[1])
        return solve_local(m, claim, pref, loc, lgrid)
    if cfg.mode == "protected":
        G = solve_full(m, zero_claim(), pref, grid)
        f_field = pricing.insurance_rate(G, m, pref)
        return solve_protected(m, pref, f_field, grid)
    return solve_full(m, claim, pref, grid)


def cmd_solve(cfg: RunConfig) -> int:
    m, claims, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    G = _solve_mode(cfg, m, claims[0], pref, grid)
    G.to_csv(_out(cfg, "surface.csv"), header_lines=header)

    res = residual(G, m, pref)
    with open(_out(cfg, "residual_summary.txt"), "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(f"max_abs_residual = {float(np.max(np.abs(res))):.17g}\n")
        fh.write(f"mean_abs_residual = {float(np.mean(np.abs(res))):.17g}\n")

    # self-convergence at (t=0, x0); the finest level is G itself
    x0 = _default_x0(cfg, m)
    levels, values = [], []
    for div in (4, 2, 1):
        nx, nt = max(cfg.nx // div, 16), max(cfg.nt // div, 16)
        g = G if div == 1 else _solve_mode(
            cfg, m, claims[0], pref, make_grid(cfg, m, pref, nx=nx, nt=nt))
        levels.append((nx, nt))
        values.append(float(g.at(0.0, np.atleast_1d(x0))[0]))
    lo, hi = G.grid.x_min, G.grid.x_max
    notes = [] if lo <= x0 <= hi else [
        f"probe x0 = {x0:.17g} lies outside the grid [{lo:.17g}, {hi:.17g}]; "
        "value is clamped to the edge"]
    for note in notes:
        print(f"solve: warning: {note}", file=sys.stderr)
    with open(_out(cfg, "convergence.csv"), "w") as fh:
        for line in header + notes:
            fh.write(f"# {line}\n")
        fh.write("nx,nt,value_at_x0,diff_from_previous\n")
        prev = None
        for (nx, nt), v in zip(levels, values):
            d = "" if prev is None else f"{v - prev:.17g}"
            fh.write(f"{nx},{nt},{v:.17g},{d}\n")
            prev = v
    print(f"solve: wrote surface.csv (mode={cfg.mode}, "
          f"min={G.values.min():.6g}, max={G.values.max():.6g})")
    return 0


def cmd_price_bond(cfg: RunConfig) -> int:
    if not cfg.q_list:
        raise ConfigError("bond pricing needs a non-empty claim.q list")
    m, _, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    G0 = solve_full(m, zero_claim(), pref, grid)
    lo, hi = invariant_band(m)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    cols = {"x": grid.xs[mask]}
    for q in cfg.q_list:
        Gq = solve_full(m, bond_claim(q), pref, grid)
        p = pricing.indifference_price(Gq, G0, q)
        cols[f"p_q{q:g}"] = p[0, mask]
    pricing.curves_to_csv(_out(cfg, "price_bond.csv"), cols,
                          header_lines=header)
    print(f"price-bond: wrote price_bond.csv ({len(cfg.q_list)} notionals, "
          f"band [{lo:.5g}, {hi:.5g}])")
    return 0


def cmd_price_insurance(cfg: RunConfig) -> int:
    m, _, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    G = solve_full(m, zero_claim(), pref, grid)
    pol = pricing.optimal_policy(G, m, pref)
    f = pricing.insurance_rate(G, m, pref)
    upper, _ = pricing.insurance_bounds(G, pol, m, pref)
    lo, hi = invariant_band(m)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    pricing.curves_to_csv(
        _out(cfg, "insurance.csv"),
        {"x": grid.xs[mask], "rate": f[0, mask],
         "upper_bound": upper[0, mask],
         "physical_intensity": np.asarray(m.gamma(grid.xs[mask]),
                                          dtype=float)},
        header_lines=header)
    ls, curve, ub = pricing.short_horizon_curve()
    pricing.curves_to_csv(
        _out(cfg, "short_horizon_rate.csv"),
        {"alpha_pi": ls, "rate_over_sigma2": curve,
         "upper_bound_over_sigma2": ub},
        header_lines=["gamma_over_sigma2 = 2/3"] + header)
    print("price-insurance: wrote insurance.csv and short_horizon_rate.csv")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    m, claims, pref = build_problem(cfg)
    claim = claims[0]
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    x0 = _default_x0(cfg, m)
    try:
        sim = mc.SimConfig(n_paths=cfg.paths, n_steps=cfg.steps, seed=cfg.seed,
                           x0=x0)
    except ValueError as exc:
        raise ConfigError(f"bad [mc] settings: {exc}") from exc
    if not m.domain.contains(x0):
        raise ConfigError(f"model.x0 = {x0:g} lies outside the model domain")
    G = solve_full(m, claim, pref, grid)
    if cfg.debug:
        # intentionally wrong surface: the martingale-mass check must fail
        G = Surface(grid=grid, values=G.values + 0.2)
    pol = pricing.optimal_policy(G, m, pref)
    pol_surface = Surface(grid=grid, values=pol.values)
    g0 = float(G.at(0.0, np.atleast_1d(x0))[0])

    # one path bundle: the perturbed policy rides the same paths as the
    # optimal one (common random numbers)
    pert = Surface(grid=grid, values=pol.values + 0.5)
    bundle = mc.simulate_factor(m, sim, pref.horizon_T)
    mc.simulate_default(m, bundle)
    opt, perturbed = mc.replay_policies(m, [pol_surface, pert], bundle, pref)
    ce = mc.estimate_certainty_equivalent(opt, claim, pref, label="ce")
    mc.dual_density_terminal(G, opt, pref)
    mass = mc.estimate_martingale_mass(opt)
    dual = mc.estimate_dual_value(opt, claim, pref)
    ce_pert = mc.estimate_certainty_equivalent(perturbed, claim, pref,
                                               label="ce-perturbed")

    checks = [
        ("ce-match", abs(ce.mean - g0), 3.0 * max(ce.std_error, 1e-12)),
        ("martingale-mass", abs(mass.mean - 1.0),
         3.0 * max(mass.std_error, 1e-12)),
        ("dual-match", abs(dual.mean - g0),
         3.0 * max(dual.std_error, 1e-12)),
        ("sub-optimality", ce_pert.mean - g0,
         3.0 * max(ce_pert.std_error, 1e-12)),
    ]
    mc.estimates_to_csv(_out(cfg, "verify.csv"),
                        [ce, mass, dual, ce_pert], seed=cfg.seed,
                        header_lines=header + [f"pde_value = {g0:.17g}"])
    failures = [name for name, gap, tol in checks if gap > tol]
    for name, gap, tol in checks:
        status = "pass" if gap <= tol else "FAIL"
        print(f"verify: {name}: gap={gap:.6g} tol={tol:.6g} [{status}]")
    if failures:
        raise CheckFailure("verification failed: " + ", ".join(failures))
    return 0


def cmd_check_assumptions(cfg: RunConfig) -> int:
    m, claims, pref = build_problem(cfg, enforce_feller=False)
    report = asm.check_model(m, claims[0], pref)
    header = cfg.header_lines()
    report.to_csv(_out(cfg, "assumptions.csv"), header_lines=header)
    with open(_out(cfg, "assumptions.txt"), "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(report.render_text() + "\n")
    print(report.render_text())
    if report.any_fail:
        raise CheckFailure("assumption check failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defaultable-hjb",
        description="HJB solver, bond/insurance pricing, and Monte Carlo "
                    "verification for optimal investment with a defaultable "
                    "asset")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("price-bond", cmd_price_bond),
                     ("price-insurance", cmd_price_insurance),
                     ("verify", cmd_verify),
                     ("check-assumptions", cmd_check_assumptions)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--grid", default=None, metavar="NX,NT")
        p.add_argument("--mode", default=None,
                       help="full | local:N | protected")
        p.add_argument("--debug", action="store_true",
                       help="perturb the solved surface to exercise the "
                            "failure path of verify")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NewtonDivergence as exc:
        # the values admit no converged solve on this grid
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
