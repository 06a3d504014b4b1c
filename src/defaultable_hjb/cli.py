"""Command-line interface.

Subcommands: solve | price-bond | price-insurance | verify |
check-assumptions.  Configuration is a flat INI file with sections
model / claim / preferences / grid / mc / output, read through one
schema (_SCHEMA); unknown keys, keys of the other model kind, values
that are not finite and repeated notionals are hard errors.  Every
output file is written by _write; the library modules open no files.
Exit codes: 0 success, 1 verification/check failure, 2 configuration
error or a solve that does not converge.
"""

from __future__ import annotations

import argparse
import configparser
import math
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
from .lambertw import ThetaDomainError
from .solver import (GridSpec, NewtonDivergence, Surface, _full_segment,
                     _local_segment, _march, _protected_segment, block_rows,
                     solve_claims, solve_full)


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


class CheckFailure(RuntimeError):
    """A verification or assumption check failed; maps to exit code 1."""


# config key -> CIRParams field; the defaults are the paper's parameters
_CIR_FIELDS = {"kappa": "kappa", "theta": "theta_lr", "xi": "xi",
               "mu1": "mu1", "mu2": "mu2", "sigma": "sigma_scale",
               "gamma1": "gamma1", "gamma2": "gamma2", "rho": "rho_const"}
_CIR_DEFAULTS = {key: getattr(paper_cir_params(), name)
                 for key, name in _CIR_FIELDS.items()}
_OU_DEFAULTS = {"b": 1.0, "mu1": 0.0, "mu2": 1.0, "sigma": 1.0,
                "gamma": 0.5, "rho": 0.0}
# model kind -> its [model] keys and their defaults
_KIND_DEFAULTS = {"cir": _CIR_DEFAULTS, "ou": _OU_DEFAULTS}


@dataclass
class RunConfig:
    kind: str = "cir"
    model_values: dict = field(default_factory=lambda: dict(_CIR_DEFAULTS))
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
        lines += [f"model.{k} = {v:.17g}"
                  for k, v in sorted(self.model_values.items())]
        lines += [
            f"claim.phi = {self.phi}",
            "claim.q = " + ",".join(f"{q:.17g}" for q in self.q_list),
            f"preferences.alpha = {self.alpha:.17g}",
            f"preferences.horizon = {self.horizon:.17g}",
            f"grid.nx = {self.nx}", f"grid.nt = {self.nt}",
            f"mc.paths = {self.paths}", f"mc.steps = {self.steps}",
            f"mc.seed = {self.seed}", f"mode = {self.mode}",
        ]
        if self.mode == "local":
            lines.append(f"mode.local_n = {self.local_n}")
        for key in ("x_min", "x_max", "x0"):
            if getattr(self, key) is not None:
                lines.append(f"model.{key} = {getattr(self, key):.17g}")
        return lines


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("the value must be finite")
    return value


def _one_of(*allowed):
    def read(text: str) -> str:
        value = text.strip().lower()
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}")
        return value
    return read


def _notionals(text: str) -> list:
    qs = [_finite(v) for v in text.replace(",", " ").split()]
    if not qs:
        raise ValueError("expected at least one notional")
    if len(set(qs)) < len(qs):
        raise ValueError("the notionals must be distinct")
    return qs


# section -> key -> (RunConfig field, reader).  [model] also takes the keys
# of its kind's defaults, read as finite floats into model_values.
_SCHEMA = {
    "model": {"kind": ("kind", _one_of(*_KIND_DEFAULTS)),
              "x_min": ("x_min", _finite), "x_max": ("x_max", _finite),
              "x0": ("x0", _finite)},
    "claim": {"phi": ("phi", _one_of("zero", "one")),
              "q": ("q_list", _notionals)},
    "preferences": {"alpha": ("alpha", _finite),
                    "horizon": ("horizon", _finite)},
    "grid": {"nx": ("nx", int), "nt": ("nt", int)},
    "mc": {"paths": ("paths", int), "steps": ("steps", int),
           "seed": ("seed", int)},
    "output": {"dir": ("out_dir", str)},
}


def _read(section: str, key: str, reader, text: str):
    try:
        return reader(text)
    except ValueError as exc:
        raise ConfigError(
            f"bad config value {section}.{key} = {text}: {exc}") from exc


def parse_config(path: str | None, args) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
            for section in parser.sections():
                if section not in _SCHEMA:
                    raise ConfigError(f"unknown config section [{section}]")
            if "model" not in parser:
                raise ConfigError("missing [model] section")
            cfg.kind = _read("model", "kind", _SCHEMA["model"]["kind"][1],
                             parser["model"].get("kind", cfg.kind))
            cfg.model_values = dict(_KIND_DEFAULTS[cfg.kind])
            for section in parser.sections():
                for key, text in parser[section].items():
                    if section == "model" and key in cfg.model_values:
                        cfg.model_values[key] = _read(section, key, _finite,
                                                      text)
                    elif key in _SCHEMA[section]:
                        name, reader = _SCHEMA[section][key]
                        setattr(cfg, name, _read(section, key, reader, text))
                    else:
                        raise ConfigError(
                            f"unknown key {key!r} in section [{section}]")
        except (configparser.Error, UnicodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") \
                from exc

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
    try:
        lo, hi = default_truncation(m)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
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


def _write(cfg: RunConfig, name: str, header, lines) -> None:
    """One output file in the output directory: `# ` header lines, then
    the lines.  A file that cannot be written is a ConfigError."""
    path = os.path.join(cfg.out_dir, name)
    try:
        with open(path, "w", newline="\n") as fh:
            for line in header:
                fh.write(f"# {line}\n")
            for line in lines:
                fh.write(f"{line}\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# The block formatter.  A value x with 1e-4 <= |x| < 1e17 is written in
# fixed notation from its 17 significant digits D = round(|x| * 10**(16-k)),
# k = floor(log10|x|), which Dekker's error-free product gives exactly; every
# other value (0, -0, exponent form, nan, inf) goes through '%.17g' itself.
# A value's text is made in a 40-byte row of 8-byte words,
#   - 0 . 0 0 0 d0 .  d1 . d2 . d3 . d4 .  ...  d13 . d14 . d15 . d16 ,
# in which every layout that %g can give appears as a subsequence; a mask
# of the bytes to keep, looked up by (sign, k, trailing zeros), cuts it out.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _halves(a):
    """(high, low) 26-bit halves of a with high + low == a."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


_POW10 = np.array([float(10 ** s) for s in range(21)])  # exact in binary64
_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _scaled(a, k):
    """(p, e) with p + e == a * 10**(16 - k) exactly (Dekker, 1971)."""
    s = 16 - k
    bh, bl = _POW10_HIGH[s], _POW10_LOW[s]
    ah, al = _halves(a)
    p = a * _POW10[s]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _decade(p, e):
    """-1, 0 or 1 where p + e is below, in or above [1e16, 1e17)."""
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    return above.astype(np.int64) - below


def _digit_tables():
    """The 8-byte word "d.d.d.d." of each group of four digits 0..9999,
    then the word "-0.000d." of each leading digit d at 10000 + d; and the
    trailing zeros of each group."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    chars = np.full((10000, 8), ord("."), np.uint8)
    chars[:, ::2] = digits.T + ord("0")
    lead = b"".join(b"-0.000%d." % d for d in range(10))
    words = np.concatenate([chars.view(np.uint64).ravel(),
                            np.frombuffer(lead, np.uint64)])
    zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(
        axis=0, dtype=np.uint8)
    return words, zeros


_WORDS, _QUAD_ZEROS = _digit_tables()


def _keep_masks():
    """The bytes of the 40-byte row to keep: one mask per (sign, k, trailing
    zeros) of a fixed-notation value, then one per length 0..24 of a text
    written at the start of the row."""
    neg, k, z = (v.ravel()[:, None] for v in np.meshgrid(
        [0, 1], np.arange(-4, 17), np.arange(17), indexing="ij"))
    col = np.arange(40)
    # digits kept: %g strips trailing zeros after the point, and the point
    # with them
    kept = np.where(k < 0, 17 - z, np.maximum(17 - z, k + 1))
    fixed = ((col == 0) & (neg == 1)
             | (k < 0) & (col >= 1) & (col < 2 - k)              # 0.00
             | (col >= 6) & (col % 2 == 0) & (col < 6 + 2 * kept)
             | (k >= 0) & (col == 7 + 2 * k) & (kept > k + 1)    # point
             | (col == 39))                                      # separator
    written = (col < np.arange(25)[:, None]) | (col == 39)
    return np.vstack([fixed, written])


_KEEP = _keep_masks()
_WRITTEN = 2 * 21 * 17  # the first mask of a written text


def _text_rows(block) -> list:
    """Each row of a 2-D block as the comma-separated '%.17g' text of its
    values, byte for byte."""
    x = np.asarray(block, dtype=np.float64)
    n_rows, n_cols = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    p, e = _scaled(a, k)
    # log10 only estimates k: the digits truncated at k set it
    off = _decade(p, e)
    if off.any():
        k = np.clip(k + off, -4, 16)
        p, e = _scaled(a, k)
        # a value that log10 misjudged by more than one goes to '%.17g'
        fast &= _decade(p, e) == 0
        p = np.where(fast, p, 1e16)
    # p is an even integer here, so round-half-even of p + e is p + rint(e);
    # D < 10**17, as the double below each power of ten in the range lies
    # more than half a unit of the 17th digit below it
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # each temporary is dropped after its last use, which keeps a block's
    # working set, and so the heap top that glibc may trim after it, small
    del a, p, e, off
    # D as its leading digit's word and four groups of four digits
    groups = np.empty((x.size, 5), np.int64)
    for i in (4, 3, 2, 1):
        q = d // 10000
        groups[:, i] = d - q * 10000
        d = q
    groups[:, 0] = d + 10000
    # D's trailing zeros: a group adds its own where all later groups are 0
    zeros = _QUAD_ZEROS[groups[:, 4]]
    for i in (3, 2, 1):
        zeros += (zeros == 4 * (4 - i)) * _QUAD_ZEROS[groups[:, i]]
    cls = (np.signbit(x) * 21 + k + 4) * 17 + zeros
    del k, zeros

    words = _WORDS[groups]
    del groups
    text = words.view(np.uint8)
    text[:, 39] = ord(",")
    slow = np.flatnonzero(~fast)
    if slow.size:
        written = ["%.17g" % v for v in x[slow].tolist()]
        text[slow, :24] = np.array(written, "S24").view(np.uint8).reshape(
            -1, 24)
        cls[slow] = _WRITTEN + np.array([len(s) for s in written])
    # row by row, as compress takes an index of 8 bytes per byte it keeps;
    # each row's last separator is dropped
    rows = zip(cls.reshape(n_rows, n_cols), text.reshape(n_rows, n_cols, 40))
    return [np.compress(_KEEP[c].ravel(), t.ravel())[:-1].tobytes()
            .decode("ascii") for c, t in rows]


def _columns(columns: dict) -> list:
    """A row of column names, then the rows at 17 significant digits;
    columns of different lengths raise ValueError."""
    return [",".join(columns)] + _text_rows(
        np.column_stack(list(columns.values())))


# the bytes per value of _text_rows' largest temporaries, its text rows and
# digit groups
_TEXT_BYTES = 40


def _surface_lines(G: Surface):
    """A row of the x nodes, then one row per time node, 17 digits.  The
    rows are formatted a block at a time (see block_rows), 8 rows at 401
    nodes."""
    yield "t," + _text_rows(G.grid.xs[None])[0]
    values = G.values
    ts = G.grid.ts[:len(values)]
    step = block_rows(values.shape[1] + 1, _TEXT_BYTES)
    for i in range(0, len(ts), step):
        yield from _text_rows(np.column_stack((ts[i:i + step],
                                               values[i:i + step])))


def _estimate_lines(estimates: list, seed: int) -> list:
    return ["label,mean,std_error,n_paths,seed"] + [
        f"{e.label},{e.mean:.17g},{e.std_error:.17g},{e.n_paths},{seed}"
        for e in estimates]


def _report_lines(report: asm.AssumptionReport) -> list:
    """id,status,witness rows; a witness's double quotes become single."""
    lines = ["id,status,witness"]
    for e in report.entries:
        witness = e.witness.replace('"', "'")
        lines.append(f'{e.id},{e.status},"{witness}"')
    return lines


def _solve_levels(cfg: RunConfig, m, claim, pref, grids: list,
                  whole: list) -> list:
    """(surface, step residuals) of cfg.mode on each grid, the grids
    marched as one lockstep block, each bit for bit its own solve.  A
    level whose entry of whole is true keeps every time row and its step
    residuals; any other keeps the two time rows that Surface.at(0, x0)
    reads, and no residuals (None).  In protected mode the zero claim's
    full-equation ladder marches first, kept whole for the insurance
    rates, then the protected ladder on those rates."""
    if cfg.mode == "local":
        try:
            loc = build_localization(m, cfg.local_n)
        except ModelError as exc:
            raise ConfigError(f"bad --mode local:{cfg.local_n}: {exc}") \
                from exc
        segments = [_local_segment(m, claim, pref, loc,
                                   replace(g, x_min=loc.outer[0],
                                           x_max=loc.outer[1]))
                    for g in grids]
    elif cfg.mode == "protected":
        zero = _march([_full_segment(m, zero_claim(), pref, g)
                       for g in grids])[0]
        # each zero-claim surface is dropped once its rate is formed
        segments = [_protected_segment(
                        m, pref, pricing.insurance_rate(zero.pop(0), m, pref),
                        g) for g in grids]
    else:
        segments = [_full_segment(m, claim, pref, g) for g in grids]
    return list(zip(*_march([replace(seg, rows=None if w else 2, record=w)
                             for seg, w in zip(segments, whole)])))


# what fails a lockstep ladder: the levels are then solved one by one
_LADDER_FAILURES = (NewtonDivergence, ThetaDomainError, ModelError,
                    pricing.RadicandNegative)


def cmd_solve(cfg: RunConfig) -> int:
    m, claims, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    # self-convergence at (t=0, x0) on nx/4, nx/2 and nx; the finest level
    # is written to surface.csv
    dims = [(max(cfg.nx // div, 16), max(cfg.nt // div, 16))
            for div in (4, 2, 1)]
    grids = [make_grid(cfg, m, pref, nx=nx, nt=nt)
             for nx, nt in dims[:2]] + [grid]
    try:
        levels = _solve_levels(cfg, m, claims[0], pref, grids,
                               [False, False, True])
    except _LADDER_FAILURES:
        # level by level, nx first, then nx/4 and nx/2, with the files of
        # nx written before the next: the first level that fails alone
        # raises its own error
        levels = [None, None] + _solve_levels(cfg, m, claims[0], pref,
                                              [grid], [True])
    G, res = levels[-1]
    _write(cfg, "surface.csv", header, _surface_lines(G))
    np.abs(res, out=res)  # the record is read only here
    _write(cfg, "residual_summary.txt", header,
           [f"max_abs_residual = {float(np.max(res)):.17g}",
            f"mean_abs_residual = {float(np.mean(res)):.17g}"])

    x0 = _default_x0(cfg, m)
    rows, prev = ["nx,nt,value_at_x0,diff_from_previous"], None
    for (nx, nt), g, level in zip(dims, grids, levels):
        if level is None:
            level = _solve_levels(cfg, m, claims[0], pref, [g], [False])[0]
        v = float(level[0].at(0.0, np.atleast_1d(x0))[0])
        d = "" if prev is None else f"{v - prev:.17g}"
        rows.append(f"{nx},{nt},{v:.17g},{d}")
        prev = v
    lo, hi = G.grid.x_min, G.grid.x_max
    notes = [] if lo <= x0 <= hi else [
        f"probe x0 = {x0:.17g} lies outside the grid [{lo:.17g}, {hi:.17g}]; "
        "value is clamped to the edge"]
    for note in notes:
        print(f"solve: warning: {note}", file=sys.stderr)
    _write(cfg, "convergence.csv", header + notes, rows)
    print(f"solve: wrote surface.csv (mode={cfg.mode}, "
          f"min={G.values.min():.6g}, max={G.values.max():.6g})")
    return 0


def cmd_price_bond(cfg: RunConfig) -> int:
    m, _, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    # the zero claim and every notional march as one block; the price is
    # nodewise and only the t = 0 row is written, so each keeps that row
    G0, *Gqs = solve_claims(
        m, [zero_claim()] + [bond_claim(q) for q in cfg.q_list], pref, grid,
        rows=1)
    lo, hi = invariant_band(m)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    cols = {"x": grid.xs[mask]}
    for q, Gq in zip(cfg.q_list, Gqs):
        p = pricing.indifference_price(Gq, G0, q)
        cols[f"p_q{q:.17g}"] = p[0, mask]
    _write(cfg, "price_bond.csv", header, _columns(cols))
    print(f"price-bond: wrote price_bond.csv ({len(cfg.q_list)} notionals, "
          f"band [{lo:.5g}, {hi:.5g}])")
    return 0


def cmd_price_insurance(cfg: RunConfig) -> int:
    m, _, pref = build_problem(cfg)
    grid = make_grid(cfg, m, pref)
    header = cfg.header_lines()
    # the maps are nodewise and only the t = 0 row is written: keep that row
    G = solve_full(m, zero_claim(), pref, grid, rows=1)
    pol = pricing.optimal_policy(G, m, pref)
    f = pricing.insurance_rate(G, m, pref)
    upper, _ = pricing.insurance_bounds(G, pol, m, pref)
    lo, hi = invariant_band(m)
    mask = (grid.xs >= lo) & (grid.xs <= hi)
    _write(cfg, "insurance.csv", header, _columns(
        {"x": grid.xs[mask], "rate": f[0, mask],
         "upper_bound": upper[0, mask],
         "physical_intensity": m.gamma(grid.xs[mask])}))
    ls, curve, ub = pricing.short_horizon_curve()
    _write(cfg, "short_horizon_rate.csv", ["gamma_over_sigma2 = 2/3"] + header,
           _columns({"alpha_pi": ls, "rate_over_sigma2": curve,
                     "upper_bound_over_sigma2": ub}))
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
    if not grid.x_min <= x0 <= grid.x_max:
        raise ConfigError(f"model.x0 = {x0:g} lies outside the grid "
                          f"[{grid.x_min:g}, {grid.x_max:g}]")
    # the draw of the noise starts before the PDE solve, so that the kernel
    # maps and zeroes the noise arrays while the PDE is solved; above the
    # work floor a worker that simulates the second path half forks first
    # and stores that half's noise as it is drawn
    with mc.simulate_halves(m, sim, pref.horizon_T) as halves:
        G = solve_full(m, claim, pref, grid)
        if cfg.debug:
            # intentionally wrong surface: the martingale-mass check must
            # fail
            G = Surface(grid=grid, values=G.values + 0.2)
        pol = pricing.optimal_policy(G, m, pref)
        g0 = float(G.at(0.0, np.atleast_1d(x0))[0])
        # the perturbed policy rides the same paths as the optimal one
        # (common random numbers)
        pert = Surface(grid=grid, values=pol.values + 0.5)
        opt, perturbed = halves.simulate([pol, pert])
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
    _write(cfg, "verify.csv", header + [f"pde_value = {g0:.17g}"],
           _estimate_lines([ce, mass, dual, ce_pert], cfg.seed))
    failures = [name for name, gap, tol in checks if not gap <= tol]
    for name, gap, tol in checks:
        status = "pass" if gap <= tol else "FAIL"
        print(f"verify: {name}: gap={gap:.6g} tol={tol:.6g} [{status}]")
    if failures:
        raise CheckFailure("verification failed: " + ", ".join(failures))
    return 0


def cmd_check_assumptions(cfg: RunConfig) -> int:
    m, claims, pref = build_problem(cfg, enforce_feller=False)
    try:
        report = asm.check_model(m, claims[0], pref)
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    header = cfg.header_lines()
    text = report.render_text()
    _write(cfg, "assumptions.csv", header, _report_lines(report))
    _write(cfg, "assumptions.txt", header, [text])
    print(text)
    if report.any_fail:
        raise CheckFailure("assumption check failed")
    return 0


# the flags besides --config and --out, each registered only on the
# subcommands that read it
_FLAGS = {
    "--grid": dict(metavar="NX,NT"),
    "--mode": dict(help="full | local:N | protected"),
    "--seed": dict(type=int),
    "--paths": dict(type=int),
    "--debug": dict(action="store_true",
                    help="perturb the solved surface to exercise the "
                         "failure path of verify"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defaultable-hjb",
        description="HJB solver, bond/insurance pricing, and Monte Carlo "
                    "verification for optimal investment with a defaultable "
                    "asset")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags in (
            ("solve", cmd_solve, ("--grid", "--mode")),
            ("price-bond", cmd_price_bond, ("--grid",)),
            ("price-insurance", cmd_price_insurance, ("--grid",)),
            ("verify", cmd_verify, ("--grid", "--seed", "--paths", "--debug")),
            ("check-assumptions", cmd_check_assumptions, ())):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args)
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot make output directory {cfg.out_dir}: {exc}") from exc
        return args.func(cfg)
    except (ConfigError, ModelError, MemoryError) as exc:
        # a ModelError here is a model that fails on the solver's grid
        # nodes, a MemoryError a grid or path count too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NewtonDivergence, ThetaDomainError) as exc:
        # the values admit no converged solve on this grid, or overflow
        # the product-log's argument
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
