import contextlib
import dataclasses
import io
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import defaultable_hjb as dh
from defaultable_hjb import cli
from defaultable_hjb import montecarlo as mc
from defaultable_hjb import solver
from defaultable_hjb.cli import ConfigError, main, parse_config
from defaultable_hjb.solver import CornerBlock, GridLookup, central_gradient

REFERENCE_INI = str(Path(__file__).resolve().parents[1] / "perfbench"
                    / "reference.ini")


PAPER_INI = """\
[model]
kind = cir
kappa = 0.25
theta = 0.06
xi = {xi}
mu1 = {mu1}
mu2 = 1.3608
sigma = 1.2247
gamma1 = 0.0
gamma2 = 0.4145
rho = -0.53

[claim]
phi = {phi}
q = {q}

[preferences]
alpha = 3.0
horizon = 1.0

[grid]
nx = {nx}
nt = {nt}

[mc]
paths = {paths}
steps = {steps}
seed = {seed}
"""


def _paper_solve(q_list, nx, nt):
    """Surfaces of the zero claim and each bond alone, as PAPER_INI sets
    them up, and the mask of the reporting band."""
    m = dh.make_cir_model(dh.paper_cir_params())
    pref = dh.Preferences(alpha=3.0, horizon_T=1.0)
    grid = dh.default_grid(m, pref, nx, nt)
    lo, hi = dh.invariant_band(m)
    band = (grid.xs >= lo) & (grid.xs <= hi)
    surfaces = [dh.solve_full(m, dh.zero_claim(), pref, grid)] + [
        dh.solve_full(m, dh.bond_claim(q), pref, grid) for q in q_list]
    return m, pref, surfaces, band


def _write(tmp_path, **kw):
    defaults = dict(xi=0.1, mu1=0.0, phi="zero", q="1", nx=64, nt=64,
                    paths=4000, steps=100, seed=0)
    defaults.update(kw)
    p = tmp_path / "run.ini"
    p.write_text(PAPER_INI.format(**defaults))
    return str(p)


def test_solve_writes_outputs(tmp_path, capsys):
    cfgp = _write(tmp_path)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    for name in ("surface.csv", "residual_summary.txt", "convergence.csv"):
        assert (out / name).exists()
    lines = (out / "surface.csv").read_text().splitlines()
    assert lines[0].startswith("# model.kind = cir")
    # the config echo includes every resolved model value
    echo = [ln for ln in lines if ln.startswith("#")]
    assert any("model.xi = 0.1" in ln for ln in echo)
    assert any("mc.seed = 0" in ln for ln in echo)
    # an unset grid interval is not echoed
    assert not any("model.x_m" in ln for ln in echo)
    txt = (out / "residual_summary.txt").read_text()
    max_res = float(txt.split("max_abs_residual = ")[1].splitlines()[0])
    assert max_res < 1e-8
    conv = (out / "convergence.csv").read_text().splitlines()
    assert conv[-3].split(",")[0] == "16"  # nx/4
    assert conv[-1].split(",")[0] == "64"
    assert not any("lies outside the grid" in ln for ln in conv)
    # the finest level is the written surface itself, probed at x0 = theta
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    xs = np.array(table[0][1:], dtype=float)
    rows = np.array(table[1:], dtype=float)
    ts, values = rows[:, 0], rows[:, 1:]
    probe = CornerBlock(values).gather(
        GridLookup(ts, xs).cell(0.0, np.array([0.06])))[0]
    assert float(conv[-1].split(",")[2]) == probe


def test_solve_local_and_protected_modes(tmp_path, capsys):
    cfgp = _write(tmp_path, nx=48, nt=32)
    out1 = tmp_path / "loc"
    assert main(["solve", "--config", cfgp, "--out", str(out1),
                 "--mode", "local:4"]) == 0
    # x0 = theta = 0.06 lies outside E_4 = (0.25, 4): the probe is clamped
    # to the Dirichlet edge, where G is held at 0, so every value and
    # difference is left empty, and both the file and stderr say why
    conv = (out1 / "convergence.csv").read_text().splitlines()
    note = [ln for ln in conv if ln.startswith("# probe x0 = ")]
    assert len(note) == 1 and "value is clamped to the edge" in note[0]
    assert conv[-3:] == ["16,16,,", "24,16,,", "48,32,,"]
    assert "lies outside the grid" in capsys.readouterr().err
    lines = [ln for ln in (out1 / "surface.csv").read_text().splitlines()
             if not ln.startswith("#")]
    # cutoff boundary: the time-zero row vanishes at both edges
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[1] == 0.0 and row0[-1] == 0.0
    out2 = tmp_path / "prot"
    assert main(["solve", "--config", cfgp, "--out", str(out2),
                 "--mode", "protected"]) == 0
    assert (out2 / "surface.csv").exists()



def _traced_levels(monkeypatch) -> list:
    """The (nx, nt) of the levels of each solve_levels call of the CLI,
    recorded in the list returned."""
    solve, grids = cli.solve_levels, []

    def traced(m, pref, mode, levels, *args, **kwargs):
        grids.append([(g.n_space, g.n_time) for _, g, _, _ in levels])
        return solve(m, pref, mode, levels, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_levels", traced)
    return grids


def test_convergence_solves_a_repeated_grid_once(monkeypatch, tmp_path):
    # at 32 x 16 the nx/4 and nx/2 levels are both the 16 x 16 grid: it is
    # marched once, after the finest level, and the repeat's difference, 0
    # by construction, is left empty
    grids = _traced_levels(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--config", _write(tmp_path, nx=32, nt=16),
                     "--out", str(tmp_path)]) == 0
    assert grids == [[(32, 16), (16, 16)]]
    rows = [ln.split(",") for ln in
            (tmp_path / "convergence.csv").read_text().splitlines()[-3:]]
    assert [r[:2] for r in rows] == [["16", "16"], ["16", "16"],
                                     ["32", "16"]]
    assert rows[0][2] == rows[1][2] != rows[2][2]
    assert [r[3] for r in rows[:2]] == ["", ""]
    assert float(rows[2][3]) == float(rows[2][2]) - float(rows[1][2])


@pytest.mark.parametrize("mode, x0", [("local:4", None), ("full", 5.0)])
def test_a_probe_outside_the_grid_marches_only_the_finest_level(
        monkeypatch, tmp_path, capsys, mode, x0):
    # x0 = theta = 0.06 lies outside local mode's E_4 = (0.25, 4), and
    # x0 = 5 outside the full grid: no level's value is read, so the
    # coarse levels are not marched, and their cells stay empty
    grids = _traced_levels(monkeypatch)
    cfgp = _write(tmp_path, nx=64, nt=32)
    if x0 is not None:
        Path(cfgp).write_text(Path(cfgp).read_text().replace(
            "[model]\n", f"[model]\nx0 = {x0}\n"))
    assert main(["solve", "--config", cfgp, "--out", str(tmp_path),
                 "--mode", mode]) == 0
    assert grids == [[(64, 32)]]
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv[-3:] == ["16,16,,", "32,16,,", "64,32,,"]
    assert "lies outside the grid" in capsys.readouterr().err


def _traced_peak(argv) -> int:
    """The tracemalloc peak of a second call of main(argv), the first
    putting lazy imports and caches in place."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_price_bond_holds_only_the_surfaces_it_writes(tmp_path):
    # price-bond writes the t = 0 row of five surfaces, the zero claim's
    # and q = 1, 3, 5, 10's, and the march keeps only that row of each:
    # besides them it holds the march's per-node arrays over the block's
    # five rows, stated as 100 float64 arrays of 5 x 129 nodes (0.52 MB,
    # the march takes 0.33 MB), and no gradient, price or time row more of
    # a whole surface.  Five whole surfaces (0.67 MB) exceed the allowance.
    nodes = 129
    rows = 5 * nodes * 8
    allowance = 100 * 5 * nodes * 8
    assert _traced_peak(["price-bond", "--config", REFERENCE_INI, "--out",
                         str(tmp_path), "--grid", "128,128"]) \
        <= rows + allowance


def test_price_insurance_holds_only_the_row_it_writes(tmp_path):
    # price-insurance maps the t = 0 row of the zero claim's surface, and
    # the march keeps only that row: besides it, 100 float64 arrays of the
    # 401 nodes (0.32 MB) are allowed, the march's per-node arrays and the
    # short-horizon curve's.  The whole 400^2 surface (1.28 MB) exceeds
    # the allowance.
    nodes = 401
    allowance = 100 * nodes * 8
    assert _traced_peak(["price-insurance", "--config", REFERENCE_INI,
                         "--out", str(tmp_path)]) <= nodes * 8 + allowance


@pytest.mark.parametrize("mode", ["full", "local:4", "protected"])
def test_solve_keeps_two_rows_and_no_record_of_each_coarse_level(
        monkeypatch, tmp_path, mode):
    # convergence.csv reads a coarse level only at (0, x0), from its first
    # two time rows; the finest level is written whole, with its record.
    # The finest level comes first.  Protected mode's zero-claim ladder is
    # kept whole for its rates.  In local mode the probe is moved inside E_4 = (0.25, 4), as the coarse
    # levels are marched only for a probe inside the grid.
    march, marches = solver._march, []

    def kept(segments, *args):
        surfaces, records = march(segments, *args)
        marches.append((segments, list(surfaces), records))
        return surfaces, records

    monkeypatch.setattr(solver, "_march", kept)
    text = Path(REFERENCE_INI).read_text()
    if mode == "local:4":
        text = text.replace("kind = cir\n", "kind = cir\nx0 = 0.5\n")
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--mode", mode, "--config", str(ini),
                     "--out", str(tmp_path), "--grid", "128,128"]) == 0
    assert len(marches) == (2 if mode == "protected" else 1)
    segments, surfaces, records = marches[-1]
    assert [(G.values.shape, None if r is None else r.shape)
            for G, r in zip(surfaces, records)] == [
        ((129, 129), (128, 129)), ((2, 33), None), ((2, 65), None)]
    if mode == "protected":
        assert [(G.values.shape, r) for G, r in zip(*marches[0][1:])] == [
            ((129, 129), None), ((33, 33), None), ((65, 65), None)]
    # what is kept has the bits of the whole ladder's
    whole, whole_records = march([dataclasses.replace(s, rows=None,
                                                      record=True)
                                  for s in segments])
    for G, W in zip(surfaces, whole):
        assert np.array_equal(G.values.view(np.uint64),
                              W.values[:len(G.values)].view(np.uint64))
    # cmd_solve takes the record's absolute values in place
    assert np.array_equal(records[0].view(np.uint64),
                          np.abs(whole_records[0]).view(np.uint64))


def test_verify_without_a_fork_writes_the_same_bytes(monkeypatch, tmp_path,
                                                     capsys):
    # a refused fork (EAGAIN, as under a process limit) runs both path
    # halves in process: exit 0 and the forked run's bytes; with no work
    # floor, the first run forks
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    argv = ["verify", "--config", REFERENCE_INI, "--grid", "64,64",
            "--paths", "1000"]
    outs = []
    for refused in (False, True):
        if refused:
            def refuse():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", refuse)
        out = tmp_path / f"refused{refused}"
        rc = main(argv + ["--out", str(out)])
        outs.append((rc, capsys.readouterr(),
                     (out / "verify.csv").read_bytes()))
    assert outs[0][0] == 0 and outs[1] == outs[0]


@pytest.mark.parametrize("mode", ["full", "local:4", "protected"])
def test_solve_takes_gradients_only_of_rate_blocks(monkeypatch, tmp_path,
                                                   mode):
    # the surfaces solve writes are never differentiated; protected mode's
    # insurance rates differentiate the zero claim's surfaces one rate
    # block of rows at a time, the finest level's first, and full and
    # local mode not at all
    calls = []

    def counted(values, dx):
        calls.append(values.shape)
        return central_gradient(values, dx)

    monkeypatch.setattr(solver, "central_gradient", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--mode", mode, "--config", REFERENCE_INI,
                     "--out", str(tmp_path), "--grid", "128,128"]) == 0
    blocks = []
    if mode == "protected":
        for n in (128, 32, 64):
            step = solver.block_rows(n + 1, 8)
            blocks += [(min(step, n + 1 - a), n + 1)
                       for a in range(0, n + 1, step)]
        assert len(blocks) == 4  # the finest level takes two blocks
    assert calls == blocks


def test_price_bond_outputs_and_monotonicity(tmp_path):
    cfgp = _write(tmp_path, phi="one", q="1 5 10", nx=100, nt=100)
    out = tmp_path / "out"
    assert main(["price-bond", "--config", cfgp, "--out", str(out)]) == 0
    lines = [ln for ln in (out / "price_bond.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "x,p_q1,p_q5,p_q10"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all((data[:, 1:] > 0) & (data[:, 1:] < 1))
    # per-unit price decreases with the notional at every state
    assert np.all(data[:, 1] > data[:, 2])
    assert np.all(data[:, 2] > data[:, 3])
    # the block march gives each claim's own solve, to the last bit
    _, _, (G0, *Gqs), band = _paper_solve((1.0, 5.0, 10.0), 100, 100)
    for col, q, Gq in zip((1, 2, 3), (1.0, 5.0, 10.0), Gqs):
        assert np.array_equal(data[:, col],
                              dh.indifference_price(Gq, G0, q)[0, band])


def test_notionals_keep_17_digits_and_stay_distinct(tmp_path, capsys):
    # q = 1 and q = 1.0000001 are two notionals: two price columns, and an
    # echo that tells them apart
    cfgp = _write(tmp_path, phi="one", q="1 1.0000001 5", nx=32, nt=16)
    out = tmp_path / "out"
    assert main(["price-bond", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "price_bond.csv").read_text().splitlines()
    assert "# claim.q = 1,1.0000001000000001,5" in lines
    table = [ln for ln in lines if not ln.startswith("#")]
    assert table[0] == "x,p_q1,p_q1.0000001000000001,p_q5"
    assert "3 notionals" in capsys.readouterr().out
    # a repeated notional is a config error
    for q in ("1 1 5", "1, 1.0"):
        bad = _write(tmp_path, phi="one", q=q, nx=32, nt=16)
        assert main(["price-bond", "--config", bad, "--out", str(out)]) == 2
        assert "notionals must be distinct" in capsys.readouterr().err


def test_echo_lists_a_set_grid_interval(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[model]\nkind = cir\nx_min = 0.01\nx_max = 0.5\n"
                 "[grid]\nnx = 32\nnt = 16\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    echo = [ln for ln in lines if ln.startswith("#")]
    assert echo[-2:] == ["# model.x_min = 0.01", "# model.x_max = 0.5"]
    xs = lines[len(echo)].split(",")[1:]
    assert (xs[0], xs[-1]) == ("0.01", "0.5")


def test_price_insurance_outputs(tmp_path):
    cfgp = _write(tmp_path, nx=100, nt=100)
    out = tmp_path / "out"
    assert main(["price-insurance", "--config", cfgp, "--out", str(out)]) == 0
    ins = [ln for ln in (out / "insurance.csv").read_text().splitlines()
           if not ln.startswith("#")]
    assert ins[0] == "x,rate,upper_bound,physical_intensity"
    data = np.array([[float(v) for v in ln.split(",")] for ln in ins[1:]])
    assert np.all(data[:, 1] <= data[:, 2] + 1e-12)   # rate <= upper bound
    assert np.all(data[:, 1] >= data[:, 3] - 1e-12)   # rate >= intensity
    assert np.all(np.diff(data[:, 1]) > 0)            # increasing in x
    # the t = 0 row of the rate on the whole surface, to the last bit
    m, pref, (G,), band = _paper_solve((), 100, 100)
    assert np.array_equal(data[:, 1], dh.insurance_rate(G, m, pref)[0, band])
    sh = [ln for ln in
          (out / "short_horizon_rate.csv").read_text().splitlines()
          if not ln.startswith("#")]
    assert sh[0] == "alpha_pi,rate_over_sigma2,upper_bound_over_sigma2"
    assert len(sh) == 402


def test_verify_passes_and_is_reproducible(tmp_path):
    cfgp = _write(tmp_path, nx=100, nt=100, paths=4000, steps=100, seed=3)
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfgp, "--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() == \
        (out2 / "verify.csv").read_bytes()
    out3 = tmp_path / "v3"
    assert main(["verify", "--config", cfgp, "--out", str(out3),
                 "--seed", "4"]) == 1 or \
        (out3 / "verify.csv").read_bytes() != \
        (out1 / "verify.csv").read_bytes()


def test_verify_on_one_cpu_writes_the_same_bytes(tmp_path, capsys,
                                                 monkeypatch):
    # the two path halves on two CPUs give the one-process run's bits;
    # with no work floor, even this small run is split in two
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    cfgp = _write(tmp_path, nx=48, nt=24, paths=301, steps=50, seed=7)
    outs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        rc = main(["verify", "--config", cfgp, "--out", str(out)])
        outs.append((rc, capsys.readouterr(),
                     (out / "verify.csv").read_bytes()))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outs[0] == outs[1]


def test_verify_debug_fails(tmp_path, capsys):
    cfgp = _write(tmp_path, nx=64, nt=64, paths=2000, steps=50)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfgp, "--out", str(out), "--debug"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "check failure" in captured.err
    assert (out / "verify.csv").exists()  # artifacts written even on failure


def test_check_assumptions_pass_and_fail(tmp_path):
    out = tmp_path / "ok"
    assert main(["check-assumptions", "--config", _write(tmp_path),
                 "--out", str(out)]) == 0
    txt = (out / "assumptions.txt").read_text()
    assert "[Holds] factor-sde" in txt
    # xi = 0.2 violates the Feller condition: reported as Fails, exit 1
    bad = _write(tmp_path, xi=0.2)
    out2 = tmp_path / "bad"
    assert main(["check-assumptions", "--config", bad,
                 "--out", str(out2)]) == 1
    txt2 = (out2 / "assumptions.txt").read_text()
    assert "[Fails] factor-sde" in txt2
    assert "[Fails] feller-strict" in txt2
    rows = (out2 / "assumptions.csv").read_text().splitlines()
    assert any(r.startswith("feller-strict,Fails") for r in rows)


def test_check_assumptions_finds_p_near_one(tmp_path):
    # mu1 = 0.5: no p on the grid 1.05..2.0 fits, p = 1.025 does
    out = tmp_path / "out"
    assert main(["check-assumptions", "--config", _write(tmp_path, mu1=0.5),
                 "--out", str(out)]) == 0
    txt = (out / "assumptions.txt").read_text()
    assert "[Holds] moment-drift-integrability\n    p = 1.025:" in txt


def test_check_assumptions_ou_steep_slope(tmp_path):
    p = tmp_path / "ou.ini"
    p.write_text("[model]\nkind = ou\nmu2 = 5\n")
    out = tmp_path / "out"
    assert main(["check-assumptions", "--config", str(p),
                 "--out", str(out)]) == 0
    assert "[Holds] moment-drift-integrability" in (
        out / "assumptions.txt").read_text()


def test_config_errors_exit_2(tmp_path, capsys):
    # unknown key
    p = tmp_path / "bad1.ini"
    p.write_text("[model]\nkind = cir\nfoo = 1\n")
    assert main(["solve", "--config", str(p)]) == 2
    assert "unknown key" in capsys.readouterr().err
    # a key of the other model kind
    for ini in ("[model]\nkind = cir\ngamma = 0.9\n",
                "[model]\nkind = cir\nb = 5\n",
                "[model]\nkind = ou\nkappa = 7\n",
                "[model]\nkind = ou\ngamma1 = 3\n"):
        p.write_text(ini)
        assert main(["solve", "--config", str(p)]) == 2
        assert "unknown key" in capsys.readouterr().err
    # unknown section
    p.write_text("[model]\nkind = cir\n[extras]\na = 1\n")
    assert main(["solve", "--config", str(p)]) == 2
    # missing model section
    p.write_text("[grid]\nnx = 32\n")
    assert main(["solve", "--config", str(p)]) == 2
    # unknown model kind
    p.write_text("[model]\nkind = heston\n")
    assert main(["solve", "--config", str(p)]) == 2
    # unreadable path, and a file configparser cannot parse
    assert main(["solve", "--config", str(tmp_path / "missing.ini")]) == 2
    p.write_text("kind = cir\n")
    assert main(["solve", "--config", str(p)]) == 2
    assert "cannot parse config file" in capsys.readouterr().err
    # bad CLI overrides
    good = _write(tmp_path)
    assert main(["solve", "--config", good, "--grid", "64"]) == 2
    assert main(["solve", "--config", good, "--mode", "bogus"]) == 2
    assert main(["solve", "--config", good, "--mode", "local:x"]) == 2


_X_MIN_OUTSIDE = "[model]\nkind = cir\nx_min = -1\n"
# the Newton Jacobian of the first step is singular
_SINGULAR = ("[model]\nkind = cir\n[claim]\nphi = one\nq = 1e8\n"
             "[preferences]\nalpha = 1e5\n[grid]\nnx = 32\nnt = 16\n")
# a tiny OU mean reversion gives a stationary s.d. near 1e150 (1e161 for
# the subnormal b): a solve on that interval overflows
_OU_B = "[model]\nkind = ou\nb = {}\n[grid]\nnx = 32\nnt = 16\n"
# a CIR config on a 32x16 grid that ends with the lines given
_CIR_32 = "[grid]\nnx = 32\nnt = 16\n[model]\nkind = cir\n{}\n"
# the OU drift sigma (mu1 + mu2 x) overflows on the grid
_OU_MU2 = "[model]\nkind = ou\nmu2 = 1e308\n[grid]\nnx = 32\nnt = 16\n"
# the reference CIR model with phi = one on a 32x16 grid, ending with the
# lines given: a notional or horizon that overflows the source
_ONE_32 = ("[model]\nkind = cir\n[grid]\nnx = 32\nnt = 16\n"
           "[claim]\nphi = one\n{}\n")
_HUGE_Q = _ONE_32.format("q = 1e308")
_OVERFLOWING_Q = _ONE_32.format("q = 1e300")
_HUGE_HORIZON = _ONE_32.format("q = 1\n[preferences]\nhorizon = 1e300")
# q = 1 and the singular q = 1e8 both fail at the first step: the error is
# that of q = 1, the first failing claim, not the singular claim's 1.220e+32
_BLOCK_DIVERGES = _SINGULAR.replace("q = 1e8", "q = 1 1e8 3")


@pytest.mark.parametrize("cmd, ini, extra, message", [
    ("solve", "[model]\nkind = cir\n[preferences]\nalpha = -1\n", [],
     "config error"),
    ("solve", "[model]\nkind = cir\n[grid]\nnx = 8\n", [], "config error"),
    ("verify", "[model]\nkind = cir\n[mc]\npaths = 0\n", [], "config error"),
    ("solve", _X_MIN_OUTSIDE, [], "config error"),
    ("price-bond", _X_MIN_OUTSIDE, [], "config error"),
    ("price-insurance", _X_MIN_OUTSIDE, [], "config error"),
    ("verify", _X_MIN_OUTSIDE, [], "config error"),
    ("solve", "[model]\nkind = cir\n", ["--mode", "local:0"], "config error"),
    ("solve", "[model]\nkind = cir\n", ["--mode", "local:1"], "config error"),
    ("verify", "[model]\nkind = cir\nx0 = -1\n", [], "config error"),
    ("solve", _SINGULAR, [], "solver error: Newton diverged at time step"),
    ("solve", _OU_B.format("1e-300"), [], "config error: the truncation"),
    ("solve", _OU_B.format("5e-324"), [], "config error: the truncation"),
    ("price-bond", _OU_B.format("1e-300"), [],
     "config error: the truncation"),
    ("price-insurance", _OU_B.format("1e-300"), [],
     "config error: the truncation"),
    ("verify", _OU_B.format("1e-300"), [], "config error: the truncation"),
    ("check-assumptions", _OU_B.format("1e-300"), [],
     "config error: the truncation"),
    # a volatility whose square underflows to 0
    ("solve", _CIR_32.format("xi = 1e-300"), [], "config error: xi^2"),
    ("check-assumptions", _CIR_32.format("xi = 1e-300"), [],
     "config error: xi^2"),
    ("solve", _CIR_32.format("sigma = 1e-300"), [],
     "config error: sigma_scale^2"),
    # a value that is not finite is a config error, whatever key it sets
    ("solve", _CIR_32.format("mu2 = nan"), [], "config error"),
    ("solve", _CIR_32.format("rho = nan"), [], "config error"),
    ("solve", _CIR_32.format("mu1 = inf"), [], "config error"),
    ("solve", _CIR_32.format("gamma2 = inf"), [], "config error"),
    ("solve", _CIR_32.format("[preferences]\nalpha = inf"), [],
     "config error"),
    ("check-assumptions", _CIR_32.format("mu2 = nan"), [], "config error"),
    ("solve", _CIR_32.format("[preferences]\nhorizon = inf"), [],
     "config error"),
    # values that overflow on the grid: the OU drift, the square of the
    # CIR source's mu / sigma^2
    ("solve", _OU_MU2, [], "config error: the model's mu"),
    ("price-bond", _OU_MU2, [], "config error: the model's mu"),
    ("price-insurance", _OU_MU2, [], "config error: the model's mu"),
    ("verify", _OU_MU2, [], "config error: the model's mu"),
    ("price-bond", _CIR_32.format("mu2 = 1e308"), [],
     "config error: the model's (mu / sigma^2)^2"),
    ("price-insurance", _CIR_32.format("mu1 = 1e300"), [],
     "config error: the model's (mu / sigma^2)^2"),
    ("verify", _CIR_32.format("mu2 = 1e308"), [],
     "config error: the model's (mu / sigma^2)^2"),
    # the paper intensity s (gamma1 + gamma2 x) has gamma1 = 0: it is 0 on
    # a grid that starts at x = 0
    ("solve", _CIR_32.format("x_min = 0"), [],
     "config error: A, sigma, gamma must be positive on the grid"),
    ("price-bond", _BLOCK_DIVERGES, [],
     "solver error: Newton diverged at time step 15: residual 1.187e-09"),
    ("verify", "[model]\nkind = cir\n", ["--seed", "-1"],
     "config error: bad [mc] settings: need seed >= 0"),
    # --out names the config file itself
    ("solve", "[model]\nkind = cir\n", ["--out", "{tmp}/bad.ini"],
     "config error: cannot make output directory"),
    # arrays larger than the 128 TiB user address space: 71 PiB of path
    # normals, 182 TiB of grid nodes
    ("verify", "[model]\nkind = cir\n",
     ["--grid", "48,24", "--paths", "10000000000000"],
     "config error: Unable to allocate"),
    ("solve", "[model]\nkind = cir\n", ["--grid", "100000000000000,16"],
     "config error: Unable to allocate"),
    # the paths would start outside the solved grid [0.00254, 0.337]
    ("verify", "[model]\nkind = cir\nx0 = 5\n", ["--grid", "48,24"],
     "config error: model.x0 = 5 lies outside the grid"),
    # the product-log's argument overflows to inf: a solver error
    ("solve", _HUGE_Q, [], "theta_of_log requires finite input"),
    ("price-bond", _HUGE_Q, [], "theta_of_log requires finite input"),
    ("verify", _HUGE_Q, [], "theta_of_log requires finite input"),
    ("solve", _HUGE_HORIZON, [], "theta_of_log requires finite input"),
    ("verify", _HUGE_HORIZON, [], "theta_of_log requires finite input"),
    # the source's square overflows: no warning before the error line
    ("solve", _OVERFLOWING_Q, [],
     "solver error: Newton diverged at time step 15: residual inf"),
    ("price-bond", _OVERFLOWING_Q, [],
     "solver error: Newton diverged at time step 15: residual inf"),
    ("verify", _OVERFLOWING_Q, [],
     "solver error: Newton diverged at time step 15: residual inf"),
], ids=["alpha-negative", "nx-too-small", "paths-zero",
        "x-min-outside-domain-solve", "x-min-outside-domain-price-bond",
        "x-min-outside-domain-price-insurance",
        "x-min-outside-domain-verify", "local-0", "local-1",
        "x0-outside-domain-verify", "newton-divergence", "ou-tiny-b",
        "ou-subnormal-b", "ou-tiny-b-price-bond", "ou-tiny-b-price-insurance",
        "ou-tiny-b-verify", "ou-tiny-b-check-assumptions", "xi-tiny",
        "xi-tiny-check-assumptions", "sigma-tiny", "mu2-nan", "rho-nan", "mu1-inf", "gamma2-inf",
        "alpha-inf", "mu2-nan-check-assumptions", "horizon-inf",
        "ou-huge-mu2", "ou-huge-mu2-price-bond", "ou-huge-mu2-price-insurance",
        "ou-huge-mu2-verify", "cir-huge-mu2-price-bond",
        "cir-huge-mu1-price-insurance", "cir-huge-mu2-verify",
        "cir-x-min-zero", "price-bond-block-diverges", "seed-negative",
        "out-is-a-file", "paths-too-many-to-allocate",
        "grid-too-large-to-allocate", "x0-outside-grid-verify",
        "huge-q-solve", "huge-q-price-bond", "huge-q-verify",
        "huge-horizon-solve", "huge-horizon-verify", "overflowing-q-solve",
        "overflowing-q-price-bond", "overflowing-q-verify"])
def test_invalid_values_exit_2(tmp_path, capsys, cmd, ini, extra, message):
    # model, grid and Monte Carlo validation errors are config errors too;
    # a solve that fails exits 2 with one line naming step and residual.
    # verify's draw of 10^5 paths, started before a solve that fails, is
    # stopped and joined
    p = tmp_path / "bad.ini"
    p.write_text(ini)
    extra = [a.format(tmp=tmp_path) for a in extra]
    threads = threading.active_count()
    assert main([cmd, "--config", str(p), "--out", str(tmp_path)]
                + extra) == 2
    assert threading.active_count() == threads
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1  # one line, no warnings before it
    if message.startswith("solver error"):
        assert "residual" in err


# the paper's CIR model at alpha q = 66 and 150, T >= 1.7, on 64 x 32: the
# levels are 16 x 16, 32 x 16 and 64 x 32
_LADDER_INI = ("[model]\nkind = cir\n[claim]\nphi = one\nq = {}\n"
               "[preferences]\nalpha = 3\nhorizon = {}\n"
               "[grid]\nnx = 64\nnt = 32\n")


@pytest.mark.parametrize("q, horizon, message, written", [
    # 64 x 32 converges and is written; 16 x 16 then fails first
    (22, 2.5, "Newton diverged at time step 3: residual 2.329e+01",
     {"surface.csv", "residual_summary.txt"}),
    # 64 x 32 fails, before anything is written
    (50, 1.7, "Newton diverged at time step 19: residual 5.824e+02", set()),
])
def test_a_diverging_ladder_level_fails_as_its_own_solve(tmp_path, capsys, q,
                                                         horizon, message,
                                                         written):
    # the lockstep ladder fails; the levels are then solved one by one,
    # nx first, then nx/4 and nx/2, as if each were solved alone
    m = dh.make_cir_model(dh.paper_cir_params())
    pref = dh.Preferences(alpha=3.0, horizon_T=horizon)
    errors = []
    for nx, nt in ((64, 32), (16, 16), (32, 16)):
        try:
            dh.solve_full(m, dh.bond_claim(q), pref,
                          dh.default_grid(m, pref, nx, nt))
        except dh.NewtonDivergence as exc:
            errors.append(str(exc))
    assert errors[0] == message
    p = tmp_path / "run.ini"
    p.write_text(_LADDER_INI.format(q, horizon))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"solver error: {message}\n"
    assert captured.out == ""
    assert {f.name for f in out.iterdir()} == written


@pytest.mark.parametrize("value", ["mu2 = 1e308", "mu1 = 1e300"])
def test_overflowing_window_fails_the_check(tmp_path, capsys, value):
    # the window arithmetic overflows to inf, which no window admits
    p = tmp_path / "big.ini"
    p.write_text(_CIR_32.format(value))
    assert main(["check-assumptions", "--config", str(p),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "check failure: assumption check failed\n"
    rows = (tmp_path / "assumptions.csv").read_text()
    for entry in ("incomplete-market", "dual-drift", "moment-drift"):
        assert f"{entry}-integrability,Fails" in rows


@pytest.mark.parametrize("ini", [_CIR_32.format("mu2 = 1e308"),
                                 _CIR_32.format("mu1 = 1e300"), _OU_MU2],
                         ids=["cir-mu2", "cir-mu1", "ou-mu2"])
@pytest.mark.parametrize("cmd", ["solve", "price-bond", "price-insurance",
                                 "verify"])
def test_overflowing_model_prints_one_line(tmp_path, ini, cmd):
    proc = _run_fresh(tmp_path, ini, [cmd])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("config error: the model's")


def _run_fresh(tmp_path, ini, argv):
    """The CLI in a fresh process, where numpy's warnings reach stderr
    uncaptured."""
    p = tmp_path / "run.ini"
    p.write_text(ini)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    return subprocess.run(
        [sys.executable, "-m", "defaultable_hjb.cli", *argv, "--config",
         str(p), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)


# e^{alpha G} overflows: in the protected source, whose Newton step then
# diverges, and in the insurance-rate radicand, off the reporting band
_OU_EXP = "[model]\nkind = ou\nmu2 = {}\n[grid]\nnx = 64\nnt = 32\n"


def test_an_overflowing_exponential_prints_no_warning(tmp_path):
    proc = _run_fresh(tmp_path, _OU_EXP.format(30),
                      ["solve", "--mode", "protected"])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("solver error:")
    proc = _run_fresh(tmp_path, _OU_EXP.format(300), ["price-insurance"])
    assert proc.returncode == 0
    assert proc.stderr == ""


def _log_uniform(default):
    """Two decades around a default; a zero default is 0 or in [0.01, 1]."""
    if default == 0.0:
        return st.one_of(st.just(0.0),
                         st.floats(-2.0, 0.0).map(lambda u: 10.0 ** u))
    return st.floats(-1.0, 1.0).map(lambda u: abs(default) * 10.0 ** u)


def _model_box(kind):
    keys = {k: (st.floats(-1.0, 1.0) if k == "rho" else _log_uniform(v))
            for k, v in cli._KIND_DEFAULTS[kind].items()}
    return st.fixed_dictionaries({"kind": st.just(kind), **keys})


# the INI box that a user can type: either kind, every model key around
# its default, two notionals, and the preferences over wide ranges
_INI_BOX = st.fixed_dictionaries({
    "model": st.sampled_from(["cir", "ou"]).flatmap(_model_box),
    "claim": st.fixed_dictionaries({
        "phi": st.sampled_from(["zero", "one"]),
        "q": st.lists(st.floats(0.1, 100.0), min_size=2, max_size=2,
                      unique=True).map(
            lambda qs: " ".join(map(repr, qs)))}),
    "preferences": st.fixed_dictionaries({"alpha": st.floats(0.01, 30.0),
                                          "horizon": st.floats(0.1, 3.0)}),
    "grid": st.just({"nx": 48, "nt": 24}),
    "mc": st.just({"paths": 200, "steps": 50}),
})


def _ini_text(ini: dict) -> str:
    return "".join(f"[{section}]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in ini.items())


def _verdict_agrees(out: str, err: str, code: int):
    """verify's tolerances are finite, and its [FAIL] lines name exactly
    the checks of its check failure line, which it prints exactly when it
    exits 1."""
    tols = re.findall(r" tol=(\S+) \[", out)
    assert all(np.isfinite(float(t)) for t in tols), out
    failed = re.findall(r"^verify: ([\w-]+): .*\[FAIL\]$", out, re.M)
    listed = re.findall(r"^check failure: verification failed: (.*)$", err,
                        re.M)
    assert (code == 1) == bool(listed), (code, err)
    assert failed == (listed[0].split(", ") if listed else []), (out, err)


# e^{-alpha payoff} overflows in verify's CE estimates: its square (A),
# and the exponential itself (A at alpha = 60, B)
_CE_OVERFLOW_A = {
    "model": {"kind": "ou", "mu2": 3.442, "gamma": 0.01679, "sigma": 9.177,
              "b": 2.318, "rho": 0.943},
    "claim": {"phi": "zero", "q": "0.2169 1.224"},
    "preferences": {"alpha": 22.48, "horizon": 1.17},
    "grid": {"nx": 48, "nt": 24}, "mc": {"paths": 200, "steps": 50}}
_CE_OVERFLOW_B = {
    "model": {"kind": "ou", "mu2": 83.32, "gamma": 0.02983, "sigma": 5.756,
              "b": 0.4269, "rho": 0.121},
    "claim": {"phi": "one", "q": "0.4722 96.14"},
    "preferences": {"alpha": 20.83, "horizon": 2.07},
    "grid": {"nx": 48, "nt": 24}, "mc": {"paths": 200, "steps": 50}}
_CE_OVERFLOW_A60 = {**_CE_OVERFLOW_A,
                    "preferences": {"alpha": 60.0, "horizon": 1.17}}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_INI_BOX)
@example({"model": {"kind": "ou", "mu2": 30.0},
          "grid": {"nx": 48, "nt": 24}, "mc": {"paths": 200, "steps": 50}})
@example(_CE_OVERFLOW_A)
@example(_CE_OVERFLOW_A60)
@example(_CE_OVERFLOW_B)
def test_the_exit_code_contract_holds_over_the_ini_box(tmp_path_factory,
                                                        ini):
    # every call returns 0, 1 or 2 with at most one line on stderr, the
    # library warns of nothing (verify's worker forwards its warnings),
    # no worker process or thread outlives its call (verify's worker and
    # draw start before its solve, which can fail), and verify's verdict
    # lines agree with its exit code.  With no work floor, verify's 200
    # paths are split between this process and its worker
    out = tmp_path_factory.mktemp("box")
    p = out / "run.ini"
    p.write_text(_ini_text(ini))
    for argv in (["solve"], ["solve", "--mode", "local:3"],
                 ["solve", "--mode", "protected"], ["price-bond"],
                 ["price-insurance"], ["check-assumptions"], ["verify"]):
        out_text, err = io.StringIO(), io.StringIO()
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(mc, "_FORK_FLOOR", 0), \
                contextlib.redirect_stdout(out_text), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--config", str(p), "--out", str(out)])
        assert code in (0, 1, 2), argv
        if argv == ["verify"]:
            _verdict_agrees(out_text.getvalue(), err.getvalue(), code)
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == threads, argv


def test_verify_forks_its_worker_with_one_thread_alive(monkeypatch,
                                                       tmp_path):
    # 4000 paths x 1000 steps reach the fork floor; the worker forks before
    # the noise draw's helper thread starts
    assert mc._split_pays(mc.SimConfig(n_paths=4000, n_steps=1000, seed=0,
                                       x0=0.06))
    alive_at_fork = []
    fork = os.fork

    def recording_fork():
        alive_at_fork.append(threading.enumerate())
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    caller = threading.enumerate()
    cfg = _write(tmp_path, nx=48, nt=24, paths=4000, steps=1000)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    forked = len(os.sched_getaffinity(0)) >= 2
    assert alive_at_fork == ([caller] if forked else [])
    assert threading.enumerate() == caller


@pytest.mark.parametrize("error", [
    dh.NewtonDivergence(3, float("nan")),
    dh.ThetaDomainError("theta_of_log requires finite input")],
    ids=lambda e: type(e).__name__)
def test_a_solve_that_fails_after_the_fork_exits_2(monkeypatch, tmp_path,
                                                   capsys, error):
    # verify's worker forks before the solve: a solver error still exits 2
    # with one line, and no worker process or draw thread is left
    def failing_solve(*args, **kwargs):
        assert forks, "the worker has not forked"
        raise error

    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "solve_full", failing_solve)
    threads = threading.active_count()
    cfg = _write(tmp_path, nx=48, nt=24, paths=4000, steps=100)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"solver error: {error}\n"
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads



@pytest.mark.parametrize("when", ["draw", "job"])
def test_a_worker_that_dies_exits_3(monkeypatch, tmp_path, capsys, when):
    # the worker killed after the third block it was handed, or as its job
    # is sent after the draw (test_montecarlo's fault injection): one
    # stderr line and exit 3, and no process, thread or descriptor left
    monkeypatch.setattr(mc, "_FORK_FLOOR", 0)
    monkeypatch.setattr(mc, "_DRAW_BLOCK", 4 * 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    feed, send = mc._Worker.feed, mc._Worker.send
    fed, forks = [], []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

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
    monkeypatch.setattr(os, "fork", counting_fork)
    threads = threading.active_count()
    fds = set(os.listdir("/proc/self/fd"))
    cfg = _write(tmp_path, nx=48, nt=24, paths=400, steps=10)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"run error: simulate_halves worker \d+ ended "
        + ("during the draw" if when == "draw"
           else "with exit code -9 before sending its results") + "\n", err)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads
    assert set(os.listdir("/proc/self/fd")) == fds


def test_a_nan_gap_is_a_listed_failure(monkeypatch, tmp_path, capsys):
    # a check whose gap or tolerance is NaN fails, and is listed
    def nan_mass(bundle, label="mass"):
        return mc.MCEstimate(mean=np.nan, std_error=0.0, n_paths=1,
                             label=label)

    monkeypatch.setattr(mc, "estimate_martingale_mass", nan_mass)
    p = tmp_path / "run.ini"
    p.write_text(PAPER_INI.format(xi=0.1, mu1=0.0, phi="one", q=1.0, nx=48,
                                  nt=24, paths=200, steps=50, seed=0))
    code = main(["verify", "--config", str(p), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "martingale-mass: gap=nan tol=3e-12 [FAIL]" in captured.out
    _verdict_agrees(captured.out, captured.err, code)


def test_an_unwritable_output_file_is_a_config_error(tmp_path):
    # the output directory names a file
    p = tmp_path / "file"
    p.write_text("")
    with pytest.raises(ConfigError, match="cannot write"):
        cli._write(cli.RunConfig(out_dir=str(p)), "x.csv", [], ["1"])


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "protected"], ["price-bond", "--mode", "full"],
    ["price-insurance", "--seed", "1"],
    ["check-assumptions", "--grid", "32,16"], ["solve", "--debug"],
    ["solve", "--paths", "5"]])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    p = tmp_path / "run.ini"
    p.write_text("[model]\nkind = cir\n")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(p), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_config_defaults_without_file():
    class Args:
        out = None
        seed = 7
        paths = 123
        grid = "40,20"
        mode = "full"
        debug = False

    cfg = parse_config(None, Args())
    assert cfg.kind == "cir"
    assert cfg.model_values["kappa"] == 0.25
    assert cfg.seed == 7 and cfg.paths == 123
    assert cfg.nx == 40 and cfg.nt == 20


def test_ou_model_config(tmp_path):
    p = tmp_path / "ou.ini"
    p.write_text("[model]\nkind = ou\nb = 1.0\nmu1 = 0.1\nmu2 = 0.5\n"
                 "sigma = 1.0\ngamma = 0.3\nrho = 0.2\n"
                 "[grid]\nnx = 48\nnt = 32\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 0
    assert main(["check-assumptions", "--config", str(p),
                 "--out", str(out)]) == 0


def test_surface_lines_are_the_17_digit_text_of_every_value():
    def want(G):
        # the f-string form, one value at a time
        yield "t," + ",".join(f"{x:.17g}" for x in G.grid.xs)
        for t, row in zip(G.grid.ts, G.values):
            yield f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row)

    m = dh.make_cir_model(dh.paper_cir_params())
    pref = dh.Preferences(alpha=3.0, horizon_T=1.0)
    G = dh.solve_full(m, dh.bond_claim(1.0), pref,
                      dh.default_grid(m, pref, 64, 64))
    assert list(cli._surface_lines(G)) == list(want(G))
    special = [-0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
               np.nan, 1e300, 0.1, 3.0, -1.0 / 3.0, 0.0, -5e-324]
    # nodes whose shortest text needs all 17 digits
    grid = dh.GridSpec(-0.1, 0.7, 16, 16, t_end=1.0 / 3.0)
    values = np.resize(np.array(special), (17, 17))
    values[3] = special[5::-1] + special[:11]  # each value in another column
    S = dh.Surface(grid=grid, values=values, gradient=np.zeros_like(values))
    lines = list(cli._surface_lines(S))
    assert lines == list(want(S))
    assert lines[1].split(",")[1:6] == ["-0", "4.9406564584124654e-324",
                                        "2.2250738585072014e-308", "inf",
                                        "-inf"]

    def surface(values):
        return dh.Surface(grid=grid, values=values,
                          gradient=np.zeros_like(values))

    # values the digit arithmetic can get wrong: ties at the 17th digit,
    # powers of ten and their neighbours, where log10 can misjudge the
    # exponent, and the edges of fixed notation, 1e-4 and 1e17
    powers = 10.0 ** np.arange(-12, 18)
    edges = np.array([1234567890123456.75, 1234567890123456.25, 1e-4, 1e17,
                      99999999999999999.0, 0.1, 1.0 / 3.0, -0.0, 0.0])
    hard = np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf), edges,
                           np.nextafter(edges, 0.0),
                           np.nextafter(edges, np.inf)])
    hard = np.concatenate([hard, -hard])
    S = surface(np.resize(hard, (-(-hard.size // 17), 17)))
    assert list(cli._surface_lines(S)) == list(want(S))

    # any doubles, nan, inf and subnormals among them, in surfaces of one
    # row and of one block of rows less, as many and one more: a block of
    # 17 values and the time per row
    block = solver.block_rows(17 + 1, cli._TEXT_BYTES)
    rows = st.sampled_from([1, block - 1, block, block + 1])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows.flatmap(lambda n: arrays(np.float64, (n, 17),
                                         elements=st.floats())))
    def arbitrary(values):
        tall = dh.GridSpec(-0.1, 0.7, 16, max(len(values) - 1, 16))
        S = dh.Surface(grid=tall, values=values)
        assert list(cli._surface_lines(S)) == list(want(S))

    arbitrary()
