"""Tests of the benchmark itself: its checks catch wrong output.

    python3 -m pytest perfbench -q

The verify control runs the real CLI once (about 20 s).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def write_columns(path: Path, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    path.write_text("# header\n" + ",".join(names) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))


def test_verify_debug_is_counted_failed():
    runner = run.Runner(seed=0, started=time.monotonic(),
                        reference=checks.load_reference())
    args = dict(run.WORKLOADS["mc-verify"])["verify"] + ["--debug"]
    rec = runner.call("verify", args, "off")
    assert runner.attempted == 1 and runner.failed == 1
    assert rec["cli_rc"] == 1
    assert "exit code 1" in rec["problems"]
    assert any("FAIL" in p for p in rec["problems"])


def test_pde_check_passes_reference_and_catches_a_wrong_value(tmp_path):
    reference = checks.load_reference()
    want = {k: np.array(v) for k, v in reference["price-insurance"].items()}
    write_columns(tmp_path / "insurance.csv", want)
    assert checks.problems("price-insurance", tmp_path, "", 0,
                           reference) == []

    wrong = dict(want, rate=want["rate"] + np.where(
        np.arange(want["rate"].size) == 7, 1e-7, 0.0))
    write_columns(tmp_path / "insurance.csv", wrong)
    found = checks.problems("price-insurance", tmp_path, "", 0, reference)
    assert any(p.startswith("rate: max-abs error") for p in found)

    above = dict(want, rate=want["upper_bound"] + 1.0)
    write_columns(tmp_path / "insurance.csv", above)
    found = checks.problems("price-insurance", tmp_path, "", 0, reference)
    assert "insurance rate above its upper bound" in found


def test_missing_output_and_failed_assumption_are_problems(tmp_path):
    reference = checks.load_reference()
    found = checks.problems("solve", tmp_path, "", 0, reference)
    assert found and found[0].startswith("unreadable output")

    (tmp_path / "assumptions.csv").write_text(
        "# header\nid,status,witness\nstate-domain,Holds,\"ok\"\n"
        "feller-strict,Fails,\"kappa*theta - xi^2/2 < 0\"\n")
    found = checks.problems("check-assumptions", tmp_path, "", 1, reference)
    assert found == ["exit code 1", "assumption feller-strict is Fails"]


def test_probe_units_divides_each_stretch_by_its_sample():
    # 1 s of subcommand time: 0.5 s while the probe's CPU part takes 1 ms,
    # then 0.5 s while it takes 2 ms; the memory part takes 0.5 ms and
    # counts only when asked for.  The probes' own time is left out.
    samples = [(0.0, 0.001, 0.0005), (0.5, 0.002, 0.0005)]
    rec = {"cmd_s": 1.0 - 0.004, "main_s": 1.0, "probe": samples,
           "setup_funcs_s": {"parse_config": 0.0}}
    cpu, both = (1,), (1, 2)
    assert np.isclose(run.probe_units(rec, cpu, 0.0),
                      0.4985 / 0.001 + 0.4975 / 0.002)
    assert np.isclose(run.probe_units(rec, both, 0.0),
                      0.4985 / 0.0015 + 0.4975 / 0.0025)
    assert np.isclose(run.probe_median_s([rec], cpu), 0.0015)
    assert np.isclose(run.probe_units({"cmd_s": 0.003}, cpu, 0.0015), 2.0)
    assert set(run.PROBE_PARTS) == set(run.WORKLOADS)


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pde-modes",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
