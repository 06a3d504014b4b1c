"""The benchmark scripts still run against the package: one round each.

A rename in the package that a script reaches for fails here, not at the
next measurement; bench_verify.py, for one, would silently book a stage
whose function is gone under "other".
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of every output file of the subcommands at 400x400 on
# perfbench/reference.ini, unchanged from BENCH_18.json to BENCH_21.json
# (numpy 2.4.6, scipy 1.17.1), where numpy evaluates float64 exp and log
# with its AVX-512 loops: a change of output bytes fails here
OUTPUT_SHA256_AVX512 = {
    "solve/surface.csv":
        "8edb20836a90868a52d34ad75950a0a7520fc498611a8d6723796d5f86db22fd",
    "solve/residual_summary.txt":
        "c609898fea031497ac8dc04125e2e0757ec96da6657ceb508dbd85fb1b0b56db",
    "solve/convergence.csv":
        "d0cf25e42235c1460b64dca8fbc7e4edb0577681c4a1ee8a3f67ea94a4f4d728",
    "solve-protected/surface.csv":
        "2d265ce5a446c91d65b77e725a80c867c87f40e6f61483464ee4c5cebedd68d6",
    "solve-protected/residual_summary.txt":
        "091448ac89b7b3107cd99659aa971281a18108e3a2c876ac8d3730adb80ff8ef",
    "solve-protected/convergence.csv":
        "3c2482a7679636d66a1852d5e143439c7157358314c270ccca4cf7fc119837e1",
    "solve-local/surface.csv":
        "5ad79bd8f712916de74cdace4304fc0c158866de90c547cf24ea38c854b6a326",
    "solve-local/residual_summary.txt":
        "a02cd0fd4190d045ed7efd6c2d7d869454c269e69dbff43e01bc85311138a7e1",
    "solve-local/convergence.csv":
        "5a14fe41bc875978150a7d02b65bb3f27a2864323489fa429fbe8339e4ab8ed2",
    "price-bond/price_bond.csv":
        "b221acf1d551f1c18c33279f1a4c787b3382b7924cbbf96e0aef838647a2de93",
    "price-insurance/insurance.csv":
        "5e78bcba3d9b33912908e4c5165fa3473b01254994e0a53913c3baba32055202",
    "price-insurance/short_horizon_rate.csv":
        "c9a498737afb369f8ee67ea65e9e41499b67fc92c1f9bc60a1702a4cae8cb50e",
}
# the same where numpy's float64 exp and log are the C library's (AVX-512
# loops off or absent; an AVX2-only path gives the same bytes): the np.exp
# of the protected source, the local cutoff and the insurance maps differs
# in the last bits, and so do the files below
OUTPUT_SHA256_LIBM = {
    **OUTPUT_SHA256_AVX512,
    "solve-protected/surface.csv":
        "595a0bc5380745d03f78ccf6dc4570ce18df2c430cc6fc20e4d1ff185e7b3fed",
    "solve-protected/residual_summary.txt":
        "eeccdcba605196af03c70267bd8100fbd918680eff416db67586d9615deb6fc8",
    "solve-local/surface.csv":
        "ef3f18f4674863f71f455623d2620237ae3561fc52ac2e1a73bfc4620b43c9cb",
    "solve-local/residual_summary.txt":
        "25bb9571a0a7a706b536c29ee55b809b7773c1dfb0fe02905fe5a2cd26e5215c",
    "price-insurance/insurance.csv":
        "63c7315af184576523bd65b11b9a77aacd4813fbc4358b068a1cb85a3c29cd45",
    "price-insurance/short_horizon_rate.csv":
        "c3a425b66a571896b8957999b3d4c442ab94e3f94ae8ea5d979ffe1ea117e5ae",
}


def _exp_and_log_are_libm() -> bool:
    """Whether numpy's float64 exp and log give math.exp's and math.log's
    bits on a probe, as they do where numpy runs no AVX-512 loop for
    them.  The benchmark's child inherits this process's environment, so
    it takes the same path."""
    x = np.linspace(-20.0, 20.0, 4001)
    y = np.abs(x) + 0.5
    return (np.exp(x).tobytes() == np.array([math.exp(v) for v in x]).tobytes()
            and np.log(y).tobytes()
            == np.array([math.log(v) for v in y]).tobytes())


def _run(script: str, tmp_path: Path) -> dict:
    """The record of one round of the script."""
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "benchmarks" / script),
                    "--repeat", "1", "--label", "smoke", "--out", str(out)],
                   check=True, capture_output=True, cwd=tmp_path, env=env,
                   timeout=300)
    doc = json.loads(out.read_text())
    assert doc["script"] == f"benchmarks/{script}"
    assert set(doc["host"]) == {"machine", "cpus", "python", "numpy",
                                "numpy_simd"}
    assert list(doc["records"]) == ["smoke"]
    return doc["records"]["smoke"]


def _record(script: str, tmp_path: Path) -> dict:
    record = _run(script, tmp_path)
    assert record["backend"] == "numpy" and record["repeat"] == 1
    assert record["peak_rss_mb"] > 0
    return record


def test_bench_pde_records_every_case(tmp_path):
    record = _record("bench_pde.py", tmp_path)
    assert set(record["best_s"]) == {
        "solve_full_400", "price_bond_claims_400", "tridiag_solve_401",
        "theta_of_log_401", "operator_401", "residual_400",
        "ladder_full_400", "ladder_protected_400", "ladder_local_400",
        "surface_lines_400", "cmd_solve", "cmd_solve-protected",
        "cmd_solve-local", "cmd_price-bond", "cmd_price-insurance"}
    assert all(s > 0 for s in record["best_s"].values())
    assert record["output_sha256"] == (
        OUTPUT_SHA256_LIBM if _exp_and_log_are_libm() else OUTPUT_SHA256_AVX512)


def test_bench_verify_times_every_stage(tmp_path):
    record = _record("bench_verify.py", tmp_path)
    stages = {"noise", "loop", "estimators", "other"}
    assert set(record["stages_best_s"]) == stages
    assert set(record["stages_quartiles_s"]) == stages
    assert all(s > 0 for s in record["stages_best_s"].values())
    assert len(record["total_runs_s"]) == 1
    assert len(record["verify_csv_sha256"]) == 64
    assert record["children_peak_rss_mb"] >= 0


def test_bench_e2e_runs_every_subcommand_in_its_own_process(tmp_path):
    record = _run("bench_e2e.py", tmp_path)
    cases = {"startup", "solve", "solve-protected", "solve-local",
             "price-bond", "price-insurance", "check-assumptions", "verify"}
    assert set(record["runs"]) == set(record["summary"]) == cases
    assert record["rounds"] == 1 and "revision" in record
    for runs in record["runs"].values():
        assert len(runs) == 1
        assert runs[0]["wall_s"] > 0 and runs[0]["peak_rss_mb"] > 0
