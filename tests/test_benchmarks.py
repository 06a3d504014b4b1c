"""The benchmark scripts still run against the package: one round each.

A rename in the package that a script reaches for fails here, not at the
next measurement; bench_verify.py, for one, would silently book a stage
whose function is gone under "other".
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOLVE_FILES = ("surface.csv", "residual_summary.txt", "convergence.csv")


def _record(script: str, tmp_path: Path) -> dict:
    out = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "benchmarks" / script),
                    "--repeat", "1", "--label", "smoke", "--out", str(out)],
                   check=True, capture_output=True, cwd=tmp_path, env=env,
                   timeout=300)
    doc = json.loads(out.read_text())
    assert doc["script"] == f"benchmarks/{script}"
    assert set(doc["host"]) == {"machine", "cpus", "python", "numpy"}
    assert list(doc["records"]) == ["smoke"]
    record = doc["records"]["smoke"]
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
    assert set(record["output_sha256"]) == {
        *(f"{mode}/{f}" for mode in ("solve", "solve-protected",
                                     "solve-local") for f in SOLVE_FILES),
        "price-bond/price_bond.csv", "price-insurance/insurance.csv",
        "price-insurance/short_horizon_rate.csv"}


def test_bench_verify_times_every_stage(tmp_path):
    record = _record("bench_verify.py", tmp_path)
    stages = {"noise", "loop", "estimators", "other"}
    assert set(record["stages_best_s"]) == stages
    assert set(record["stages_quartiles_s"]) == stages
    assert all(s > 0 for s in record["stages_best_s"].values())
    assert len(record["total_runs_s"]) == 1
    assert len(record["verify_csv_sha256"]) == 64
    assert record["children_peak_rss_mb"] >= 0
