"""Record reference.json, the values the PDE workloads are checked against.

    python3 perfbench/record_reference.py

Runs every PDE subcommand of the benchmark once and stores the numbers that
checks.py compares.  Run it only on a commit whose outputs are trusted: a
re-recording accepts whatever the code computes.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import checks
import run


def main() -> int:
    runner = run.Runner(seed=0, started=time.monotonic(), reference={})
    reference = {}
    for name, args in (run.WORKLOADS["pde-reference"]
                       + run.WORKLOADS["pde-modes"]):
        rec = runner.run_cli(name, args, "off")
        if "error" in rec or rec["cli_rc"] != 0:
            print(f"{name} failed: {rec.get('error', rec['stderr'])}",
                  file=sys.stderr)
            return 1
        got = checks.outputs(name, run.WORK / name)
        if got:
            reference[name] = {k: np.asarray(v).tolist()
                               for k, v in got.items()}
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
