"""Check that the traced counts repeat exactly across runs with the same seed.

    python3 perfbench/check_counts.py

For each workload in ``BENCHMARK.json`` and each of seeds 1 and 2, runs
``run.py --trace 1`` twice, one process at a time, and compares the counts
that later claims may rest on.  Exits 1 if any count differs between two
runs with the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tracing import DETERMINISTIC_COUNTS

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in DETERMINISTIC_COUNTS}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            first, second = traced_counts(workload, seed), traced_counts(workload, seed)
            same = first == second
            ok &= same
            print(f"{workload} seed {seed}: {'identical' if same else 'DIFFERENT'}")
            for name in DETERMINISTIC_COUNTS:
                print(f"  {name}: {first[name]!r}" + ("" if first[name] == second[name]
                                                      else f" then {second[name]!r}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
