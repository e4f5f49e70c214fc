"""Benchmark entry point: one workload, timed or traced, in its own process.

    python3 perfbench/run.py --workload scan_electric --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program under test is ``src/ifmsim``
there.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per op) with ``--trace 1``.  The
lines before it give the tail percentile and its sample count, failures
per known-defect label, the host-speed probe and, when traced, the
tracing overhead.

Set-up time is the median over five fresh processes, two before and two
after the one that runs the ops, each timed from just before it starts to
where its first timed op would begin.  At most one child process runs at a
time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2  # set-up-only processes before and again after the one that runs the ops
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("oracle_rel_err_max", "1"),
)


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop; a diagnostic for host drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def child(workload: str, seed: int, seconds: int, mode: str) -> dict:
    """Run worker.py to completion and return its result object."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
         repr(t0)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} process for {workload} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/ifmsim/__init__.py").is_file():
        print("perfbench: run from the root of an ifmsim checkout (src/ifmsim not found)",
              file=sys.stderr)
        return 2

    probe_start = host_probe_ms()
    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setups = [child(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                  for _ in range(samples)]
        result = child(args.workload, args.seed, args.seconds, "trace" if args.trace else "run")
        setups += [child(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                   for _ in range(samples)]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    probe_end = host_probe_ms()

    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed")
    for label, (n, defect) in sorted(result["per_label"].items()):
        print(f"  failed [{label}]: {n} ({defect})")
    print(f"host probe: {probe_start:.1f} ms at start, {probe_end:.1f} ms at end "
          f"(ratio {probe_end / probe_start:.3f}); diagnostic only")
    correct = "unlabelled" not in result["per_label"]

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": result["layers"].get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        print(f"tracing overhead: {metrics['trace.overhead_ms']['value']:.3f} ms per op "
              f"({100 * result['overhead_share']:.1f}% of the untraced pass)")
    else:
        setups.append(result["setup_s"])
        rel_err = result["rel_err_max"]
        if rel_err is None:  # no op produced a value the oracle could check
            rel_err, correct = 1.0, False
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_tail_ms": result["op_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "oracle_rel_err_max": rel_err,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"rounds: {result['rounds']} of {result['round_size']} fresh ops "
              f"({result['attempted']} ops in {result['loop_s']:.2f} s); op_tail_ms is "
              f"p{result['tail_pct']} ({result['tail_beyond']} ops beyond it)")
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
