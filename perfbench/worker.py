"""One workload in its own process: set up, then a timed run or a traced run.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py <workload> <seed> <seconds> <mode> <t0>

``mode`` is ``setup`` (stop where timing would start), ``run`` (closed loop,
one client, rounds of fresh ops for about ``seconds``) or ``trace`` (the
first round once untraced, then once traced).  ``t0`` is the parent's
``time.monotonic()`` just before it started this process, so set-up time
includes interpreter start and every import.
"""

from __future__ import annotations

import time

ENTERED = time.monotonic()  # the interpreter has started

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

# Import costs belong to set-up; a traced run reports them as the start-up
# layer of this process, timed as cli_traced.py times a CLI process.
_start = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_IMPORT_S = time.perf_counter() - _start
_start = time.perf_counter()
import ifmsim.cli  # noqa: E402,F401  (loads every layer)

IFMSIM_IMPORT_S = time.perf_counter() - _start

import tracing  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, CliCold, CliOps  # noqa: E402

STARTUP = ("startup.python_ms", "startup.numpy_import_ms", "startup.ifmsim_import_ms")


def run_ops(workload, ops, latencies, outcomes, tracer=None) -> None:
    """Execute ops back to back; time each; keep what the checks need."""
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.index
        start = time.perf_counter()
        try:
            output = workload.execute(op)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        outcomes.append((op, error if error else workload.collect(op, output), error is not None))


def failures(workload, outcomes) -> Counter:
    """Failed executions per known-defect label.

    A failure that the op's label does not explain is unlabelled.
    """
    per_label: Counter = Counter()
    for op, output, raised in outcomes:
        kind = output if raised else workload.check(op, output)
        if kind is None:
            continue
        label = op.defect if op.defect and KNOWN_DEFECTS[op.defect][1](kind) else "unlabelled"
        per_label[label] += 1
        if label == "unlabelled":
            print(f"unlabelled failure, op {op.index} ({op.kind}): {kind}", file=sys.stderr)
    return per_label


def described(per_label: Counter) -> dict:
    """label -> [failed executions, the defect that explains them]."""
    return {label: [n, KNOWN_DEFECTS[label][0] if label in KNOWN_DEFECTS else "unexplained"]
            for label, n in per_label.items()}


def percentile(values, pct: int):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def timed_run(workload, first_round: list, seconds: float) -> dict:
    """Run rounds of ops back to back until about ``seconds`` have passed.

    Round r holds ops r*n .. (r+1)*n - 1, each drawn from (seed, index), so
    an op's inputs do not come back in a later round and a cache of earlier
    results does not make it look free.  The next round's inputs are built
    between rounds, outside the loop time.
    """
    n = workload.round_size
    latencies, outcomes = [], []
    ops, rounds, loop_s = first_round, 0, 0.0
    while True:
        start = time.perf_counter()
        run_ops(workload, ops, latencies, outcomes)
        loop_s += time.perf_counter() - start
        rounds += 1
        # Stop at the round boundary nearest to the requested duration.
        if loop_s + 0.5 * loop_s / rounds >= seconds:
            break
        ops = [workload.op(i) for i in range(rounds * n, (rounds + 1) * n)]
    per_label = failures(workload, outcomes)
    failed = sum(per_label.values())
    # The highest percentile with at least 10 of one round's ops beyond it;
    # fixed per workload, so that it does not depend on the number of rounds.
    tail_pct = 100 * (n - 10) // n
    tail = percentile(latencies, tail_pct)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "per_label": described(per_label),
        "rounds": rounds,
        "loop_s": loop_s,
        "ops_per_s": (len(outcomes) - failed) / loop_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_pct": tail_pct,
        "tail_beyond": sum(1 for x in latencies if x > tail),
        "round_size": n,
        "rel_err_max": max(workload.rel_errs) if workload.rel_errs else None,
    }


def traced_pass(workload, ops: list, spans_dir: Path) -> tuple[float, Counter, list, list]:
    """The round with every layer wrapped; returns (seconds, totals, spans, outcomes)."""
    latencies, outcomes = [], []
    if isinstance(workload, CliCold):
        spans_dir.mkdir(parents=True, exist_ok=True)
        workload.traced = (Path(__file__).with_name("cli_traced.py"), spans_dir)
        run_ops(workload, ops, latencies, outcomes)
        workload.traced = None
        totals, spans = Counter(), []
        for path in sorted(spans_dir.glob("op*.json")):
            doc = json.loads(path.read_text())
            totals.update(tracing.layer_totals(doc["spans"], Counter(doc["counts"])))
            totals.update(doc["startup"])
            spans.extend(doc["spans"])
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_ops(workload, ops, latencies, outcomes, tracer)
        finally:
            tracer.uninstall()
        totals, spans = tracing.layer_totals(tracer.spans, tracer.counts), tracer.spans
    if isinstance(workload, CliOps):
        # The payload text read back from each written record, after the op.
        totals["records.payload_bytes"] = sum(
            len(out[1].encode()) for _, out, raised in outcomes if not raised and out[1])
        bad = [(op, out) for op, out, raised in outcomes if op.params.get("bad")]
        totals["cli.exit2_share"] = sum(out[0] == 2 for _, out in bad) / len(bad)
    return sum(latencies), totals, spans, outcomes


def traced_run(workload, ops: list, work: Path, t0: float) -> dict:
    latencies, untraced = [], []
    run_ops(workload, ops, latencies, untraced)
    plain_s = sum(latencies)
    traced_s, totals, spans, traced = traced_pass(workload, ops, work / "spans")
    (work / "spans.json").write_text(json.dumps(spans))
    per_label = failures(workload, untraced + traced)
    k = len(ops)
    per_op = {key: value / k for key, value in totals.items()}
    processes = totals.pop("startup.processes", 0)
    if processes:  # per CLI process
        for key in STARTUP:
            per_op[key] = totals[key] / processes
    else:  # in-process ops: the start-up of this worker, itself a fresh process
        per_op.update(zip(STARTUP, ((ENTERED - t0) * 1e3, NUMPY_IMPORT_S * 1e3,
                                    IFMSIM_IMPORT_S * 1e3)))
    per_op["fields.critical_distance.evals"] = (
        totals["fields.critical_distance.evals"] / totals["fields.critical_distance.calls"]
        if totals["fields.critical_distance.calls"] else 0.0
    )
    per_op["cli.exit2_share"] = totals["cli.exit2_share"]
    per_op["matter_mz.self_ms"] = sum(
        (v for key, v in per_op.items() if key.startswith("matter_mz.") and key.endswith(".self_ms")),
        0.0,
    )
    per_op["trace.overhead_ms"] = (traced_s - plain_s) / k * 1e3
    return {
        "attempted": 2 * k,
        "failed": sum(per_label.values()),
        "per_label": described(per_label),
        "layers": per_op,
        "overhead_share": traced_s / plain_s - 1.0,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, t0 = argv
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    if mode != "setup":
        shutil.rmtree(work, ignore_errors=True)
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[name](int(seed), ROOT)
    ops = [workload.op(i) for i in range(workload.round_size)]
    workload.warm_up()
    setup_s = time.monotonic() - float(t0)
    result = {"setup_s": setup_s}
    if mode == "run":
        result.update(timed_run(workload, ops, float(seconds)))
    elif mode == "trace":
        result.update(traced_run(workload, ops, work, float(t0)))
    if isinstance(workload, CliCold):
        result["peak_rss_mb"] = workload.peak_rss_kb / 1024.0
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
