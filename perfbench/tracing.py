"""Spans and counts recorded around the public functions of each ``ifmsim`` layer.

A traced function is wrapped once and the wrapper is bound under every name
that refers to the original in any loaded ``ifmsim`` module.  That matters
because callers look their callees up in their own namespace: ``protocol``
and ``cli`` import functions by name, and ``critical_distance`` reaches
``integrate_trajectory`` through ``fields.deflection_at_distance``.  The
benchmark itself calls through module attributes, so it sees the wrappers
too.

Spans live in memory as [name, start, end, parent index, op id] and are
written out when a pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


# Hooks see result None when the call raised: counts of work asked for come
# from the arguments, counts of work done from the result.
def _count_trajectory(counts, args, kwargs, result):
    if result is not None:
        counts["fields.rk4_steps"] += len(result.t) - 1


def _count_scan(counts, args, kwargs, result):
    if result is None:
        return
    counts["protocol.positions_scanned"] += len(result.per_position)
    counts["protocol.bernoulli_draws"] += sum(rec.trials for rec in result.per_position)


def _count_ev(counts, args, kwargs, result):
    counts["photon_mz.ev_trials"] += args[1] if len(args) > 1 else kwargs["n_trials"]


def _count_samples(counts, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    counts["core.sample_outcomes.bytes_computed"] += 8 * n


def _count_zeno(counts, args, kwargs, result):
    counts["photon_mz.zeno_cycles"] += args[0] if args else kwargs["n_cycles"]


# (module, function, span name, count hook)
TARGETS = (
    ("ifmsim.fields", "integrate_trajectory", "fields.integrate_trajectory", _count_trajectory),
    ("ifmsim.fields", "critical_distance", "fields.critical_distance", None),
    ("ifmsim.protocol", "run_field_scan", "protocol.run_field_scan", _count_scan),
    ("ifmsim.protocol", "calibrate", "protocol.calibrate", None),
    ("ifmsim.matter_mz", "detector_probability", "matter_mz.detector_probability", None),
    ("ifmsim.matter_mz", "solve_ideal_offset", "matter_mz.solve_ideal_offset", None),
    ("ifmsim.photon_mz", "run_ev_trials", "photon_mz.run_ev_trials", _count_ev),
    ("ifmsim.photon_mz", "zeno_ifm_distribution", "photon_mz.zeno", _count_zeno),
    ("ifmsim.core", "sample_outcomes", "core.sample_outcomes", _count_samples),
    ("ifmsim.core", "apply_element", "core.apply_element", None),
    ("ifmsim.cli", "main", "cli.main", None),
    ("ifmsim.cli", "config_from_dict", "cli.config_from_dict", None),
    ("ifmsim.cli", "run_scenario", "cli.run_scenario", None),
    ("ifmsim.records", "record_text", "records.record_text", None),
    ("ifmsim.records", "scan_table_text", "records.scan_table_text", None),
)

# Counts that must repeat exactly when the same ops run again.
DETERMINISTIC_COUNTS = (
    "fields.rk4_steps",
    "fields.critical_distance.evals",
    "protocol.bernoulli_draws",
    "photon_mz.ev_trials",
    "photon_mz.zeno_cycles",
    "core.apply_element.calls",
    "records.payload_bytes",
)


class Tracer:
    """Records spans and counts while installed; restores every binding on removal."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _wrap(self, func, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
                if count is not None:
                    count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, func_name, span_name, count in TARGETS:
            if module_name not in sys.modules:
                continue
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, span_name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "ifmsim" and not mod_name.startswith("ifmsim."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()


def layer_totals(spans: list[list], counts: Counter) -> Counter:
    """Exact counts plus self time (ms) per span name, summed over all ops.

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    totals = Counter(counts)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_ms"] += (end - start - child_time[i]) * 1e3
        if name == "fields.integrate_trajectory":
            p = parent
            while p >= 0 and spans[p][0] != "fields.critical_distance":
                p = spans[p][3]
            if p >= 0:
                totals["fields.critical_distance.evals"] += 1
    return totals
