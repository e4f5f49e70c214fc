"""Traced stand-in for ``python -m ifmsim``: times start-up, then runs the CLI.

    python3 perfbench/cli_traced.py <spans.json> <t0> <ifmsim arguments...>

``t0`` is the parent's ``time.monotonic()`` just before it started this
process.  It times the ``numpy`` and ``ifmsim`` imports, wraps the
layers as ``tracing`` does in-process, calls ``ifmsim.cli.main(argv)`` and
exits with its return code after writing spans, counts and start-up times
to ``spans.json``.  The op id of every span is the number in that file's
name.
"""

import sys
import time

_ENTERED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402

spans_path, t0, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_s = time.perf_counter() - start
start = time.perf_counter()
import ifmsim.cli  # noqa: E402

ifmsim_s = time.perf_counter() - start

import tracing  # noqa: E402  (sys.path[0] is this script's directory)

tracer = tracing.Tracer()
tracer.op_id = int(os.path.basename(spans_path)[2:].split(".")[0])
tracer.install()
code = 1
try:
    code = ifmsim.cli.main(argv)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "startup": {
                "startup.processes": 1,
                "startup.python_ms": (_ENTERED - t0) * 1e3,
                "startup.numpy_import_ms": numpy_s * 1e3,
                "startup.ifmsim_import_ms": ifmsim_s * 1e3,
            },
        }, fh)
sys.exit(code)
