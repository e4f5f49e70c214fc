"""Canonical machine-readable result records.

A record has two blocks: ``payload`` carries everything derived from the
configuration and the seed, and must be byte-for-byte reproducible across
runs; ``metadata`` carries the timestamp and tool version and is excluded
from reproducibility comparisons.  Floats are rounded to 12 significant
digits before serialization so the JSON text itself is stable.  A scan's
``.scan.tsv`` table is headed by its payload rows' keys in order, and its
cells are those rows' JSON values at 12 significant digits.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import __version__

SIGNIFICANT_DIGITS = 12


def round_floats(obj):
    """Recursively round floats (numpy's float64 among them) to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ResultRecord:
    """Machine-readable result of one scenario run."""

    metadata: dict
    payload: dict


def make_metadata() -> dict:
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return {"tool": "ifmsim", "version": __version__, "created": created}


def _text(doc: dict) -> str:
    return json.dumps(round_floats(doc), sort_keys=True, indent=2) + "\n"


def payload_text(record: ResultRecord) -> str:
    """Canonical JSON text of the reproducible payload block."""
    return _text(record.payload)


def record_text(record: ResultRecord) -> str:
    """Full record JSON: metadata block plus canonical payload."""
    return _text({"metadata": record.metadata, "payload": record.payload})


def scan_table_text(rows: list[dict]) -> str:
    """Flat tab-delimited table of per-position scan rows, headed by the rows' keys."""
    lines = [rows[0], *(map(json.dumps, row.values()) for row in round_floats(rows))]
    return "".join("\t".join(line) + "\n" for line in lines)
