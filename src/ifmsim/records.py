"""Canonical machine-readable result records.

A record has two blocks: ``payload`` carries everything derived from the
configuration and the seed, and must be byte-for-byte reproducible across
runs; ``metadata`` carries the timestamp and tool version and is excluded
from reproducibility comparisons.  Floats are rounded to 12 significant
digits before serialization so the JSON text itself is stable.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass

SIGNIFICANT_DIGITS = 12

SCAN_COLUMNS = (
    "index",
    "distance_cm",
    "deflection_rad",
    "blocked",
    "detection_probability",
    "trials",
    "detections",
    "field_magnitude",
)


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
    scan_rows: list[dict] | None = None


def make_metadata(tool: str, version: str) -> dict:
    return {
        "tool": tool,
        "version": version,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def payload_text(record: ResultRecord) -> str:
    """Canonical JSON text of the reproducible payload block."""
    return json.dumps(round_floats(record.payload), sort_keys=True, indent=2) + "\n"


def record_text(record: ResultRecord) -> str:
    """Full record JSON: metadata block plus canonical payload."""
    doc = {"metadata": record.metadata, "payload": round_floats(record.payload)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def scan_table_text(rows: list[dict]) -> str:
    """Flat tab-delimited table of per-position scan rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t", lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow([_cell(round_floats(row.get(col))) for col in SCAN_COLUMNS])
    return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
