"""Metric schema and the result line: building it and reading it back."""
from __future__ import annotations

import json
import math

import tracing

# every workload reports each of these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = tracing.per_layer_schema()


def schema(trace: bool) -> dict:
    return PER_LAYER if trace else END_TO_END


def result_line(correct: bool, attempted: int, failed: int, values: dict, trace: bool) -> str:
    units = schema(trace)
    metrics = {name: {"value": float(values[name]), "unit": units[name][0]}
               for name in units if name in values}
    line = json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
    parse_result(line, trace, allow_missing=not correct)
    return line


def parse_result(line: str, trace: bool, allow_missing: bool = False) -> dict:
    """Read a result line back, rejecting anything outside the schema."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys must be correct/attempted/failed/metrics, got {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise ValueError("need attempted >= 1 and failed <= attempted")
    units = schema(trace)
    for name, entry in obj["metrics"].items():
        if name not in units:
            raise ValueError(f"unknown metric {name!r}")
        if set(entry) != {"value", "unit"} or entry["unit"] != units[name][0]:
            raise ValueError(f"metric {name!r} must be {{value, unit={units[name][0]!r}}}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"metric {name!r} has a non-finite value {value!r}")
    missing = set(units) - set(obj["metrics"])
    if missing and not allow_missing:
        raise ValueError(f"missing metrics: {sorted(missing)}")
    return obj
