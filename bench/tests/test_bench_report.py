"""The result line has a fixed form, and the parser refuses anything else."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import report

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

E2E = {"setup_s": 0.81, "wall_s": 2.1, "peak_rss_mb": 88.0}


def test_result_line_round_trips():
    line = report.result_line(True, 18, 0, E2E, trace=False)
    obj = report.parse_result(line, trace=False)
    assert obj["attempted"] == 18 and obj["metrics"]["wall_s"] == {"value": 2.1, "unit": "s"}


@pytest.mark.parametrize("mutate", [
    lambda o: o["metrics"].update({"latency_ms": {"value": 1.0, "unit": "ms"}}),  # unknown name
    lambda o: o["metrics"]["wall_s"].update({"unit": "ms"}),
    lambda o: o["metrics"].pop("setup_s"),
    lambda o: o["metrics"]["wall_s"].update({"value": float("nan")}),
    lambda o: o.update({"extra": 1}),
    lambda o: o.update({"attempted": True}),
    lambda o: o.update({"attempted": 0, "failed": 0}),
    lambda o: o.update({"failed": 19}),
])
def test_parser_rejects(mutate):
    obj = json.loads(report.result_line(True, 18, 0, E2E, trace=False))
    mutate(obj)
    with pytest.raises(ValueError):
        report.parse_result(json.dumps(obj), trace=False)


def test_per_layer_names_are_not_end_to_end():
    line = report.result_line(True, 1, 0, E2E, trace=False)
    with pytest.raises(ValueError):
        report.parse_result(line, trace=True)


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rmt-spectra", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
