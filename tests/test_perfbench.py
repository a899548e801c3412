"""The benchmark's traced run as a test: its output checks must pass and every
per-layer metric that BENCHMARK.json names must come out, finite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ring", "digraph", "complete"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "201", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    names = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in names if not math.isfinite(metrics.get(name, {}).get("value", math.nan))] == []
    assert metrics["simulate.steps_run"]["value"] > 0
