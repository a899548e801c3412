"""The benchmark's runs as tests, traced and untraced: their output checks
must pass, and every metric that BENCHMARK.json names for the run (per-layer
traced, end-to-end untraced) must come out, finite.  A numpy floating-point
warning in a run fails it."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["ring", "digraph", "complete"]


def checked_metrics(workload: str, trace: int, section: str) -> dict:
    """The metrics of a zero-second benchmark run at seed 201, after checking
    that it was correct, failed nothing and gave every metric of `section`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "201", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = result["metrics"]
    names = [entry["name"] for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    assert [name for name in names if not math.isfinite(metrics.get(name, {}).get("value", math.nan))] == []
    return metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct(workload):
    assert checked_metrics(workload, 1, "per_layer")["simulate.steps_run"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_benchmark_run_is_correct(workload):
    checked_metrics(workload, 0, "end_to_end")
