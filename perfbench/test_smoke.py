"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

Checks the output schema, the metric names and units against
BENCHMARK.json, and that the correctness gate passes; never the timings.
Run with ``python -m pytest perfbench``.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=script.parent.parent)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_the_gate(workload, trace):
    proc = _run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env {") for line in proc.stdout.splitlines())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(HERE.parent / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", "regret", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
