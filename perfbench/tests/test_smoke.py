"""Smoke check of the benchmark at its smallest run length.

    python3 -m pytest perfbench/tests

With a run length near zero every workload runs one command (two when
traced). The check is that every workload and every metric named in
BENCHMARK.json appears in the output with its unit, that the outputs
pass their checks, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric_with_its_unit(trace, kind):
    proc = _run(ROOT, "--workload", "all", "--seconds", "0.01", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK[kind]:
            key = f"{workload['name']}/{metric['name']}"
            assert key in result["metrics"], key
            assert result["metrics"][key]["unit"] == metric["unit"], key
            assert isinstance(result["metrics"][key]["value"], (int, float)), key
            assert f"{workload['name']}: {metric['name']} = " in proc.stdout, key


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep-default", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
