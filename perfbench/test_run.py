"""The benchmark's own test: every workload in quick mode, traced and
untraced, runs every check and reports every metric; without a
source tree the benchmark fails without printing a result.

    python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "7", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["attempted"] > 0 and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {
        f"{w['name']}.{m['name']}" for w in BENCHMARK["workloads"] for m in BENCHMARK[kind]
    }
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        unit = next(m["unit"] for m in BENCHMARK[kind] if name.endswith("." + m["name"]))
        assert metric["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "surround", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
