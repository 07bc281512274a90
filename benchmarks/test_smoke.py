"""Tiny-size runs of the benchmark, so the harness cannot rot.

    python3 -m pytest -q benchmarks/test_smoke.py

Each workload runs for a few ticks, untraced and traced, and must emit
exactly the metrics BENCHMARK.json names, with their units. A checkout
without sources, or with a tampered policy fixture, must exit non-zero
without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert "(matches)" in proc.stdout
        assert "VIOLATED" not in proc.stdout


def _copy(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_refuses_without_sources(tmp_path):
    proc = run(_copy(tmp_path, with_src=False), "--workload", WORKLOADS[0], "--seed", "1",
               "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_refuses_tampered_fixture(tmp_path):
    root = _copy(tmp_path, with_src=True)
    fixture = root / "benchmarks" / "fixtures" / "levelk_policy.json"
    fixture.write_text(fixture.read_text().replace("0", "1", 1))
    proc = run(root, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert proc.returncode == 2
    assert "sha256" in proc.stderr
