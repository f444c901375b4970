"""Self-test of the benchmark: names match BENCHMARK.json, counts repeat.

    python3 -m pytest perfbench/tests -q

Runs every workload at full size, traced twice with the same seed, so
the whole file takes about seven minutes on two cores.  A count is every
per-layer metric whose unit is not a time or a share of time; two traced
runs with the same seed must report identical counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"ms", "s", "s/s"}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in TIME_UNITS}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 5, 1), bench(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counts(first) == counts(second)
    assert counts(first)["pipeline.frames"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    result = bench("clean", 5, 0)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
