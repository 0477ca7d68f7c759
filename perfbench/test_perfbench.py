"""Smoke tests of the benchmark itself, at tiny size."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def _tiny(name: str, seed: int, work_dir: Path) -> list[list[workloads.Op]]:
    """The first op of the workload's first block, its instance written."""
    blocks, cells = workloads.plan(name, seed, run.ROOT, work_dir)
    workloads.write_instances(name, seed, cells, work_dir)
    return [blocks[0][:1]]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_has_its_unit(name, tmp_path):
    blocks = _tiny(name, 0, tmp_path)
    gauge = speed.SpeedGauge()
    results, peak_mb, problems = harness.run_plain(blocks, 0, gauge)
    metrics, _ = harness.plain_metrics(results, gauge, 1.0, peak_mb)
    assert {k: u for k, (_, u) in metrics.items()} == _units(SPEC["end_to_end"])
    results, rec, times, found = harness.run_traced(blocks, 0, tmp_path / "spans.jsonl")
    metrics, _ = harness.traced_metrics(results, rec, times)
    assert {k: u for k, (_, u) in metrics.items()} == _units(SPEC["per_layer"])
    assert problems == found == []
    assert not any(r.failed for r in results)


def test_result_line_follows_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"),
         "--workload", "grid_verify", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 25
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    for name in result["metrics"]:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()[:-1])


def _files(name: str, seed: int, work_dir: Path) -> list[bytes]:
    _, cells = workloads.plan(name, seed, run.ROOT, work_dir)
    workloads.write_instances(name, seed, cells, work_dir)
    return [(work_dir / f"{k:04d}.json").read_bytes() for k in range(len(cells))]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_instance_files(name, tmp_path):
    first = _files(name, 5, tmp_path / "a")
    assert _files(name, 5, tmp_path / "b") == first
    other = _files(name, 6, tmp_path / "c")
    assert len(other) == len(first) and other != first


def test_rejected_instance_is_a_failed_op(tmp_path):
    good = _tiny("grid_verify", 0, tmp_path)[0][0]
    doc = json.loads(Path(good.path).read_text())
    doc["extra_field"] = 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    bad = workloads.Op("verify", str(bad_path), good.cell)
    results, _, problems = harness.run_plain([[bad, good]], 0, speed.SpeedGauge())
    assert [(r.code, r.error, r.failed) for r in results] == [(2, None, True), (0, None, False)]
    assert problems == []
