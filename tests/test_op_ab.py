"""The summary of tools/op_ab.py and the file it writes, on synthetic timings."""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import op_ab  # noqa: E402


def test_summary_holds_what_the_tool_prints():
    best = {"parent": [0.010, 0.020, 0.040], "change": [0.009, 0.016, 0.040]}
    peaks = {"parent": [2**20, 3 * 2**20, 2**21], "change": [2**20, 2**21, 2**21]}
    summary = op_ab.summarize(best, peaks, 3, 5, 2)
    assert summary == {
        "seed": 5,
        "ops": 3,
        "runs_per_op_and_side": 2,
        "cpu_s": {"parent": 0.07, "change": 0.065},
        "cpu_ratio_change_over_parent": round(0.065 / 0.07, 4),
        "median_per_op_ratio": round(statistics.median([0.9, 0.8, 1.0]), 4),
        "identical_ops": 3,
        "tracemalloc_peak_mib": {
            "sum_over_ops": {"parent": 6.0, "change": 5.0, "ratio": round(5 / 6, 4)},
            "largest_op": {"parent": 3.0, "change": 2.0, "ratio": round(2 / 3, 4)},
        },
    }


def test_out_writes_under_op_ab_and_keeps_the_rest(tmp_path):
    # the same writer as bench_ab's --out, under op_ab.W instead of workloads.W
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"change": "text", "workloads": {"spectra": {"pairs": 10}},
                                "op_ab": {"spectra": {"seed": 1}}}))
    op_ab.write_entry(path, "op_ab", "grid_verify", {"seed": 9})
    op_ab.write_entry(path, "op_ab", "spectra", {"seed": 2})
    assert json.loads(path.read_text()) == {
        "change": "text", "workloads": {"spectra": {"pairs": 10}},
        "op_ab": {"spectra": {"seed": 2}, "grid_verify": {"seed": 9}},
    }
    fresh = tmp_path / "new.json"
    op_ab.write_entry(fresh, "op_ab", "deep_verify", {"seed": 3})
    assert json.loads(fresh.read_text()) == {"op_ab": {"deep_verify": {"seed": 3}}}
