"""The summary of tools/bench_ab.py on synthetic runs."""

import argparse
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_ab  # noqa: E402

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower"},
]


def _result(rate, p50, attempted=100, failed=0, correct=True):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"ops_per_s": {"value": rate, "unit": "1/s"}, "op_ms_p50": {"value": p50, "unit": "ms"}},
    }


def _pairs(parent_rates, change_rates):
    return [{"parent": _result(p, 1000 / p), "change": _result(c, 1000 / c)}
            for p, c in zip(parent_rates, change_rates)]


PARENT = [100.0, 101.0, 99.0, 100.5, 98.5, 100.0, 101.5, 99.5, 100.0, 102.0]


def test_a_clear_gain_meets_the_claim():
    change = [x * 1.1 for x in PARENT]
    change[3] = PARENT[3] * 0.95  # one lost pair
    entry = bench_ab.summarize(_pairs(PARENT, change), list(range(2030, 2040)), METRICS)
    assert entry["pairs"] == 10 and entry["seeds"] == list(range(2030, 2040))
    assert entry["first_side"] == ["parent", "change"] * 5
    assert entry["all_correct"] and entry["failed_ops"] == entry["parent_failed_ops"] == 0
    assert entry["attempted_ops"] == {"parent": 1000, "change": 1000}
    rate = entry["metrics"]["ops_per_s"]
    q1, median, q3 = statistics.quantiles(PARENT, n=4)
    assert rate["parent"] == {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
    assert rate["change_better_pairs"] == 9
    assert rate["median_ratio_change_over_parent"] == round(rate["change"]["median"] / rate["parent"]["median"], 4)
    assert rate["runs"]["parent"] == PARENT and rate["runs"]["change"] == [round(x, 4) for x in change]
    assert rate["claim"] == {
        "median_gain": round(rate["change"]["median"] - rate["parent"]["median"], 4),
        "parent_iqr": round(q3 - q1, 4),
        "met": True,
    }
    # lower is better for the latency: the same nine pairs win it
    p50 = entry["metrics"]["op_ms_p50"]
    assert p50["better"] == "lower" and p50["change_better_pairs"] == 9 and p50["claim"]["met"]
    assert p50["claim"]["median_gain"] > 0


@pytest.mark.parametrize("case", ["ties", "eight pairs", "inside the spread"])
def test_the_claim_rule(case):
    if case == "ties":  # a tie counts for neither side
        change = list(PARENT)
        change[0] = PARENT[0] * 1.1
    elif case == "eight pairs":
        change = [x * (0.99 if k in (1, 6) else 1.1) for k, x in enumerate(PARENT)]
    else:  # every pair won, by less than the parent's interquartile range
        change = [x + 0.5 for x in PARENT]
    rate = bench_ab.summarize(_pairs(PARENT, change), list(range(10)), METRICS)["metrics"]["ops_per_s"]
    won = {"ties": 1, "eight pairs": 8, "inside the spread": 10}[case]
    assert rate["change_better_pairs"] == won
    assert not rate["claim"]["met"]


def test_failures_and_wrong_runs_are_counted():
    results = _pairs(PARENT[:4], PARENT[:4])
    results[1]["change"] = _result(100.0, 10.0, attempted=90, failed=3)
    results[2]["parent"] = _result(100.0, 10.0, correct=False, failed=1)
    entry = bench_ab.summarize(results, [1, 2, 3, 4], METRICS)
    assert entry["failed_ops"] == 3 and entry["parent_failed_ops"] == 1
    assert entry["attempted_ops"] == {"parent": 400, "change": 390}
    assert not entry["all_correct"]


def test_seed_ranges():
    assert bench_ab._seeds("2030-2039") == list(range(2030, 2040))
    assert bench_ab._seeds("7") == [7]
    for bad in ("9-3", "a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_ab._seeds(bad)
