#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and summarise them.

    python3 tools/bench_ab.py PARENT CHANGE --workload W --seeds A-B --out FILE

Pair k runs ``perfbench/run.py --workload W --seed A+k --seconds S
--trace 0`` once in each checkout, S being the ``run_seconds`` of
PARENT's ``BENCHMARK.json``, each with that checkout's own ``run.py``
and package, in a subprocess whose working directory is the checkout;
the parent goes first in even pairs and the change in odd ones.  The last line of each run's stdout is its result (see
``perfbench/run.py``).

The summary is one ``workloads`` entry in the shape of the committed
``BENCH_*.json`` files: the pairs and seeds, which side went first,
whether every run was correct, the attempted and failed ops of each side,
and per end-to-end metric of PARENT's ``BENCHMARK.json`` the median and
quartiles of each side, the pairs the change won (ties count for
neither side), the ratio of the medians (change over parent), every run,
and the claim rule: the change wins at least nine tenths of the pairs,
and its median is better than the parent's by more than the parent's
interquartile range.  Quartiles are those of ``statistics.quantiles``.

The entry is written into FILE under ``workloads.W``, keeping whatever
else FILE holds.  A run that exits non-zero or prints no result stops the
tool with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid_verify", "deep_verify", "spectra")
SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # of the pairs the change must win


def _seeds(text: str) -> list[int]:
    """``A-B`` as the seeds A..B, inclusive; a single seed also does."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _quartiles(runs: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(results: list[dict], seeds: list[int], metrics: list[dict]) -> dict:
    """The ``workloads`` entry of the pairs ``results``, each ``{"parent": result, "change": result}``.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``
    (name, unit, better).  Needs at least two pairs, for the quartiles.
    """
    pairs = len(results)
    entry = {
        "pairs": pairs,
        "seeds": seeds,
        "all_correct": all(res[side]["correct"] for res in results for side in SIDES),
        "failed_ops": sum(res["change"]["failed"] for res in results),
        "parent_failed_ops": sum(res["parent"]["failed"] for res in results),
        "attempted_ops": {side: sum(res[side]["attempted"] for res in results) for side in SIDES},
        "first_side": [SIDES[k % 2] for k in range(pairs)],
        "metrics": {},
    }
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        runs = {side: [res[side]["metrics"][name]["value"] for res in results] for side in SIDES}
        parent, change = _quartiles(runs["parent"]), _quartiles(runs["change"])
        won = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        gain = sign * (change["median"] - parent["median"])
        iqr = parent["q3"] - parent["q1"]
        entry["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_better_pairs": won,
            "median_ratio_change_over_parent": round(change["median"] / parent["median"], 4),
            "runs": {side: [round(x, 4) for x in runs[side]] for side in SIDES},
            "claim": {
                "median_gain": round(gain, 4),
                "parent_iqr": round(iqr, 4),
                "met": won >= math.ceil(CLAIM_SHARE * pairs) and gain > iqr,
            },
        }
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench_ab.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, type=_seeds, help="A-B: one pair per seed, A..B inclusive")
    ap.add_argument("--out", required=True, type=Path, help="BENCH file to write the entry into")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two pairs")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    results = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        res = {side: run_once(checkouts[side], args.workload, seed, seconds) for side in order}
        results.append(res)
        rate = {side: res[side]["metrics"]["ops_per_s"]["value"] for side in SIDES}
        print(f"pair {k} seed {seed}: ops_per_s parent {rate['parent']:.4g}, change {rate['change']:.4g}",
              file=sys.stderr)
    write_entry(args.out, "workloads", args.workload, summarize(results, args.seeds, spec["end_to_end"]))
    return 0


def write_entry(path: Path, section: str, key: str, entry: dict) -> None:
    """Write ``entry`` into the JSON file ``path`` under ``section.key``, keeping whatever else it holds."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault(section, {})[key] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
