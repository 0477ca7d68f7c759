#!/usr/bin/env python3
"""rosenpencil benchmark: one workload in one process, through the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid_verify --seed 0 --seconds 30 --trace 0

Workloads are ``grid_verify``, ``deep_verify`` and ``spectra`` (see
``workloads.py``).  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"  # instance files, removed at exit
OUT = HERE / "out"  # span files of traced runs
WORKLOAD_NAMES = ("grid_verify", "deep_verify", "spectra")
# one process, one BLAS thread: at most nproc threads, and a spare core for noise
BLAS_THREADS = "1"


def use_checkout_source() -> bool:
    """Put ``ROOT/src`` first on sys.path; False if the package is not there."""
    src = ROOT / "src"
    if not (src / "rosenpencil" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import rosenpencil

    return Path(rosenpencil.__file__).resolve().is_relative_to(src)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    start = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read when numpy loads, just below
    if not use_checkout_source():
        print(f"error: no rosenpencil package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness  # numpy, scipy and rosenpencil load here
    import speed

    imported = time.perf_counter()
    gauge = speed.SpeedGauge()
    gauge.tick(force=True)  # the first kernel run scales the imports and brackets the first set-up
    import_s = (imported - start) * gauge.factor(start, imported)
    meta = harness.metadata(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setups = [
            harness.setup(args.workload, args.seed, ROOT, work_dir, gauge) for _ in range(harness.SETUP_REPEATS)
        ]
        blocks = setups[0][1]
        problems = []
        if len({digest for _, _, digest in setups}) != 1:
            problems.append("the same seed wrote different instance files")
        if args.trace:
            OUT.mkdir(exist_ok=True)
            results, rec, times, found = harness.run_traced(
                blocks, args.seconds, OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            )
            metrics, lines = harness.traced_metrics(results, rec, times)
        else:
            results, peak_mb, found = harness.run_plain(blocks, args.seconds, gauge)
            setup_s = import_s + statistics.median(s for s, _, _ in setups)
            metrics, lines = harness.plain_metrics(results, gauge, setup_s, peak_mb)
        problems += found
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    harness.report_failures(results)
    wrong = [r for r in results if r.problem is not None]
    correct = not wrong and not problems
    print(f"rosenpencil benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for line in lines:
        print(line)
    for problem in problems + [f"{r.op.path}: {r.problem}" for r in wrong]:
        print(f"problem: {problem}")
    print(f"correct: {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
