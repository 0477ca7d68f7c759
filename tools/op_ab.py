#!/usr/bin/env python3
"""Time the ops of one benchmark workload on two checkouts, in one process.

    python3 tools/op_ab.py PARENT CHANGE --workload W [--seed N] [--reps K] [--out FILE]

Both checkouts' ``rosenpencil`` packages are imported into this process,
each from its own ``src/``; the one whose turn it is stands in
``sys.modules``.  The ops are those of one run of workload W at seed N,
as ``perfbench/workloads.py`` of PARENT plans them, on instance files
written once into a temporary directory.  Every op is a call of
``cli.main`` and runs K times on each side, alternating which side goes
first.  Per op and side the tool keeps the minimum CPU time over the K
runs and a SHA-256 of the exit code, stdout and stderr of every run.

Prints the summed per-op minima of each side, their ratio (change over
parent), the median per-op ratio, and every op whose outputs differ
between the sides or between runs; over the ``verify`` ops among them,
which record keys differ and on how many records.  A separate pass, after
the timed runs and not timed itself, runs every op once more on each side
under ``tracemalloc`` and prints each side's peak of traced memory per op
and in total (the sum over ops and the largest op), so that a change to
what the package holds while it runs shows side by side.  Exits 1 if any
op differs, else 0.  BLAS runs on one thread.

With ``--out FILE`` the summary (the seed, op and run counts, the CPU
totals and their ratio, the median per-op ratio, the count of identical
ops and the two tracemalloc peaks of each side) is also written into FILE
under ``op_ab.W``, keeping whatever else FILE holds, as
``tools/bench_ab.py`` does for ``workloads.W``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from bench_ab import write_entry
from byte_identity import record_diffs

PACKAGE = "rosenpencil"


def _own(name: str) -> bool:
    return name == PACKAGE or name.startswith(PACKAGE + ".")


def _activate(modules: dict) -> None:
    """Make ``modules`` the package that imports (and imports inside functions) resolve to."""
    for name in [k for k in sys.modules if _own(k)]:
        del sys.modules[name]
    sys.modules.update(modules)


def _load(checkout: Path) -> dict:
    """Import the package of one checkout and return its modules, the CLI included."""
    _activate({})
    src = checkout / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
    finally:
        sys.path.remove(str(src))
    if not Path(pkg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: {PACKAGE} was imported from {pkg.__file__}, not from {src}")
    return {k: m for k, m in sys.modules.items() if _own(k)}


def _run(modules: dict, argv: list[str]) -> tuple[float, str, str]:
    """CPU seconds of one ``cli.main(argv)``, a digest of what it returned and printed, and its stdout."""
    _activate(modules)
    main = modules[PACKAGE + ".cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.process_time()
        code = main(argv)
        spent = time.process_time() - start
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()
    return spent, digest, out.getvalue()


def _peak(modules: dict, argv: list[str]) -> int:
    """Peak bytes traced by ``tracemalloc`` during one ``cli.main(argv)``, its output discarded."""
    _activate(modules)
    main = modules[PACKAGE + ".cli"].main
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _ops(parent: Path, parent_modules: dict, workload: str, seed: int, work: Path) -> list:
    """The ops of one run of the workload, with their instance files written."""
    _activate(parent_modules)
    sys.path.insert(0, str(parent / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(parent / "perfbench"))
    blocks, cells = workloads.plan(workload, seed, parent, work)
    workloads.write_instances(workload, seed, cells, work)
    return [op for block in blocks for op in block]


def summarize(best: dict, peaks: dict, identical: int, seed: int, reps: int) -> dict:
    """The summary of one comparison: ``best`` and ``peaks`` map each side to its per-op CPU minima and tracemalloc peaks (bytes)."""
    total = {side: sum(best[side]) for side in best}
    ratios = [c / p for p, c in zip(best["parent"], best["change"]) if p > 0]
    mib = {}
    for label, reduce in (("sum_over_ops", sum), ("largest_op", max)):
        p, c = reduce(peaks["parent"]), reduce(peaks["change"])
        mib[label] = {"parent": round(p / 2**20, 2), "change": round(c / 2**20, 2), "ratio": round(c / p, 4)}
    return {
        "seed": seed,
        "ops": len(best["parent"]),
        "runs_per_op_and_side": reps,
        "cpu_s": {side: round(total[side], 4) for side in total},
        "cpu_ratio_change_over_parent": round(total["change"] / total["parent"], 4),
        "median_per_op_ratio": round(statistics.median(ratios), 4),
        "identical_ops": identical,
        "tracemalloc_peak_mib": mib,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="op_ab.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=["grid_verify", "deep_verify", "spectra"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out", type=Path, default=None, help="JSON file to write the summary into, under op_ab.W")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads with the first package

    sides = {"parent": _load(args.parent.resolve()), "change": _load(args.change.resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        ops = _ops(args.parent.resolve(), sides["parent"], args.workload, args.seed, Path(tmp))
        best = {side: [float("inf")] * len(ops) for side in sides}
        digests = {side: [set() for _ in ops] for side in sides}
        stdout = {side: [""] * len(ops) for side in sides}  # of the first run
        for rep in range(args.reps):
            for k, op in enumerate(ops):
                order = ("parent", "change") if (rep + k) % 2 == 0 else ("change", "parent")
                for side in order:
                    spent, digest, out = _run(sides[side], op.argv)
                    best[side][k] = min(best[side][k], spent)
                    digests[side][k].add(digest)
                    if rep == 0:
                        stdout[side][k] = out
        peaks = {side: [0] * len(ops) for side in sides}
        for k, op in enumerate(ops):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                peaks[side][k] = _peak(sides[side], op.argv)

    differ = [k for k in range(len(ops)) if len(digests["parent"][k] | digests["change"][k]) != 1]
    for k in differ:
        print(f"DIFFERS  op {k:04d}  {' '.join(ops[k].argv)}")
    records = [k for k in differ if ops[k].argv[0] == "verify"]
    if records:
        print(f"record keys that differ over the {len(records)} verify ops that differ:")
        joined = {side: "".join(stdout[side][k] for k in records) for side in sides}
        for line in record_diffs(joined["parent"], joined["change"]):
            print(f"  {line}")
    summary = summarize(best, peaks, len(ops) - len(differ), args.seed, args.reps)
    cpu = summary["cpu_s"]
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, {args.reps} runs per op and side")
    print(f"CPU s, sum of per-op minima: parent {cpu['parent']:.4f}, change {cpu['change']:.4f}")
    print(f"total ratio change/parent: {summary['cpu_ratio_change_over_parent']:.4f}")
    print(f"median per-op ratio: {summary['median_per_op_ratio']:.4f}")
    print("tracemalloc peak per op, KiB (untimed pass):")
    for k, op in enumerate(ops):
        p, c = peaks["parent"][k], peaks["change"][k]
        print(f"  op {k:04d}  parent {p / 1024:10.1f}  change {c / 1024:10.1f}  ratio {c / p:.4f}  {Path(op.argv[1]).name}")
    for label, mib in summary["tracemalloc_peak_mib"].items():
        print(f"tracemalloc peak, {label.replace('_', ' ')}: parent {mib['parent']:.2f} MiB, "
              f"change {mib['change']:.2f} MiB, ratio {mib['ratio']:.4f}")
    print(f"outputs: {summary['identical_ops']}/{len(ops)} ops identical")
    if args.out:
        write_entry(args.out, "op_ab", args.workload, summary)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
