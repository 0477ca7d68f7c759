"""Runs one workload through ``rosenpencil.cli.main`` and reports its metrics.

Every op is one in-process ``cli.main(argv)`` call with stdout and stderr
captured in memory, so the benchmark times the path a user runs.  Ops run
in whole blocks until the time budget is spent; output checks, the replay
of one op and the traced comparison all run after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
import speed
import workloads
from rosenpencil import cli

__all__ = ["OpResult", "TracedRun", "run_op", "setup", "run_plain", "run_traced", "metadata", "report_failures"]

SETUP_REPEATS = 3
# the tail percentile needs ten samples beyond it
P90_MIN_OPS = 100


@dataclass
class OpResult:
    op: workloads.Op
    block: int
    seconds: float
    code: int | None  # exit code; None when an exception escaped cli.main
    error: str | None  # type of the escaped exception
    stdout: str
    problem: str | None = None  # what the output checks found wrong
    trace: str | None = None  # traceback of the escaped exception
    start: float = 0.0
    scaled: float = 0.0  # seconds at reference speed, see speed.py

    @property
    def failed(self) -> bool:
        return self.code != 0 or self.problem is not None


def run_op(op: workloads.Op, block: int = 0, argv: list[str] | None = None) -> OpResult:
    """One CLI call, timed; an exception escaping it is recorded, not raised."""
    out, err = io.StringIO(), io.StringIO()
    code = error = trace = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv if argv is None else argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # one crashing op must not end the run
        error, trace = type(exc).__name__, traceback.format_exc()
    seconds = time.perf_counter() - start
    return OpResult(op, block, seconds, code, error, out.getvalue(), trace=trace, start=start)


def report_failures(results: list[OpResult]) -> None:
    """Each kind of failure once on stderr, with the traceback if one escaped."""
    seen = set()
    for r in results:
        kind = r.error or (f"exit {r.code}" if r.code != 0 else r.problem)
        if r.failed and kind not in seen:
            seen.add(kind)
            detail = r.trace or r.problem or ""
            print(f"failed op {r.op.path} ({kind}):\n{detail}", file=sys.stderr)


def setup(name: str, seed: int, root: Path, work_dir: Path, gauge: speed.SpeedGauge):
    """Plan the ops, write the instance files, warm up; returns (seconds, blocks, digest).

    The seconds are at reference speed: the set-up's time scaled by the
    kernel runs that bracket it, the one after it taken here.
    """
    start = time.perf_counter()
    blocks, cells = workloads.plan(name, seed, root, work_dir)
    workloads.write_instances(name, seed, cells, work_dir)
    # on spectra the worked example: a first op drawn by the seed would put its cost, 20 ms to 1 s, in set-up
    warm = next((op for op in blocks[0] if op.cell is None), blocks[0][0])
    run_op(warm, argv=warm.warmup_argv)
    end = time.perf_counter()
    gauge.tick(force=True)
    seconds = (end - start) * gauge.factor(start, end)
    digest = hashlib.sha256()
    for k in range(len(cells)):
        digest.update((work_dir / f"{k:04d}.json").read_bytes())
    return seconds, blocks, digest.hexdigest()


def _blocks_for(blocks, seconds: float):
    """Whole blocks, cycling, until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    for b, block in enumerate(itertools.cycle(blocks)):
        if b and time.perf_counter() - start >= seconds:
            return
        yield b, block


def _check(res: OpResult) -> None:
    if res.code != 0:
        return
    try:
        if res.op.command == "verify":
            res.problem = checks.check_verify(res.op.path, res.stdout)
        else:
            res.problem = checks.check_eig(res.op.path, res.stdout, res.op.cell is None)
    except (ValueError, KeyError, TypeError) as exc:
        res.problem = f"unreadable output: {type(exc).__name__}: {exc}"


def run_plain(blocks, seconds: float, gauge: speed.SpeedGauge):
    """Timed run with tracing off; returns (results, peak RSS in MB, consistency problems)."""
    gauge.tick(force=True)
    results = []
    for b, block in _blocks_for(blocks, seconds):
        for op in block:
            results.append(run_op(op, b))
            gauge.tick()
    gauge.tick(force=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for b in {res.block for res in results}:
        block = [res for res in results if res.block == b]
        factor = gauge.factor(block[0].start, block[-1].start + block[-1].seconds)
        for res in block:
            res.scaled = res.seconds * factor
    for res in results:
        _check(res)
    first = results[0]
    again = run_op(first.op)
    problems = []
    if (again.code, again.error, again.stdout) != (first.code, first.error, first.stdout):
        problems.append(f"re-running {first.op.path} did not reproduce its report stream")
    return results, peak_mb, problems


def _run_traced_op(rec: spans.SpanRecorder, op_id: int, op: workloads.Op):
    start = time.perf_counter()
    try:
        if op.command == "verify":
            out, error = spans.traced_verify(rec, op_id, op.path), None
        else:
            out, error = spans.traced_eig(rec, op_id, op.path), None
    except (ValueError, OSError):  # cli.main turns these into exit code 2
        out, error = None, "exit 2"
    except Exception as exc:  # same containment as run_op
        out, error = None, type(exc).__name__
    return time.perf_counter() - start, out, error


def _traced_mismatch(res: OpResult, out, error) -> str | None:
    if res.error is not None or res.code == 2:
        want = res.error or "exit 2"
        return None if error == want else f"traced op gave {error}, the command {want}"
    if error is not None:
        return f"traced op raised {error}, the command did not"
    if res.op.command == "verify":
        return None if out == res.stdout else "traced report stream differs from the command's"
    try:
        return checks.same_report(checks.parse_eig_output(res.stdout), out)
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"


@dataclass
class TracedRun:
    """Per-op seconds of a traced run, one list per way of running the ops."""

    cli_s: list[float] = field(default_factory=list)  # cli.main
    runner_s: list[float] = field(default_factory=list)  # the traced runner, spans off (spans.NullRecorder)
    traced_s: list[float] = field(default_factory=list)  # the traced runner, spans on

    def overhead(self) -> float:
        """Median over ops of traced over untraced runner time, minus one.

        Each op's two runs are back to back, so the pair sees one core
        speed; the median keeps a run that a speed swing caught from
        moving the figure.
        """
        return statistics.median(t / u for t, u in zip(self.traced_s, self.runner_s)) - 1


def run_traced(blocks, seconds: float, spans_path: Path):
    """Each op through cli.main and twice through the traced runner.

    The runner goes once with spans recorded and once with a recorder that
    records nothing, the two taking turns at going first, so their
    difference is the cost of tracing on one code path.  Returns
    (results, recorder, TracedRun, problems).
    """
    rec, null = spans.SpanRecorder(), spans.NullRecorder()
    times = TracedRun()
    results, problems = [], []
    for b, block in _blocks_for(blocks, seconds):
        for op in block:
            op_id = len(results)
            res = run_op(op, b)
            results.append(res)
            if op_id % 2:
                untraced_s, _, _ = _run_traced_op(null, op_id, op)
                traced_s, out, error = _run_traced_op(rec, op_id, op)
            else:
                traced_s, out, error = _run_traced_op(rec, op_id, op)
                untraced_s, _, _ = _run_traced_op(null, op_id, op)
            times.cli_s.append(res.seconds)
            times.runner_s.append(untraced_s)
            times.traced_s.append(traced_s)
            problem = _traced_mismatch(res, out, error)
            if problem:
                problems.append(f"{op.path}: {problem}")
    for res in results:
        _check(res)
    rec.write(spans_path)
    return results, rec, times, problems


def _percentile_ms(times: list[float], q: float) -> float:
    # nearest rank: with whole blocks of few ops, interpolating would mix two cells' times
    return float(np.percentile(times, q, method="inverted_cdf")) * 1e3


def _rate(results: list[OpResult], seconds) -> float:
    """Completed ops per second of op time, over the whole timed run."""
    return sum(not r.failed for r in results) / sum(seconds(r) for r in results)


def plain_metrics(results, gauge: speed.SpeedGauge, setup_s: float, peak_mb: float) -> tuple[dict, list[str]]:
    """End-to-end metrics and the human-readable lines that describe them.

    Op times are at reference speed (see speed.py); the wall-clock figures
    are printed beside them.
    """
    n = len(results)
    scaled = [r.scaled for r in results]
    wall = [r.seconds for r in results]
    metrics = {
        "ops_per_s": (_rate(results, lambda r: r.scaled), "1/s"),
        "op_ms_p50": (_percentile_ms(scaled, 50), "ms"),
        "op_ms_p90": (_percentile_ms(scaled, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    blocks = len({r.block for r in results})
    walls = {
        "ops_per_s": _rate(results, lambda r: r.seconds),
        "op_ms_p50": _percentile_ms(wall, 50),
        "op_ms_p90": _percentile_ms(wall, 90),
    }
    failed = [r for r in results if r.failed]
    kinds: dict[str, int] = {}
    for r in failed:
        kind = r.error or (f"exit {r.code}" if r.code != 0 else "wrong output")
        kinds[kind] = kinds.get(kind, 0) + 1
    p90_note = "" if n >= P90_MIN_OPS else f"; fewer than {P90_MIN_OPS} ops, so under ten samples lie beyond it"
    notes = {
        "ops_per_s": f"{n - len(failed)} of {n} ops completed, {blocks} blocks",
        "op_ms_p50": f"{n} ops",
        "op_ms_p90": f"{n} ops{p90_note}",
        "setup_s": f"at reference speed; imports plus the median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "whole process, up to the end of the timed run",
    }
    for k, v in walls.items():
        notes[k] = f"at reference speed; wall clock {v:.6g}; {notes[k]}"
    lines = [f"{k:<14} {v:12.6g} {u:<5} ({notes[k]})" for k, (v, u) in metrics.items()]
    factors = [speed.REF_S / s for s in gauge.seconds]
    lines.append(f"speed factor: median {statistics.median(factors):.4g}, range {min(factors):.4g}-{max(factors):.4g} "
                 f"over {len(factors)} reference runs")
    lines.append(f"{'failed_frac':<14} {len(failed) / n:12.6g} {'frac':<5} "
                 f"({len(failed)} of {n} ops; {kinds or 'none'})")
    return metrics, lines


def traced_metrics(results, rec: spans.SpanRecorder, times: TracedRun) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run and a table of the spans."""
    n = len(results)
    selfs = rec.self_times()
    op_total = sum(end - start for name, start, end, _, _ in rec.spans if name == spans.ROOT)
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'span':<36} {'calls/op':>10} {'busy_s':>10} {'share':>8}"]
    for name in spans.SPANS:
        calls, busy = selfs.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count/op")
        metrics[f"{name}.share"] = (busy / op_total, "frac")
        lines.append(f"{name:<36} {calls / n:10.4g} {busy:10.4f} {busy / op_total:8.2%}")
    uncovered = selfs.get(spans.ROOT, (0, 0.0))[1]
    lines.append(f"{'(no span)':<36} {'':>10} {uncovered:10.4f} {uncovered / op_total:8.2%}")
    for name in spans.WORK_COUNTS:
        metrics[name] = (rec.counts.get(name, 0) / n, "count/op")
        lines.append(f"{name:<46} {metrics[name][0]:12.6g} per op")
    overhead = times.overhead()
    cli_s, runner_s, traced_s = sum(times.cli_s), sum(times.runner_s), sum(times.traced_s)
    failed = sum(r.failed for r in results)
    metrics["uncovered_frac"] = (uncovered / op_total, "frac")
    metrics["trace_overhead_frac"] = (overhead, "frac")
    metrics["failed_frac"] = (failed / n, "frac")
    lines.append(f"traced ops {n}: runner with spans {traced_s:.4f} s, without {runner_s:.4f} s; "
                 f"trace overhead {overhead:+.3%} (median over ops)")
    lines.append(f"cli.main on the same ops {cli_s:.4f} s, {cli_s / runner_s - 1:+.2%} against the runner "
                 "without spans, which skips its argument parsing and printing")
    lines.append(f"failed_frac {failed / n:.6g} ({failed} of {n} ops through cli.main)")
    return metrics, lines


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit(root: Path) -> str:
    """The commit of a git checkout, read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": git_commit(root),
        "processes": 1,
    }
