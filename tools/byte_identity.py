#!/usr/bin/env python3
"""Check that two checkouts of rosenpencil give byte-identical results.

    python3 tools/byte_identity.py PARENT_DIR CHANGE_DIR

Each checkout runs in a subprocess of its own, importing the package from
its ``src/`` (and ``tests/oracles.py`` and ``perfbench/workloads.py`` from
the same checkout), and SHA-256-hashes:

- every output of the five builders (``build_w_sequence``,
  ``build_n_sequence``, ``build_h_sequence``, ``unimodular_pair``,
  ``fiedler_pencil_rect``), the two companion forms,
  ``linearization_with_witnesses`` and the ``emit_rsmp`` text of every
  instance, each array with its ``flags.writeable``, on the acceptance grid (every shape in {1,2,3}^3, every degree
  pair in {1..5}^2, every decision string) under the ``random_rsmp`` draw
  of seed 90210 and the ``oracles.spread_rsmp`` draw of seed 90211; a call
  that raises contributes its error type and text;
- the ``repr`` of every ``verify_theorem`` report (every figure, the
  block residuals included) on the same grid with one nonzero tail entry of
  each pencil raised by 1e-6 relative, under the ``random_rsmp`` draw of
  seed 90213 and the ``oracles.spread_rsmp`` draw of seed 90214: figures
  that are not zero, so the branch of the certificate that forms the scale
  |U| |L| |V| is compared too;
- apart from those, the same reports on ``random_rsmp`` instances (seed
  90215) of every shape in {1,2,3}^3 and degree pair in {1..3}^2, scaled
  so that the largest entry is 1e307 or 1.7e308, with the pencil as built
  and mutated as above: near the float maximum the certificate scales its
  factors down, so this digest follows a change to that scaling;
- stdout, stderr and exit code of ``cli.main`` for ``verify FILE --all``
  over the instance files of the ``grid_verify`` and ``deep_verify``
  benchmark workloads at seeds 0 and 1, for ``verify FILE --all --trials
  41`` over those of ``deep_verify`` at seed 0 (a point count other than
  the default, which must change no record: the points serve only a
  witness determinant that the exact expansion does not make constant),
  over ``oracles.spread_rsmp`` instances (seed 90212: complex coefficients
  over 1e-4..1e4) on the cells of both workloads at seed 0, which the
  certificate multiplies in complex arithmetic where the integer
  instances take real arithmetic, and for the default ``fuzz --out
  FILE``, with the file it writes;
- the same for ``pencil FILE --sigma S`` over the instance files of both
  verify workloads at seed 0, with S the first, a middle and the last
  decision string of the instance's degree;
- the same for ``eig FILE`` over the instance files of the ``spectra``
  workload at seeds 0 and 1, one digest per op, keyed by the op's place
  in the run and its file name, so that a difference names its file;
- the same for ``eig FILE`` over ``oracles.spread_rsmp`` instances (seed
  90216) of every cell of the ``spectra`` workload, with entries over
  1e-2..1e2 and over 1e-4..1e4 (426 ops, every one exit 0 when written):
  complex, badly scaled instances, where the workload's own are small
  integers; one digest per op, keyed by the spread and the cell.

Prints every digest that differs (and every other one, bar the eig ops,
which it counts) and exits 1 if any does, else 0.  Under a ``verify`` or
``fuzz`` stream or a report digest that differs it prints which record
keys differ, on how many records, and the range of each such key's values
in the change.
Takes a few minutes; the two checkouts run side by side, one BLAS thread
each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path

DIMS = (1, 2, 3)
DEGREES = (1, 2, 3, 4, 5)
# (workload, seed, flags added to ``verify FILE --all``)
CLI_RUNS = [
    ("grid_verify", 0, ()),
    ("grid_verify", 1, ()),
    ("deep_verify", 0, ()),
    ("deep_verify", 1, ()),
    ("deep_verify", 0, ("--trials", "41")),
]
EIG_SEEDS = (0, 1)
SPREAD_SEED = 90212
EIG_SPREAD_SEED = 90216
EIG_SPREAD_DECADES = (2, 4)
# (digest name, draw, seed, scales to which the largest entry is brought, degrees)
REPORT_RUNS = [
    ("mutated random_rsmp", "random_rsmp", 90213, (None,), DEGREES),
    ("mutated spread_rsmp", "spread_rsmp", 90214, (None,), DEGREES),
    ("1e307 and 1.7e308 random_rsmp, as built and mutated", "random_rsmp", 90215, (1e307, 1.7e308), (1, 2, 3)),
]


def _feed(h, out) -> None:
    """Hash one builder output: arrays by dtype, shape, writability and bytes, partitions by value.

    The writability is hashed so that an output that turns into a view of a
    read-only internal array, or stops being one, shows as a difference.
    """
    import numpy as np

    from rosenpencil.blocks import BlockMatrix, Pencil, PolyBlockMatrix

    if isinstance(out, (list, tuple)):
        h.update(f"[{len(out)}".encode())
        for x in out:
            _feed(h, x)
        h.update(b"]")
    elif isinstance(out, np.ndarray):
        h.update(f"{out.dtype}{out.shape}{out.flags.writeable}".encode())
        h.update(out.tobytes())
    elif isinstance(out, BlockMatrix):
        _feed(h, ("BlockMatrix", out.data, out.row_sizes, out.col_sizes))
    elif isinstance(out, PolyBlockMatrix):
        _feed(h, ("PolyBlockMatrix", out.poly.coeffs, out.row_sizes, out.col_sizes))
    elif isinstance(out, Pencil):
        _feed(h, ("Pencil", out.lead, out.tail, out.row_sizes, out.col_sizes))
    elif isinstance(out, (str, int)):
        h.update(repr(out).encode())
    else:
        raise TypeError(f"no hash rule for {type(out).__name__}")


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error text is part of the behaviour compared
        return ("raised", type(exc).__name__, str(exc))


def _builder_digests(digests: dict) -> int:
    import numpy as np

    import oracles
    import rosenpencil as rp
    from rosenpencil.sampling import random_rsmp

    per_string = [
        rp.build_w_sequence,
        rp.build_n_sequence,
        rp.build_h_sequence,
        rp.unimodular_pair,
        rp.fiedler_pencil_rect,
        rp.linearization_with_witnesses,
    ]
    per_instance = [rp.companion_first, rp.companion_second, rp.emit_rsmp]
    cases = 0
    for draw_name, draw, seed in (("random_rsmp", random_rsmp, 90210), ("spread_rsmp", oracles.spread_rsmp, 90211)):
        rng = np.random.default_rng(seed)
        hashes = {fn.__name__: hashlib.sha256() for fn in per_instance + per_string}
        cases = 0
        for cell in product(DIMS, DIMS, DIMS, DEGREES, DEGREES):
            r = draw(rng, *cell)
            for fn in per_instance:
                _feed(hashes[fn.__name__], _call(fn, r))
            for s in rp.all_decision_strings(r.degree):
                cases += 1
                for fn in per_string:
                    _feed(hashes[fn.__name__], _call(fn, r, s))
        for name, h in hashes.items():
            digests[f"{draw_name}/{name}"] = h.hexdigest()
    return cases


def _mutated(pencil, rng):
    """``pencil`` with one nonzero tail entry, picked by ``rng``, raised by 1e-6 relative."""
    import numpy as np

    from rosenpencil.blocks import Pencil

    tail = pencil.tail.copy()
    nonzero = np.argwhere(tail != 0)
    i, j = nonzero[int(rng.integers(len(nonzero)))]
    tail[i, j] *= 1 + 1e-6
    return Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes)


def _report_record(cell, sigma, scale, rep) -> str:
    """One ``verify_theorem`` report as a JSON record, for the differences ``record_diffs`` prints."""
    rec = {"cell": list(cell), "sigma": sigma, "scale": scale, "verdict": rep.verdict}
    for k in ("max_residual", "corollary_residual", "u_unimodularity", "v_unimodularity"):
        rec[k] = getattr(rep, k)
    rec.update({f"block {i},{j}": x for (i, j), x in rep.block_residuals.items()})
    return json.dumps(rec) + "\n"


def _report_digests(digests: dict, streams: dict) -> None:
    import numpy as np

    import oracles
    import rosenpencil as rp
    from rosenpencil.sampling import random_rsmp

    draws = {"random_rsmp": random_rsmp, "spread_rsmp": oracles.spread_rsmp}
    for name, draw, seed, scales, degrees in REPORT_RUNS:
        rng = np.random.default_rng(seed)
        h, records = hashlib.sha256(), []
        for cell in product(DIMS, DIMS, DIMS, degrees, degrees):
            drawn = draws[draw](rng, *cell)
            for scale in scales:
                r = drawn
                if scale is not None:
                    big = scale / max(np.abs(x).max() for x in (r.A.coeffs, r.B, r.C, r.D.coeffs))
                    r = rp.Rsmp(rp.MatrixPolynomial(r.A.coeffs * big), r.B * big, r.C * big,
                                rp.MatrixPolynomial(r.D.coeffs * big), check_regular=False)
                for s in rp.all_decision_strings(r.degree):
                    pencil, u, v = rp.linearization_with_witnesses(r, s)
                    pencils = [_mutated(pencil, rng)] if scale is None else [pencil, _mutated(pencil, rng)]
                    for L in pencils:
                        rep = _call(rp.verify_theorem, r, s, L, u, v)
                        h.update(repr(rep).encode())
                        if isinstance(rep, rp.EquivalenceReport):
                            records.append(_report_record(cell, s.decisions, scale, rep))
        digests[f"reports/{name}"] = h.hexdigest()
        streams[f"reports/{name}"] = "".join(records)


def _run_cli(argv) -> tuple[int, str, str]:
    from rosenpencil import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sample_sigmas(degree: int) -> list[str]:
    """The first, a middle and the last decision string of a degree."""
    from rosenpencil import all_decision_strings

    strings = [s.decisions for s in all_decision_strings(degree)]
    return sorted({strings[0], strings[len(strings) // 2], strings[-1]})


def _cli_digests(checkout: Path, digests: dict, streams: dict) -> None:
    import numpy as np

    import oracles
    import workloads
    from rosenpencil import emit_rsmp

    spread_cells = []
    # relative instance paths, so the records, which name the file, match across checkouts
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, seed, flags in CLI_RUNS:
            work = Path(f"{name}-{seed}")
            blocks, cells = workloads.plan(name, seed, checkout, work)
            workloads.write_instances(name, seed, cells, work)
            ops = [op for block in blocks for op in block]
            h = hashlib.sha256()
            records = []
            for op in ops:
                result = _run_cli(op.argv + list(flags))
                _feed(h, result)
                records.append(result[1])
            key = f"cli/verify --all{''.join(' ' + f for f in flags)}/{name} seed {seed}"
            digests[key] = h.hexdigest()
            streams[key] = "".join(records)
            if not flags and seed == 0:
                spread_cells += [op.cell for op in ops]
                h = hashlib.sha256()
                for op in ops:
                    for sigma in _sample_sigmas(max(op.cell[3:])):
                        _feed(h, _run_cli(["pencil", op.path, "--sigma", sigma]))
                digests[f"cli/pencil --sigma/{name} seed {seed}"] = h.hexdigest()
        work = Path("spread")
        work.mkdir()
        rng = np.random.default_rng(SPREAD_SEED)
        h = hashlib.sha256()
        records = []
        for k, cell in enumerate(spread_cells):
            path = work / f"{k:04d}.json"
            path.write_text(emit_rsmp(oracles.spread_rsmp(rng, *cell)), encoding="utf-8")
            result = _run_cli(["verify", str(path), "--all"])
            _feed(h, result)
            records.append(result[1])
        key = "cli/verify --all/spread_rsmp on the grid_verify and deep_verify cells of seed 0"
        digests[key] = h.hexdigest()
        streams[key] = "".join(records)
        for seed in EIG_SEEDS:
            work = Path(f"spectra-{seed}")
            blocks, cells = workloads.plan("spectra", seed, checkout, work)
            workloads.write_instances("spectra", seed, cells, work)
            for k, op in enumerate(op for block in blocks for op in block):
                h = hashlib.sha256()
                _feed(h, _run_cli(op.argv))
                digests[f"cli/eig/spectra seed {seed}/op {k:03d} {Path(op.path).name}"] = h.hexdigest()
        eig_cells = sorted({cell for block in workloads.WORKLOADS["spectra"][1] for cell in block})
        rng = np.random.default_rng(EIG_SPREAD_SEED)
        for decades in EIG_SPREAD_DECADES:
            for cell in eig_cells:
                path = Path("spread") / f"eig-{decades}-{''.join(map(str, cell))}.json"
                path.write_text(emit_rsmp(oracles.spread_rsmp(rng, *cell, decades=decades)), encoding="utf-8")
                h = hashlib.sha256()
                _feed(h, _run_cli(["eig", str(path)]))
                digests[f"cli/eig/spread_rsmp 1e-{decades}..1e{decades}/{cell}"] = h.hexdigest()
        h = hashlib.sha256()
        _feed(h, _run_cli(["fuzz", "--out", "fuzz.jsonl"]))
        streams["cli/fuzz --out"] = Path("fuzz.jsonl").read_text(encoding="utf-8")
        _feed(h, streams["cli/fuzz --out"])
        digests["cli/fuzz --out"] = h.hexdigest()
        os.chdir(checkout)


def record_diffs(parent: str, change: str) -> list[str]:
    """One line per record key whose value differs between two JSONL streams: on how many records, and the change's range."""
    old = [json.loads(line) for line in parent.splitlines()]
    new = [json.loads(line) for line in change.splitlines()]
    if len(old) != len(new):
        return [f"{len(old)} records against {len(new)}"]
    counts = Counter(k for a, b in zip(old, new) for k in set(a) | set(b) if a.get(k) != b.get(k))
    lines = []
    for k in sorted(counts):
        values = [b.get(k) for b in new]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            span = f"the change's values over all records {min(values)!r} to {max(values)!r}"
        else:
            span = f"{len(set(map(repr, values)))} distinct values in the change"
        lines.append(f"{k}: {counts[k]}/{len(old)} records differ, {span}")
    return lines


def worker(checkout: Path) -> int:
    """Print the digests of one checkout as one JSON object."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(checkout / sub))
    import rosenpencil

    if not Path(rosenpencil.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"rosenpencil was imported from {rosenpencil.__file__}, not from {checkout / 'src'}")
    digests: dict[str, str] = {}
    streams: dict[str, str] = {}
    cases = _builder_digests(digests)
    _report_digests(digests, streams)
    _cli_digests(checkout, digests, streams)
    print(json.dumps({"cases": cases, "digests": digests, "streams": streams}))
    return 0


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--worker":
        return worker(Path(argv[2]).resolve())
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--worker", str(Path(d).resolve())],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for d in argv[1:]
    ]
    results = []
    for d, proc in zip(argv[1:], procs):
        out, err = proc.communicate()
        if proc.returncode != 0:
            print(f"error: the run of {d} failed:\n{err}", file=sys.stderr)
            return 2
        results.append(json.loads(out.splitlines()[-1]))
    parent, change = results
    names = sorted(set(parent["digests"]) | set(change["digests"]))
    differ = [k for k in names if parent["digests"].get(k) != change["digests"].get(k)]
    for k in names:
        # the eig ops are too many to list one by one when they agree
        if k in differ or not k.startswith("cli/eig/"):
            print(f"{'DIFFERS' if k in differ else 'same   '}  {k}  {change['digests'].get(k, '-')[:16]}")
        if k in differ and k in parent["streams"] and k in change["streams"]:
            for line in record_diffs(parent["streams"][k], change["streams"][k]):
                print(f"           {line}")
    eig_ops = [k for k in names if k.startswith("cli/eig/")]
    print(f"{sum(k not in differ for k in eig_ops)}/{len(eig_ops)} eig ops identical")
    print(
        f"{len(names) - len(differ)}/{len(names)} digests identical "
        f"({parent['cases']} / {change['cases']} builder cases per draw)"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
