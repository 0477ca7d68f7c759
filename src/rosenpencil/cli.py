"""Command-line interface: build pencils, verify them, inspect spectra, fuzz.

Exit codes: 0 on success, 1 when a verification fails, 2 on input errors
(a malformed command line included) and on numerical failures (a routine
that did not converge or could not certify its result); either kind of
error prints one ``error: ...`` line.
Reports are line-delimited strict JSON records: a figure that is not
finite (an overflowing or NaN residual, whose verdict is "fail") is written
as null, never as the non-standard tokens Infinity or NaN.  Identical
inputs, seed, and flags produce byte-identical report streams (timing is
kept out of the records for exactly that reason).

``verify`` and ``fuzz`` certify U L V = T coefficient by coefficient for
every decision string of one instance (``equivalence.verify_theorem``).
Sample points, drawn at most once per instance from the seed, serve only
the determinant of a witness whose exact expansion is not one constant.
Each string's tail and its size and structure verdicts come from the plan
of the instance's cell shape (``fiedler._Plan``); its witnesses come from
the walk of N and H (``equivalence._walk``), one path memo per instance,
and the certificate trusts them by identity.  Each record is written
around the instance's JSON text, made once per instance (``_Records``),
and reads byte for byte as the per-string public calls would write it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import equivalence, fiedler, spectral
from .errors import DimensionError, NumericalFailure, ParseError
from .rsmp import Rsmp
from .sampling import random_rsmp
from .serialization import emit_pencil, parse_rsmp
from .sigma import SigmaSeq, all_decision_strings, parse_sigma

__all__ = ["main", "RunReport"]


def _finite(x) -> float | None:
    """A figure for a record: non-finite values become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _figure(x) -> str:
    """A figure as a record writes it: ``repr`` of the float, as ``json.dumps`` writes one, or null when it is not finite."""
    x = float(x)
    return repr(x) if math.isfinite(x) else "null"


class _Records:
    """The record writer of one instance: its JSON text is made once, and each record is written around it.

    A record reads, byte for byte, as ``json.dumps`` writes the dict of
    ``RunReport.to_record``: keys in that order, ``", "`` and ``": "``
    between them, ASCII only, a non-finite figure as null.  It writes
    ``sigma`` and ``verdict`` unescaped and ``rows`` and ``cols`` as
    integers, so it takes only what ``_verify_instance`` gives it: a
    decision string of C and I, ``pass`` or ``fail``, and integer sizes.
    ``RunReport.to_record`` takes any fields, through ``json.dumps``.
    """

    __slots__ = ("_head",)

    def __init__(self, instance: dict):
        self._head = '{"instance": ' + json.dumps(instance) + ', "sigma": "'

    def line(self, sigma, rows, cols, max_residual, corollary_residual, u_unimodularity, v_unimodularity,
             sizes_ok, structure_ok, verdict) -> str:
        return (
            f'{self._head}{sigma}", "rows": {rows:d}, "cols": {cols:d}, "max_residual": {_figure(max_residual)}, '
            f'"corollary_residual": {_figure(corollary_residual)}, "u_unimodularity": {_figure(u_unimodularity)}, '
            f'"v_unimodularity": {_figure(v_unimodularity)}, "sizes_ok": {"true" if sizes_ok else "false"}, '
            f'"structure_ok": {"true" if structure_ok else "false"}, "verdict": "{verdict}"}}'
        )


@dataclass
class RunReport:
    """Flat record of one verification run (timing stays out of the record)."""

    instance: dict
    sigma: str
    rows: int
    cols: int
    max_residual: float
    corollary_residual: float
    u_unimodularity: float
    v_unimodularity: float
    sizes_ok: bool
    structure_ok: bool
    verdict: str

    def to_record(self) -> str:
        """The record as one line of strict JSON: the fields in order, a non-finite figure as null."""
        data = {
            "instance": self.instance,
            "sigma": self.sigma,
            "rows": self.rows,
            "cols": self.cols,
            "max_residual": _finite(self.max_residual),
            "corollary_residual": _finite(self.corollary_residual),
            "u_unimodularity": _finite(self.u_unimodularity),
            "v_unimodularity": _finite(self.v_unimodularity),
            "sizes_ok": self.sizes_ok,
            "structure_ok": self.structure_ok,
            "verdict": self.verdict,
        }
        return json.dumps(data, sort_keys=False, allow_nan=False)


def _read_instance(path: str) -> Rsmp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rsmp(fh.read())


def _sigma_for(r: Rsmp, text: str) -> SigmaSeq:
    return parse_sigma(text, degree=r.degree)


class _Run(NamedTuple):
    """One decision string's verdict, "pass" or "fail", and its record line."""

    verdict: str
    record: str


def _verify_instance(r: Rsmp, sigmas, instance: dict, trials: int, tol: float, seed: int):
    """The verdict and record of every decision string of ``sigmas``, in order, for one instance.

    A witness determinant that needs sample points gets the instance's
    ``trials`` points, drawn at most once from an rng seeded with ``seed``,
    made only then.  The tail, its partition and the string's size and
    structure verdicts come from the plan of the instance's shape, the
    tail gathered from the instance's coefficients in its dtype (float64
    when the instance is real).  Each string is one walk of N and H
    (``equivalence._walk``) in that dtype over the path memo, so strings
    in lexicographic order walk the prefix trie depth first and build
    each prefix once.  The witnesses are the stacks of the last prefix's
    grids and go to the certificate with those grids: a witness that is
    still its grid's own array is trusted by identity (no determinant
    expansion, no entry scanned, see ``equivalence._certify``).  Strings
    of one pencil shape share one pencil lead, in the tail's dtype.  Each
    record is written around the instance's JSON text, made once
    (``_Records``).
    """
    memo, leads, records = {}, {}, _Records(instance)
    plan, source = fiedler._plan_of(r), fiedler._source(r, r.dtype)
    samples = equivalence._Samples(r, trials, seed)
    for s in sigmas:
        last = equivalence._walk(r, s, memo, r.dtype)[-1]
        tail, sizes_ok, structure_ok = plan.tail(s, source)
        pencil = fiedler.pencil_from_tail(r, tail, leads)
        u, v, grids = equivalence._witnesses(last.n, last.h)
        report = equivalence._certify(r, s, pencil, u, v, samples, tol, grids=grids)
        verdict = "pass" if report.verdict and sizes_ok and structure_ok else "fail"
        rows, cols = pencil.shape
        yield _Run(verdict, records.line(
            s.decisions, rows, cols, report.max_residual, report.corollary_residual, report.u_unimodularity,
            report.v_unimodularity, sizes_ok, structure_ok, verdict,
        ))


def _emit_lines(lines, out_path):
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(z: complex) -> str:
    """A complex value to 6 significant digits, as ``a`` or ``a+bi``."""
    return f"{z.real:.6g}" if abs(z.imag) < 1e-9 else f"{z.real:.6g}{z.imag:+.6g}i"


def _fmt_eigs(eigs) -> str:
    def one(z, k):
        return _fmt_value(z) if k == 1 else f"{_fmt_value(z)} (x{k})"

    return "{" + ", ".join(one(z, k) for z, k in eigs) + "}"


def cmd_pencil(args) -> int:
    r = _read_instance(args.file)
    s = _sigma_for(r, args.sigma)
    pencil = fiedler.fiedler_pencil_rect(r, s)
    text = emit_pencil(pencil)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    if args.all and args.sigma is not None:
        raise ParseError("--all and --sigma are mutually exclusive")
    r = _read_instance(args.file)
    instance = {"file": args.file, "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d}
    if args.all:
        if r.degree > 7:
            raise ParseError("--all enumerates decision strings only up to degree 7")
        sigmas = list(all_decision_strings(r.degree))
    elif args.sigma is not None:
        sigmas = [_sigma_for(r, args.sigma)]
    else:
        raise ParseError("verify needs --sigma or --all")
    lines = []
    failures = 0
    for run in _verify_instance(r, sigmas, instance, args.trials, args.tol, args.seed):
        failures += run.verdict != "pass"
        lines.append(run.record)
    _emit_lines(lines, args.out)
    print(f"{len(sigmas) - failures}/{len(sigmas)} decision strings passed", file=sys.stderr)
    return 1 if failures else 0


def cmd_eig(args) -> int:
    r = _read_instance(args.file)
    rep = spectral.discrepancy_report(r)
    print(f"system matrix eigenvalues: {_fmt_eigs(rep.s_eigenvalues)}")
    print(f"state polynomial eigenvalues (pole candidates): {_fmt_eigs(rep.pole_points)}")
    for z, status in rep.transfer_tests:
        print(f"transfer function at {_fmt_value(z)}: {status}")
    print(f"cleared-denominator eigenvalues: {_fmt_eigs(rep.cleared_eigenvalues)}")
    extra = ", ".join(_fmt_value(z) for z in rep.cleared_minus_s)
    print(f"extra eigenvalues created by clearing: {{{extra}}}")
    return 0


def cmd_info(args) -> int:
    r = _read_instance(args.file)
    s = r.assemble_s()
    print(f"dimensions: state {r.n}x{r.n}, couplings {r.n}x{r.m} / {r.p}x{r.n}, feedthrough {r.p}x{r.m}")
    print(f"declared degrees: d_A = {r.d_a}, d_D = {r.d_d}, pencil degree {r.degree}")
    print(f"system matrix: {s.rows}x{s.cols}, degree {s.degree}")
    print(f"state polynomial regular: {r.a_regular}")
    print(f"system matrix normal rank: {spectral.normal_rank(s)}")
    if r.degree >= 2:
        # the size depends only on how many consecutions fall among the
        # decisions that grew the feedthrough side, so the d strings with
        # c = 0..d-1 leading consecutions reach every size
        d = r.degree
        seqs = (SigmaSeq("C" * c + "I" * (d - 1 - c)) for c in range(d))
        sizes = {fiedler.expected_size(r.n, r.p, r.m, r.d_a, r.d_d, seq, d - 2) for seq in seqs}
        menu = ", ".join(f"{a}x{b}" for a, b in sorted(sizes))
        print(f"pencil sizes over all decision strings: {menu}")
    return 0


def cmd_fuzz(args) -> int:
    if args.max_dim < 1 or args.max_deg < 1:
        raise ParseError("--max-dim and --max-deg must be at least 1")
    rng_master = np.random.default_rng(args.seed)
    lines = []
    failures = 0
    total = 0
    summary: dict[tuple[int, int], list[int]] = {}
    for n in range(1, args.max_dim + 1):
        for p in range(1, args.max_dim + 1):
            for m in range(1, args.max_dim + 1):
                for d_a in range(1, args.max_deg + 1):
                    for d_d in range(1, args.max_deg + 1):
                        r = random_rsmp(rng_master, n, p, m, d_a, d_d)
                        instance = {"n": n, "p": p, "m": m, "d_A": d_a, "d_D": d_d}
                        sigmas = all_decision_strings(max(d_a, d_d))
                        for run in _verify_instance(r, sigmas, instance, args.trials, args.tol, args.seed + 1):
                            total += 1
                            failed = run.verdict != "pass"
                            failures += failed
                            cell = summary.setdefault((d_a, d_d), [0, 0])
                            cell[0] += not failed
                            cell[1] += 1
                            lines.append(run.record)
    if args.out:
        _emit_lines(lines, args.out)
    print("degrees  passed/total")
    for (d_a, d_d), (ok, tot) in sorted(summary.items()):
        print(f"  ({d_a},{d_d})   {ok}/{tot}")
    print(f"overall: {total - failures}/{total} runs passed")
    return 1 if failures else 0


def _tolerance(text: str) -> float:
    """A ``--tol`` value, finite and greater than 0: a NaN or negative one fails every residual, an infinite one passes every finite one."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and greater than 0, got {text!r}")
    return tol


_TRIALS_HELP = (
    "sample points (at least 1) for the determinant of a witness whose exact expansion is not "
    "one constant; the recursion's witnesses never need them"
)


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ParseError; its subparsers share the class."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="rosenpencil",
        description="Fiedler pencils of Rosenbrock system matrix polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_pencil = sub.add_parser("pencil", help="construct a pencil and write it out")
    p_pencil.add_argument("file")
    p_pencil.add_argument("--sigma", required=True, help="decision string (CCICI) or permutation (1,2,4,3,6,5)")
    p_pencil.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="verify pencils against the padded system matrix")
    p_verify.add_argument("file")
    p_verify.add_argument("--sigma", default=None)
    p_verify.add_argument("--all", action="store_true", help="every decision string (degree <= 7)")
    p_verify.add_argument("--trials", type=int, default=20, help=_TRIALS_HELP)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-8)
    p_verify.add_argument("--seed", type=int, default=0, help="seed of those sample points")
    p_verify.add_argument("--out", default=None)

    p_eig = sub.add_parser("eig", help="spectra through the three routes, with discrepancies")
    p_eig.add_argument("file")

    p_info = sub.add_parser("info", help="dimensions, degrees, regularity, pencil size menu")
    p_info.add_argument("file")

    p_fuzz = sub.add_parser("fuzz", help="sweep seeded random instances over the degree grid")
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="seed of the random instances; their sample points take seed + 1"
    )
    p_fuzz.add_argument("--trials", type=int, default=20, help=_TRIALS_HELP)
    p_fuzz.add_argument("--tol", type=_tolerance, default=1e-8)
    p_fuzz.add_argument("--max-dim", type=int, default=3)
    p_fuzz.add_argument("--max-deg", type=int, default=5)
    p_fuzz.add_argument("--out", default=None)
    return ap


_COMMANDS = {
    "pencil": cmd_pencil,
    "verify": cmd_verify,
    "eig": cmd_eig,
    "info": cmd_info,
    "fuzz": cmd_fuzz,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return _build_parser()


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ParseError, DimensionError, ValueError, OSError, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
