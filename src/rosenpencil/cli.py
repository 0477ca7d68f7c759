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
the determinant of a witness whose exact expansion is not one constant;
the recursion's witnesses never need them.  Step i of the pencil
recursion W and the witness recursions N and H (N of the transposed
system under the flipped decisions), W's size law and its structure
claims depend only on decisions 0..i.  Their entries are 0, +-1 or
coefficient entries, so a real instance is walked in float64 and a
complex one in complex128: every grid is a stack in the instance's
dtype, and the certificate multiplies in it.  Each string is one walk
(``_walk``): one ``_gridops.schedule`` call whose step grows W, N and H
together and whose check takes the new prefix's size law and structure
claims on its W grid, by the grid's block offsets, with no block matrix
built and no claim named.  The walk keeps the prefixes of the last string
walked, and a string builds only those past the prefix it shares with
that one, so in the lexicographic order of ``--all`` and ``fuzz`` each
decision prefix is built and checked once per instance.  A grid is one
coefficient stack, so the tail and the witness ``U`` cost no assembly:
the last W grid goes to ``fiedler.pencil_from_tail`` as it stands, with
no block matrix built, and ``V`` is one transposed copy that its grid
keeps.  The certificate trusts the walk's own ``U`` and ``V`` by
identity, with no pivot gathered and no entry scanned, and checks any
other stack in full.  Per string what is left is the certificate (its
two products ``U L`` and ``(U L) V``, the scan of the pencil and one
subtraction of a target cast from the parsed arrays, not from the copy
the walk reads) and the record, written around
the instance's JSON text, made once per instance (``_Records``).  The
records are those of the per-string public calls, byte for byte.
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
from ._gridops import Grid, schedule
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


class _Prefix(NamedTuple):
    """One decision prefix of an instance: its grids of W, N and H, and whether W meets the prefix's size law and structure claims."""

    w: Grid
    n: Grid
    h: Grid
    size_ok: bool = True
    structure_ok: bool = True


def _base(r: Rsmp) -> _Prefix:
    """The degree-1 grids of the three recursions in the instance's dtype; H's is that of N for the transposed system."""
    dtype = r.dtype
    return _Prefix(fiedler._w_base(r, dtype), equivalence._n_base(r, dtype), equivalence._n_base(r.transpose(), dtype))


def _step(g: _Prefix, consec: bool, r: Rsmp, i: int, state: bool) -> _Prefix:
    """One side's growth of W, N and H together; H is N of the transposed system under the flipped decision."""
    return _Prefix(
        fiedler._w_step(g.w, consec, r, i, state),
        equivalence._n_step(g.n, consec, r, i, state),
        equivalence._n_step(g.h, not consec, r.transpose(), i, state),
    )


def _check(g: _Prefix, r: Rsmp, s: SigmaSeq, i: int) -> _Prefix:
    """Step i's grids with the verdicts of W's size law and structure claims, taken on its grid."""
    return _Prefix(g.w, g.n, g.h, *fiedler._step_verdicts(g.w, r, s, i))


def _walk(r: Rsmp, s: SigmaSeq, memo: dict) -> list[_Prefix]:
    """Every prefix of ``s``, each with its grids and verdicts; at degree 1 the base grids alone, with nothing to check.

    One ``_gridops.schedule`` call grows W, N and H together and checks
    each prefix as it is built; ``memo`` keeps the path of the last string
    walked, so a string builds and checks only the prefixes past the one
    it shares with that string.
    """
    if r.degree == 1:
        return [_base(r)]
    return schedule(r, s, _base, _step, memo, _check)


def _last(path: list[_Prefix]) -> tuple[_Prefix, bool, bool]:
    """The last prefix of a walk, and whether every prefix meets its size law, and its structure claims.

    Only the last prefix outlives the call, so the next string's walk does
    not run while this string's whole path is still held.
    """
    return path[-1], all(g.size_ok for g in path), all(g.structure_ok for g in path)


class _Run(NamedTuple):
    """One decision string's verdict, "pass" or "fail", and its record line."""

    verdict: str
    record: str


def _verify_instance(r: Rsmp, sigmas, instance: dict, trials: int, tol: float, seed: int):
    """The verdict and record of every decision string of ``sigmas``, in order, for one instance.

    A witness determinant that needs sample points gets the instance's
    ``trials`` points, drawn at most once from an rng seeded with ``seed``.
    Each string is one walk (``_walk``) over the path memo, so strings in
    lexicographic order walk the prefix trie depth first and build and
    check each prefix once.  The pencil's tail and the witnesses are the
    stacks of the last prefix's grids, in the dtype the grids were walked
    in (float64 when the instance is real), and go to the certificate with
    those grids: a witness that is still its grid's own array is trusted
    by identity (no determinant pivot gathered, no entry scanned, see
    ``equivalence._certify``).  The pencil takes the last W grid's stack
    as its tail, with no block matrix built, and strings of one pencil
    shape share one pencil lead, in the tail's dtype.  Each record is
    written around the instance's JSON text, made once (``_Records``).
    """
    memo, leads, records = {}, {}, _Records(instance)
    samples = equivalence._Samples(r, trials, np.random.default_rng(seed))
    for s in sigmas:
        last, sizes_ok, structure_ok = _last(_walk(r, s, memo))
        pencil = fiedler.pencil_from_tail(r, last.w, leads)
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
