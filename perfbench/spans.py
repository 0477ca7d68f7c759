"""Span recorder and the traced runners that give the per-layer numbers.

The traced runners make, in the same order, the public calls that
``rosenpencil.cli`` makes for one ``verify --all`` op (per decision string,
as ``cli._verify_one`` does) and for one ``eig`` op (as
``spectral.discrepancy_report`` does), and wrap each call in a span.  The
package itself is not patched: a span covers one call from here into a
public function, and time inside it is not split further.

Each op is a root span ``op``; the layer spans are its children, so a
layer's self time is its busy time and the root's self time is the part
of op time that no span covers.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

import workloads
from rosenpencil import equivalence, fiedler, spectral
from rosenpencil.blocks import PolyBlockMatrix
from rosenpencil.cli import RunReport
from rosenpencil.errors import DimensionError, PoleError, SingularInput
from rosenpencil.polycore import MatrixPolynomial, scalar_poly_trim
from rosenpencil.rsmp import assemble_s, clear_denominator, transfer_eval
from rosenpencil.serialization import parse_rsmp
from rosenpencil.sigma import all_decision_strings

__all__ = ["SpanRecorder", "NullRecorder", "SPANS", "WORK_COUNTS", "traced_verify", "traced_eig"]

# every span a traced runner can open, in report order
SPANS = [
    "serialization.parse_rsmp",
    "fiedler.fiedler_pencil_rect",
    "equivalence.unimodular_pair",
    "equivalence.verify_theorem",
    "fiedler.build_w_sequence",
    "fiedler.expected_size",
    "fiedler.check_block_structure",
    "cli.RunReport.to_record",
    "rsmp.assemble_s",
    "spectral.eigenvalues_square",
    "spectral.det_poly",
    "rsmp.clear_denominator",
    "spectral.normal_rank",
    "spectral.is_eigenvalue",
]
# exact work counts, summed over the traced ops
WORK_COUNTS = [
    "equivalence.verify_theorem.points",
    "fiedler.fiedler_pencil_rect.cells",
    "equivalence.unimodular_pair.cells",
    "spectral.eigenvalues_square.size_x_degree",
]
ROOT = "op"


class SpanRecorder:
    """Spans kept in memory as (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, name: str, op_id: int) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, op_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op_id)
        self._open.pop()

    def call(self, name: str, op_id: int, fn, *args, **kwargs):
        idx = self.begin(name, op_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), self = duration minus the children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += (end - start) - child[i]
        return {k: (c, t) for k, (c, t) in out.items()}

    def write(self, path) -> None:
        """All spans as JSON lines, written once at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op_id}))
                fh.write("\n")


class NullRecorder(SpanRecorder):
    """Records nothing: the traced runners' own cost, without the spans."""

    def begin(self, name: str, op_id: int) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass

    def call(self, name: str, op_id: int, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _identity_witnesses(pencil):
    # what equivalence.linearization_with_witnesses returns at degree 1
    u = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[0]), pencil.row_sizes, pencil.row_sizes)
    v = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[1]), pencil.col_sizes, pencil.col_sizes)
    return u, v


def traced_verify(rec: SpanRecorder, op_id: int, path: str) -> str:
    """The report stream of ``verify PATH --all``, one span per public call."""
    opts = workloads.VERIFY_DEFAULTS
    root = rec.begin(ROOT, op_id)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        r = rec.call("serialization.parse_rsmp", op_id, parse_rsmp, text)
        instance = {"file": path, "n": r.n, "p": r.p, "m": r.m, "d_A": r.d_a, "d_D": r.d_d}
        lines = []
        for s in all_decision_strings(r.degree):
            rng = np.random.default_rng(opts.seed)
            pencil = rec.call("fiedler.fiedler_pencil_rect", op_id, fiedler.fiedler_pencil_rect, r, s)
            rec.counts["fiedler.fiedler_pencil_rect.cells"] += pencil.shape[0] * pencil.shape[1]
            if r.degree >= 2:
                u, v = rec.call("equivalence.unimodular_pair", op_id, equivalence.unimodular_pair, r, s)
                rec.counts["equivalence.unimodular_pair.cells"] += u.shape[0] * u.shape[1] + v.shape[0] * v.shape[1]
            else:
                u, v = _identity_witnesses(pencil)
            report = rec.call(
                "equivalence.verify_theorem", op_id, equivalence.verify_theorem,
                r, s, pencil, u, v, points=opts.trials, tol=opts.tol, rng=rng,
            )
            rec.counts["equivalence.verify_theorem.points"] += opts.trials
            sizes_ok = structure_ok = True
            if r.degree >= 2:
                ws = rec.call("fiedler.build_w_sequence", op_id, fiedler.build_w_sequence, r, s)
                sizes_ok = rec.call("fiedler.expected_size", op_id, lambda: all(
                    w.shape == fiedler.expected_size(r.n, r.p, r.m, r.d_a, r.d_d, s, i) for i, w in enumerate(ws)
                ))
                structure_ok = rec.call("fiedler.check_block_structure", op_id, lambda: all(
                    fiedler.check_block_structure(w, i, r, s).passed for i, w in enumerate(ws)
                ))
            ok = report.verdict and sizes_ok and structure_ok
            run = RunReport(
                instance=instance,
                sigma=s.decisions,
                rows=pencil.shape[0],
                cols=pencil.shape[1],
                max_residual=report.max_residual,
                corollary_residual=report.corollary_residual,
                u_unimodularity=report.u_unimodularity,
                v_unimodularity=report.v_unimodularity,
                sizes_ok=sizes_ok,
                structure_ok=structure_ok,
                verdict="pass" if ok else "fail",
            )
            lines.append(rec.call("cli.RunReport.to_record", op_id, run.to_record))
        return "".join(line + "\n" for line in lines)
    finally:
        rec.end(root)


def traced_eig(rec: SpanRecorder, op_id: int, path: str) -> dict[str, object]:
    """The spectra of ``eig PATH``, one span per public call.

    Returns the system, pole and cleared eigenvalues as (value,
    multiplicity) pairs and the transfer-function verdicts, for comparison
    with what the untraced command printed.
    """
    root = rec.begin(ROOT, op_id)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        r = rec.call("serialization.parse_rsmp", op_id, parse_rsmp, text)
        # the guards discrepancy_report opens with
        if not r.a_regular:
            raise SingularInput("state polynomial is singular")
        if r.p != r.m:
            raise DimensionError("the discrepancy report needs a square system (p == m)")

        def eigs(poly):
            rec.counts["spectral.eigenvalues_square.size_x_degree"] += poly.rows * poly.degree
            return rec.call(
                "spectral.eigenvalues_square", op_id, spectral.eigenvalues_square, poly, tol=workloads.EIG_TOL
            )

        s_spec = eigs(rec.call("rsmp.assemble_s", op_id, assemble_s, r))
        pole_spec = eigs(r.A)
        det_a = rec.call("spectral.det_poly", op_id, spectral.det_poly, r.A, tol=workloads.EIG_TOL)
        det_a = scalar_poly_trim(det_a, rel_tol=1e-9)
        cleared = rec.call("rsmp.clear_denominator", op_id, clear_denominator, r, det_a)
        cleared_spec = eigs(cleared)

        candidates: list[complex] = []
        for z, _k in s_spec.eigenvalues + pole_spec.eigenvalues:
            if all(abs(z - w) > 1e-8 for w in candidates):
                candidates.append(z)

        def transfer(w):
            return transfer_eval(r, w)

        nr = rec.call("spectral.normal_rank", op_id, spectral.normal_rank, transfer)
        tests = []
        for z in candidates:
            try:
                hit = rec.call("spectral.is_eigenvalue", op_id, spectral.is_eigenvalue, transfer, z, nr)
            except PoleError:
                tests.append("pole")
                continue
            tests.append("eigenvalue" if hit else "regular")
        return {
            "s": s_spec.eigenvalues,
            "poles": pole_spec.eigenvalues,
            "cleared": cleared_spec.eigenvalues,
            "transfer": tests,
        }
    finally:
        rec.end(root)
