"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Criteria 1-5 share a single sweep over the full grid: every shape in
{1,2,3}^3, every degree pair in {1..5}^2 (covering both orders and equal
degrees), and every decision string of the matching length.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

import oracles
from rosenpencil import (
    PoleError,
    SigmaSeq,
    all_decision_strings,
    assemble_s,
    build_h_sequence,
    build_n_sequence,
    build_w_sequence,
    check_block_structure,
    clear_denominator,
    companion_first,
    companion_second,
    eigenvalues_square,
    expected_size,
    fiedler_pencil_rect,
    is_eigenvalue,
    linearization_with_witnesses,
    normal_rank,
    square_fiedler_matrix,
    square_fiedler_pencil,
    transfer_eval,
    verify_theorem,
)
from rosenpencil import SingularInput
from rosenpencil.sampling import random_rsmp

DIMS = (1, 2, 3)
DEGREES = (1, 2, 3, 4, 5)
RESIDUAL_TOL = 1e-8
POINTS = 20
UNIMODULARITY_POINTS = 10


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {label}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {suffix}"


@dataclass
class SweepResult:
    cases: int = 0
    elapsed: float = 0.0
    worst_residual: float = 0.0
    residual_failures: list = field(default_factory=list)
    size_failures: list = field(default_factory=list)
    structure_failures: list = field(default_factory=list)
    unimodularity_failures: list = field(default_factory=list)
    worst_unimodularity: float = 0.0
    square_mismatches: list = field(default_factory=list)
    commutation_failures: list = field(default_factory=list)
    square_cases: int = 0


@lru_cache(maxsize=1)
def grid_sweep() -> SweepResult:
    rng_master = np.random.default_rng(90210)
    res = SweepResult()
    start = time.perf_counter()
    for n in DIMS:
        for p in DIMS:
            for m in DIMS:
                for d_a in DEGREES:
                    for d_d in DEGREES:
                        r = random_rsmp(rng_master, n, p, m, d_a, d_d)
                        d = max(d_a, d_d)
                        square_done = False
                        for s in all_decision_strings(d):
                            tag = (n, p, m, d_a, d_d, s.decisions)
                            res.cases += 1
                            # a stable digest: hash() of a str changes per process
                            rng = np.random.default_rng(zlib.crc32(repr(tag).encode()))
                            pencil, u, v = linearization_with_witnesses(r, s)
                            rep = verify_theorem(
                                r, s, pencil, u, v, points=POINTS, tol=RESIDUAL_TOL, rng=rng
                            )
                            res.worst_residual = max(
                                res.worst_residual, rep.max_residual, rep.corollary_residual
                            )
                            if (
                                rep.max_residual > RESIDUAL_TOL
                                or rep.corollary_residual > RESIDUAL_TOL
                            ):
                                res.residual_failures.append(tag)
                            if d >= 2:
                                ws = build_w_sequence(r, s)
                                ns = build_n_sequence(r, s)
                                hs = build_h_sequence(r, s)
                                for i, w in enumerate(ws):
                                    if w.shape != expected_size(n, p, m, d_a, d_d, s, i):
                                        res.size_failures.append(tag + (i, "w"))
                                    lw, rw = oracles.witness_sizes(n, p, m, d_a, d_d, s, i)
                                    if ns[i].shape != (lw, lw):
                                        res.size_failures.append(tag + (i, "n"))
                                    if hs[i].shape != (rw, rw):
                                        res.size_failures.append(tag + (i, "h"))
                                    if ns[i].col_sizes != w.row_sizes or hs[i].row_sizes != w.col_sizes:
                                        res.size_failures.append(tag + (i, "conformability"))
                                    if not check_block_structure(w, i, r, s).passed:
                                        res.structure_failures.append(tag + (i,))
                                # unimodularity of the witnesses and intermediates
                                zs = 0.5 + 1.5 * rng.random(UNIMODULARITY_POINTS)
                                zs = zs * np.exp(2j * np.pi * rng.random(UNIMODULARITY_POINTS))
                                for w in ns + hs:
                                    dets = np.linalg.det(w.eval_stack(zs))
                                    dev = max(
                                        float(np.max(np.abs(np.abs(dets) - 1.0))),
                                        float(np.max(np.abs(dets - dets[0]))),
                                    )
                                    res.worst_unimodularity = max(res.worst_unimodularity, dev)
                                    if dev > RESIDUAL_TOL:
                                        res.unimodularity_failures.append(tag)
                            if p == m:
                                res.square_cases += 1
                                if s.source is None:
                                    perm = _bijection_for(s)
                                else:
                                    perm = s.source
                                prod = square_fiedler_pencil(r, perm)
                                if not (
                                    np.array_equal(pencil.tail, prod.tail)
                                    and np.array_equal(pencil.lead, prod.lead)
                                ):
                                    res.square_mismatches.append(tag)
                                if not square_done:
                                    square_done = True
                                    for i in range(d):
                                        for j in range(i + 2, d):
                                            mi = square_fiedler_matrix(r, i).data
                                            mj = square_fiedler_matrix(r, j).data
                                            if not np.array_equal(mi @ mj, mj @ mi):
                                                res.commutation_failures.append(tag + (i, j))
    res.elapsed = time.perf_counter() - start
    return res


def _bijection_for(s: SigmaSeq) -> tuple:
    """Some bijection realizing the decision string (greedy run assignment)."""
    d = s.degree
    values = list(range(1, d + 1))
    out = []
    lo, hi = 0, d - 1
    # peel from whichever end keeps the next comparison feasible
    for i in range(d - 1):
        if s.has_consecution(i):
            out.append(values[lo])
            lo += 1
        else:
            out.append(values[hi])
            hi -= 1
    out.append(values[lo])
    perm = tuple(out)
    assert SigmaSeq.from_bijection(perm).decisions == s.decisions
    return perm


def test_criterion_1_linearization_theorem_suite():
    res = grid_sweep()
    ok = not res.residual_failures and res.elapsed < 120.0
    report(
        1,
        "linearization equivalence over the full grid",
        ok,
        f"{res.cases} cases, worst residual {res.worst_residual:.2e}, {res.elapsed:.1f}s",
    )


def test_criterion_2_size_formulas():
    res = grid_sweep()
    report(
        2,
        "recursion and witness dimensions match the closed forms exactly",
        not res.size_failures,
        f"first failures: {res.size_failures[:3]}" if res.size_failures else "",
    )


def test_criterion_3_block_structure():
    res = grid_sweep()
    report(
        3,
        "block-structure claims hold at every step",
        not res.structure_failures,
        f"first failures: {res.structure_failures[:3]}" if res.structure_failures else "",
    )


def test_criterion_4_unimodularity():
    res = grid_sweep()
    report(
        4,
        "witnesses and intermediates have constant unit determinants",
        not res.unimodularity_failures,
        f"worst deviation {res.worst_unimodularity:.2e}",
    )


def test_criterion_5_square_consistency():
    res = grid_sweep()
    ok = not res.square_mismatches and not res.commutation_failures
    report(
        5,
        "recursion equals the factor product exactly on square instances",
        ok,
        f"{res.square_cases} square cases",
    )


def test_criterion_6_worked_example(worked_example):
    start = time.perf_counter()
    r = worked_example
    spec = eigenvalues_square(assemble_s(r))
    eigs_ok = len(spec.eigenvalues) == 1 and abs(spec.eigenvalues[0][0] - 1.0) <= 1e-10

    nr = normal_rank(lambda z: transfer_eval(r, z))
    pole_reported = False
    no_finite_eig = True
    for z, _k in spec.eigenvalues + eigenvalues_square(r.A).eigenvalues:
        try:
            if is_eigenvalue(lambda w: transfer_eval(r, w), z, nr):
                no_finite_eig = False
        except PoleError:
            pole_reported = pole_reported or abs(z - 1.0) < 1e-8

    cleared = clear_denominator(r, [-1.0, 1.0])
    cspec = eigenvalues_square(cleared)
    cleared_ok = (
        len(cspec.eigenvalues) == 1
        and abs(cspec.eigenvalues[0][0] - 1.0) <= 1e-6
        and cspec.eigenvalues[0][1] == 2
    )
    elapsed = time.perf_counter() - start
    ok = eigs_ok and pole_reported and no_finite_eig and cleared_ok and elapsed < 1.0
    report(6, "worked-example reproduction", ok, f"{elapsed * 1000:.0f} ms")


def test_criterion_7_spectral_cross_oracle():
    rng = np.random.default_rng(777)
    done = 0
    failures = []
    while done < 50:
        n = int(rng.integers(1, 4))
        pm = int(rng.integers(1, 4))
        d_a = int(rng.integers(1, 5))
        d_d = int(rng.integers(1, 5))
        r = random_rsmp(rng, n, pm, pm, d_a, d_d)
        try:
            base = eigenvalues_square(assemble_s(r)).values()
            routes = {
                "first companion": eigenvalues_square(companion_first(r)).values(),
                "second companion": eigenvalues_square(companion_second(r)).values(),
            }
            d = max(d_a, d_d)
            for k in range(3):
                perm = tuple(int(x) + 1 for x in rng.permutation(d))
                pencil = fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm))
                routes[f"pencil {k}"] = eigenvalues_square(pencil).values()
        except SingularInput:
            continue
        done += 1
        for name, got in routes.items():
            if not oracles.multisets_match(got, base, 1e-6):
                failures.append((n, pm, d_a, d_d, name))
    report(
        7,
        "eigenvalue multisets agree across all construction routes",
        not failures,
        f"50 instances; first failures: {failures[:3]}" if failures else "50 instances",
    )


def test_criterion_8_decision_string_identity():
    rng = np.random.default_rng(4242)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
        d_a = d
        d_d = int(rng.integers(1, d + 1))
        if rng.random() < 0.3:
            d_a, d_d = d_d, d_a  # exercise the flipped-degree regime too
        r = random_rsmp(rng, n, p, m, d_a, d_d)
        perm1, perm2 = oracles.equal_decision_pair(rng, d)
        p1 = fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm1))
        p2 = fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm2))
        same = (
            np.array_equal(p1.tail, p2.tail)
            and np.array_equal(p1.lead, p2.lead)
            and p1.row_sizes == p2.row_sizes
            and p1.col_sizes == p2.col_sizes
        )
        failures += not same
    report(8, "equal decision strings give bit-identical pencils", failures == 0, "100 pairs")
