"""Unimodular witnesses that certify Fiedler pencils as linearizations.

A companion recursion produces, step by step, the left witness sequence N
of block matrix polynomials.  The right witness sequence H is the same
recursion run on the transposed system (A^T, -C^T, -B^T, D^T) under the
flipped decisions (C and I swapped), each element transposed: the
transpose relation between Fiedler pencils of P and P^T.  The final
elements U and V satisfy, for the pencil L of the same decision sequence,

    U(z) L(z) V(z) = [[I, 0, 0, 0], [0, A(z), 0, -B], [0, 0, I, 0], [0, C, 0, D(z)]]

at every z, with the identity paddings sized (d_A - 1)n and
p*c0 + m*i0 (counts over the decisions that grew the feedthrough side).
All witnesses are unimodular with determinant +-1.  Verification here is
sample-based: a polynomial identity of bounded degree is certified by
agreement at more than degree-many random points plus a holdout.  The
determinants of U(z) and V(z) come from exact Laplace expansion along
the rows with one structural nonzero, found once per witness from its
coefficients, and an LU of what is left; the recursion's witnesses leave
nothing, their pivots are constant +-1, so their determinants are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._gridops import Grid, assemble, eye, insert, schedule
from .blocks import Pencil, PolyBlockMatrix
from .errors import DimensionError
from .polycore import MatrixPolynomial, horner_stack, varying_entries
from .rsmp import Rsmp
from .sigma import SigmaSeq

__all__ = [
    "build_n_sequence",
    "build_h_sequence",
    "unimodular_pair",
    "linearization_with_witnesses",
    "verify_theorem",
    "system_equivalence_check",
    "sample_points",
    "is_unimodular",
    "EquivalenceReport",
]


# -- coefficient-stack helpers (internal) ------------------------------------


# Grid cells are read-only (degree + 1, rows, cols) coefficient stacks, low
# degree to high, or None for a zero block; one identity per size is shared.
def _lam(p: np.ndarray | None) -> np.ndarray | None:
    """Multiply by lambda (shift coefficients up one degree); a zero block stays None."""
    if p is None:
        return None
    return np.concatenate([np.zeros((1,) + p.shape[1:], dtype=complex), p])


def _mul(p: np.ndarray | None, q: np.ndarray) -> np.ndarray | None:
    """Matrix product with polynomial entries (coefficient convolution); a zero ``p`` stays None.

    One batched product forms every coefficient pair p[a] @ q[b]; each
    coefficient of the result then sums its pairs in the order of a, as a
    double loop over (a, b) would.
    """
    if p is None:
        return None
    pairs = p[:, None] @ q[None]
    out = np.zeros((len(p) + len(q) - 1,) + pairs.shape[2:], dtype=complex)
    for a in range(len(p)):
        out[a : a + len(q)] += pairs[a]
    return out


# -- recursion steps ---------------------------------------------------------


def _n_base(r: Rsmp) -> Grid:
    """The degree-1 left witness blkdiag(I_n, I_p), which every recursion grows."""
    return Grid.base([[eye(r.n), None], [None, eye(r.p)]], [r.n, r.p], [r.n, r.p])


def _n_step(g: Grid, consec: bool, r: Rsmp, i: int, state: bool) -> Grid:
    """One side's growth: a block row at the anchor and a column at or after it.

    The state step (n-sized, rows [0, a)) is anchored at block (0, 0), the
    feedthrough step (p-sized after a consecution, m-sized after an
    inversion, rows a onward) at (a, a).  N is block diagonal over the
    two sides, so only those rows have a nonzero block in the anchor
    column.  A consecution puts the new column at the anchor, holding I
    and lambda times the anchor column below it; an inversion puts it after
    the anchor, holding -I and the anchor column times the Horner shift
    P_{i+1} + lambda P_{i+2} + ... of the side's polynomial P.
    """
    if state:
        a, rows, size = 0, range(g.a), r.n
    else:
        a, rows, size = g.a, range(g.a, len(g.rsz)), (r.p if consec else r.m)
    if consec:
        col = a
        extra = [(a, col, eye(size))]
        extra += [(k + 1, col, _lam(g.cells[k][a])) for k in rows]
    else:
        shift = (r.A if state else r.D).coeffs[i + 1 :]
        col = a + 1
        extra = [(a, col, -eye(size))]
        extra += [(k + 1, col, _mul(g.cells[k][a], shift)) for k in rows]
    return insert(g, a, col, size, extra, state)


# -- sequence builders -------------------------------------------------------


def _grid_to_pbm(g: Grid, transpose: bool = False) -> PolyBlockMatrix:
    """The grid as one block matrix polynomial, or as its transpose with the partitions swapped."""
    rsz, csz = (g.csz, g.rsz) if transpose else (g.rsz, g.csz)
    return PolyBlockMatrix(MatrixPolynomial(assemble(g, transpose)), rsz, csz)


def _n_grids(r: Rsmp, s: SigmaSeq, memo: dict) -> list[Grid]:
    return schedule(r, s, _n_base, _n_step, memo)


def build_n_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Left witness sequence; the final element is the left equivalence matrix."""
    return [_grid_to_pbm(g) for g in _n_grids(r, s, {})]


def build_h_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Right witness sequence; the final element is the right equivalence matrix.

    Each element is the transpose of the left witness of the same step for
    the transposed system under the flipped decisions.
    """
    return [_grid_to_pbm(g, transpose=True) for g in _n_grids(r.transpose(), s.flipped(), {})]


def unimodular_pair(r: Rsmp, s: SigmaSeq) -> tuple[PolyBlockMatrix, PolyBlockMatrix]:
    """Final (U, V) witnesses for the decision sequence; needs degree >= 2."""
    u = _grid_to_pbm(_n_grids(r, s, {})[-1])
    v = _grid_to_pbm(_n_grids(r.transpose(), s.flipped(), {})[-1], transpose=True)
    return u, v


def _witness_stacks(r: Rsmp, s: SigmaSeq, memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient stacks of ``unimodular_pair``, with both recursions kept in ``memo`` (see ``_gridops.schedule``)."""
    u = assemble(_n_grids(r, s, memo)[-1])
    v = assemble(_n_grids(r.transpose(), s.flipped(), memo)[-1], transpose=True)
    return u, v


def linearization_with_witnesses(r: Rsmp, s: SigmaSeq):
    """(L, U, V) for any degree; degree 1 gets identity witnesses."""
    from .fiedler import fiedler_pencil_rect

    pencil = fiedler_pencil_rect(r, s)
    if r.degree == 1:
        # the base grids of the two witness recursions: blkdiag(I_n, I_p) and blkdiag(I_n, I_m)
        return pencil, _grid_to_pbm(_n_base(r)), _grid_to_pbm(_n_base(r.transpose()), transpose=True)
    return (pencil, *unimodular_pair(r, s))


# -- verification ------------------------------------------------------------

# Sample points are taken in chunks holding at most about this many complex
# entries per stacked array, which bounds the temporaries of one chunk.
_CHUNK_ENTRIES = 8192


def _chunk_points(rows: int, cols: int) -> int:
    """Points per chunk for stacks of rows-by-cols and square witness matrices."""
    return max(1, _CHUNK_ENTRIES // max(rows, cols, 1) ** 2)


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a ``(P, rows, cols)`` stack: the expression of ``np.linalg.norm``, bit for bit."""
    return np.sqrt(np.add.reduce((stack.conj() * stack).real, axis=(1, 2)))


def sample_points(count: int, rng) -> np.ndarray:
    """Random points in the annulus 0.5 <= |z| <= 2 (away from origin and overflow)."""
    radii = rng.uniform(0.5, 2.0, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


def is_unimodular(u, points: int = 10, tol: float = 1e-8, rng=None) -> bool:
    """Sampled unimodularity: determinant nonzero and constant across points."""
    rng = np.random.default_rng(0) if rng is None else rng
    dets = np.linalg.det(u.eval_stack(sample_points(points, rng)))
    return abs(dets[0]) > tol and bool(np.all(np.abs(dets - dets[0]) <= tol * (1 + abs(dets[0]))))


class _DetPlan(NamedTuple):
    """How ``_dets`` takes the determinant of every matrix of a square stack with one nonzero pattern.

    ``pivots`` holds the (rows, cols) index arrays of the entries expanded
    along, in expansion order; ``core`` indexes the rows and columns left
    for LU (None when none are left); ``sign`` is the product of the
    expansion's cofactor signs.
    """

    pivots: tuple[np.ndarray, np.ndarray]
    core: tuple | None
    sign: int


def _det_plan(stack: np.ndarray) -> _DetPlan:
    """The Laplace expansion plan of a ``(K, k, k)`` stack, from the union of its nonzero patterns.

    A row with exactly one structural nonzero is expanded along, which
    removes it with that entry's column and multiplies by the entry and
    by -1 to the sum of their places among the rows and columns left; this
    repeats while such a row is left.  What is left, the core, keeps its
    order.  A row whose nonzeros all lie in expanded columns stays in the
    core as a zero row, so a structurally singular matrix gets
    determinant 0.  Rows and columns are Python-int bit masks.
    """
    pattern = stack.any(axis=0)
    k = pattern.shape[0]
    width = (k + 7) // 8
    rows = np.packbits(pattern, axis=1, bitorder="little").tobytes()
    cols = np.packbits(pattern.T, axis=1, bitorder="little").tobytes()
    row_bits = [int.from_bytes(rows[i * width : (i + 1) * width], "little") for i in range(k)]
    col_bits = [int.from_bytes(cols[j * width : (j + 1) * width], "little") for j in range(k)]
    live_rows = live_cols = (1 << k) - 1
    pivot_rows, pivot_cols, odd = [], [], 0
    todo = [i for i, bits in enumerate(row_bits) if bits.bit_count() == 1]
    while todo:
        i = todo.pop()
        bits = row_bits[i] & live_cols
        if not (live_rows >> i) & 1 or bits.bit_count() != 1:
            continue  # expanded already, or its one column went with another pivot
        j = bits.bit_length() - 1
        odd ^= ((live_rows & ((1 << i) - 1)).bit_count() + (live_cols & (bits - 1)).bit_count()) & 1
        pivot_rows.append(i)
        pivot_cols.append(j)
        live_rows ^= 1 << i
        live_cols ^= bits
        touched = col_bits[j] & live_rows
        while touched:
            low = touched & -touched
            touched ^= low
            r = low.bit_length() - 1
            if (row_bits[r] & live_cols).bit_count() == 1:
                todo.append(r)
    core = None
    if live_rows:
        core_rows = [i for i in range(k) if (live_rows >> i) & 1]
        core_cols = [j for j in range(k) if (live_cols >> j) & 1]
        core = (slice(None), np.array(core_rows)[:, None], np.array(core_cols))
    return _DetPlan((np.array(pivot_rows, dtype=int), np.array(pivot_cols, dtype=int)), core, -1 if odd else 1)


def _dets(values: np.ndarray, plan: _DetPlan) -> np.ndarray:
    """The determinant of every matrix of a ``(P, k, k)`` stack whose nonzeros lie in ``plan``'s pattern.

    The product of the pivots is exact when they are +-1, so a witness
    that expands to an empty core has determinant exactly +-1; only the
    core, if any, goes through LU (``np.linalg.det``).
    """
    out = np.prod(values[:, plan.pivots[0], plan.pivots[1]], axis=1)
    if plan.core is not None:
        out *= np.linalg.det(values[plan.core])
    return -out if plan.sign < 0 else out


def _padding_sizes(r: Rsmp, s: SigmaSeq) -> tuple[int, int]:
    """(state padding, feedthrough padding) of the reduced form."""
    alpha_prime = (r.d_a - 1) * r.n
    hi = r.d_d - 2  # decisions that grew the feedthrough side, either regime
    if hi < 0:
        alpha = 0
    else:
        alpha = r.p * s.c_count(0, hi) + r.m * s.i_count(0, hi)
    return alpha_prime, alpha


class _Samples:
    """Sample points, drawn at first use, S, A and D evaluated at them, and the frame of each pencil shape.

    One set serves every check of one system, so each decision string of
    an instance is checked at the same points without drawing or
    evaluating them again, and strings of one shape share one frame.
    """

    def __init__(self, r: Rsmp, points: int, rng):
        self._r, self._points, self._rng = r, points, rng
        self._frames: dict[tuple[int, int], _Frame] = {}

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(zs, S(zs), A(zs), D(zs)); a value that overflows is kept, without a warning."""
        if self._points < 1:
            raise ValueError("the sampled check needs at least one point")
        zs = sample_points(self._points, self._rng)
        r = self._r
        with np.errstate(over="ignore", invalid="ignore"):
            return zs, r.assemble_s().eval_stack(zs), r.A.eval_stack(zs), r.D.eval_stack(zs)

    def frame(self, alpha_prime: int, alpha: int) -> "_Frame":
        """The frame of the pencil shape with these paddings, built at first use."""
        key = (alpha_prime, alpha)
        if key not in self._frames:
            self._frames[key] = _Frame(self._r, alpha_prime, alpha)
        return self._frames[key]


def _add_eye(m: np.ndarray, row: int, col: int, size: int) -> None:
    """Add a size-by-size identity at (row, col) of the matrix, in place."""
    idx = np.arange(size)
    m[row + idx, col + idx] += 1.0


class _Frame:
    """What the check of one pencil shape needs besides the points.

    The four-block target is ``target`` plus A(z) in the state block and
    D(z) in the feedthrough block: ``target`` holds the identity paddings,
    -B and C.  The corollary target, after the row and column permutations
    to block-diagonal form, is ``cor_target`` plus S(z) in the middle:
    ``cor_target`` holds the identity paddings of blkdiag(I, S, I).
    """

    def __init__(self, r: Rsmp, alpha_prime: int, alpha: int):
        n, p, m = r.n, r.p, r.m
        self.rows = alpha_prime + n + alpha + p
        self.cols = alpha_prime + n + alpha + m
        self.rcuts = rcuts = np.cumsum([0, alpha_prime, n, alpha, p])
        self.ccuts = ccuts = np.cumsum([0, alpha_prime, n, alpha, m])
        state = slice(alpha_prime, alpha_prime + n)
        # where A(z), D(z) and S(z) go in a stack of products, S(z) after the permutations
        self.a_block = np.s_[:, state, state]
        self.d_block = np.s_[:, rcuts[3] :, ccuts[3] :]
        self.s_block = np.s_[:, alpha_prime : alpha_prime + n + p, alpha_prime : alpha_prime + n + m]
        self.row_perm = np.r_[0 : rcuts[2], rcuts[3] : rcuts[4], rcuts[2] : rcuts[3]][:, None]
        self.col_perm = np.r_[0 : ccuts[2], ccuts[3] : ccuts[4], ccuts[2] : ccuts[3]]
        self.target = np.zeros((self.rows, self.cols), dtype=complex)
        _add_eye(self.target, 0, 0, alpha_prime)
        self.target[state, ccuts[3] :] = -r.B
        _add_eye(self.target, rcuts[2], ccuts[2], alpha)
        self.target[rcuts[3] :, state] = r.C
        self.cor_target = np.zeros((self.rows, self.cols), dtype=complex)
        _add_eye(self.cor_target, 0, 0, alpha_prime)
        _add_eye(self.cor_target, alpha_prime + n + p, alpha_prime + n + m, alpha)


@dataclass
class EquivalenceReport:
    """Residuals of the sampled equivalence check.

    ``block_residuals`` maps 1-based positions of the four-block target
    partition (state padding, state, feedthrough padding, feedthrough) to
    their worst relative residual over the sample points; ``verify_theorem``
    fills it, and the CLI, whose records do not carry it, leaves it empty.
    A figure that is not finite (overflow, NaN) fails the verdict whatever
    the tolerance.
    """

    max_residual: float
    corollary_residual: float
    block_residuals: dict[tuple[int, int], float] = field(default_factory=dict)
    u_unimodularity: float = 0.0
    v_unimodularity: float = 0.0
    tol: float = 1e-8

    @property
    def verdict(self) -> bool:
        figures = (self.max_residual, self.corollary_residual, self.u_unimodularity, self.v_unimodularity)
        return all(np.isfinite(x) and x <= self.tol for x in figures)


def verify_theorem(
    r: Rsmp,
    s: SigmaSeq,
    pencil: Pencil,
    u: PolyBlockMatrix,
    v: PolyBlockMatrix,
    points: int = 20,
    tol: float = 1e-8,
    rng=None,
) -> EquivalenceReport:
    """Sampled check that U L V equals the padded system matrix.

    The sample points are evaluated in chunks, each as one stack: U(z),
    z lead - tail and V(z) by stacked Horner (over the entries of U and V
    that are not constant), their products by one batched matrix product.
    Every product is compared against the four-block target and, after
    explicit row/column permutations, against blkdiag(identity, S(z),
    identity) with S from ``assemble_s``.  The constant part of each
    target (identity paddings, -B and C; the paddings of the corollary
    form) and the permutations make up the frame of the pencil's shape,
    built once; a chunk subtracts the frame's target and A(z), D(z),
    respectively S(z), in place.  Residuals are Frobenius norms relative to
    max(1, |U(z)| |L(z)| |V(z)|); at a point where that scale overflows no
    residual can be certified and it is reported as infinite.  Unimodularity
    of U and V is checked by their determinants at the same points: each is
    expanded exactly along the rows with one structural nonzero (the plan
    is made once per witness, from its coefficients' nonzero pattern), and
    only the rows and columns left over, if any, go through LU.  The
    report carries the worst residual of every block of the four-block
    target as well, which only this entry point computes.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    samples = _Samples(r, points, rng)
    return _check_chunks(r, s, pencil, u.poly.coeffs, v.poly.coeffs, samples, tol, blocks=True)


def _check_chunks(
    r: Rsmp,
    s: SigmaSeq,
    pencil: Pencil,
    u: np.ndarray,
    v: np.ndarray,
    samples: _Samples,
    tol: float,
    blocks: bool = False,
) -> EquivalenceReport:
    """The chunk loop of ``verify_theorem``, at the points of ``samples``.

    ``u`` and ``v`` are the coefficient stacks of the witnesses, evaluated
    by ``polycore.horner_stack``.  Each gets one ``_det_plan``, and
    ``_dets`` takes its determinants chunk by chunk under that plan.  The
    worst residual per block of the four-block target, an entrywise
    maximum over the points, is taken only when ``blocks`` asks for it
    (``verify_theorem``); the CLI's records do not carry it.
    """
    f = samples.frame(*_padding_sizes(r, s))
    rows, cols = f.rows, f.cols
    if u.shape[1:] != (rows, rows) or v.shape[1:] != (cols, cols) or pencil.shape != (rows, cols):
        raise DimensionError(
            f"witness/pencil dimensions {u.shape[1:]}/{pencil.shape}/{v.shape[1:]} do not conform "
            f"to the {rows}x{cols} target"
        )
    zs, s_zs, a_zs, d_zs = samples.stacks
    points = zs.size
    u_varying, v_varying = varying_entries(u), varying_entries(v)
    u_plan, v_plan = _det_plan(u), _det_plan(v)

    res = np.empty(points)
    cor_res = np.empty(points)
    u_dets = np.empty(points, dtype=complex)
    v_dets = np.empty(points, dtype=complex)
    worst = np.zeros((rows, cols)) if blocks else None  # entrywise worst relative residual
    step = _chunk_points(rows, cols)
    # an overflowing point is reported as an infinite residual, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, points, step):
            hi = min(lo + step, points)
            z = zs[lo:hi]
            uz = horner_stack(u, z, u_varying)
            lz = pencil.eval_stack(z)
            vz = horner_stack(v, z, v_varying)
            prod = uz @ lz @ vz
            scale = np.maximum(1.0, _fro(uz) * _fro(lz) * _fro(vz))
            overflow = ~np.isfinite(scale)
            u_dets[lo:hi] = _dets(uz, u_plan)
            v_dets[lo:hi] = _dets(vz, v_plan)

            cor = prod[:, f.row_perm, f.col_perm]
            cor -= f.cor_target
            cor[f.s_block] -= s_zs[lo:hi]
            cor_res[lo:hi] = _fro(cor) / scale

            # prod becomes U L V minus the four-block target
            prod -= f.target
            prod[f.a_block] -= a_zs[lo:hi]
            prod[f.d_block] -= d_zs[lo:hi]
            res[lo:hi] = _fro(prod) / scale
            if overflow.any():
                res[lo:hi][overflow] = np.inf
                cor_res[lo:hi][overflow] = np.inf
            if blocks:
                rel = np.abs(prod) / scale[:, None, None]
                rel[overflow] = np.inf
                np.maximum(worst, rel.max(axis=0), out=worst)

    def _dev(dets):
        return float(np.maximum(np.max(np.abs(np.abs(dets) - 1.0)), np.max(np.abs(dets - dets[0]))))

    return EquivalenceReport(
        max_residual=float(np.max(res)),
        corollary_residual=float(np.max(cor_res)),
        block_residuals=_block_residuals(worst, f.rcuts, f.ccuts) if blocks else {},
        u_unimodularity=_dev(u_dets),
        v_unimodularity=_dev(v_dets),
        tol=tol,
    )


def _block_residuals(worst: np.ndarray, rcuts, ccuts) -> dict[tuple[int, int], float]:
    """The maximum of ``worst`` over every nonempty block of the four-block partition, keyed 1-based."""
    rows_used = [k for k in range(4) if rcuts[k + 1] > rcuts[k]]
    cols_used = [k for k in range(4) if ccuts[k + 1] > ccuts[k]]
    per_block = np.maximum.reduceat(worst, rcuts[rows_used], axis=0)
    per_block = np.maximum.reduceat(per_block, ccuts[cols_used], axis=1)
    return {
        (bi + 1, bj + 1): float(per_block[a, b])
        for a, bi in enumerate(rows_used)
        for b, bj in enumerate(cols_used)
    }


def system_equivalence_check(s1, s2, transforms, points: int = 12, tol: float = 1e-8, rng=None) -> bool:
    """Sampled block-diagonal equivalence diag(U, Ut) S1 diag(V, Vt) == S2.

    ``transforms`` is the quadruple (U, Ut, V, Vt); each must be square,
    conformable with the stated partitions, and pass a sampled
    unimodularity precheck.  Returns False if the precheck or the sampled
    identity fails.
    """
    u, ut, v, vt = transforms
    rng = np.random.default_rng(0) if rng is None else rng
    r1, c1 = s1.shape
    if u.shape[0] != u.shape[1] or ut.shape[0] != ut.shape[1]:
        raise DimensionError("left transforms must be square")
    if v.shape[0] != v.shape[1] or vt.shape[0] != vt.shape[1]:
        raise DimensionError("right transforms must be square")
    if u.shape[0] + ut.shape[0] != r1 or v.shape[0] + vt.shape[0] != c1:
        raise DimensionError("transform partition does not tile the system matrix")
    if s2.shape != s1.shape:
        raise DimensionError("system matrices must share dimensions")
    for t in transforms:
        if not is_unimodular(t, points=6, tol=tol, rng=rng):
            return False
    nu = u.shape[0]
    nv = v.shape[0]
    zs = sample_points(points, rng)
    left = np.zeros((zs.size, r1, r1), dtype=complex)
    left[:, :nu, :nu] = u.eval_stack(zs)
    left[:, nu:, nu:] = ut.eval_stack(zs)
    right = np.zeros((zs.size, c1, c1), dtype=complex)
    right[:, :nv, :nv] = v.eval_stack(zs)
    right[:, nv:, nv:] = vt.eval_stack(zs)
    got = left @ s1.eval_stack(zs) @ right
    want = s2.eval_stack(zs)
    scale = np.maximum(1.0, np.maximum(_fro(got), _fro(want)))
    return bool(np.all(_fro(got - want) <= tol * scale))
