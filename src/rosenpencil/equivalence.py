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
agreement at more than degree-many random points plus a holdout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._gridops import Grid, schedule, splice
from .blocks import Pencil, PolyBlockMatrix
from .errors import DimensionError
from .polycore import MatrixPolynomial
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


# -- small matrix-polynomial helpers (internal) -----------------------------


# Matrix polynomials are immutable, so every grid shares one identity per
# size instead of building a fresh one per cell; zero blocks are None.
@lru_cache(maxsize=256)
def _mp_eye(k: int) -> MatrixPolynomial:
    return MatrixPolynomial.identity(k)


def _lam(p: MatrixPolynomial | None) -> MatrixPolynomial | None:
    """Multiply by lambda (shift coefficients up one degree); a zero block stays None."""
    if p is None:
        return None
    z = np.zeros((1, p.rows, p.cols), dtype=complex)
    return MatrixPolynomial(np.concatenate([z, p.coeffs]))


def _mul(p: MatrixPolynomial | None, q: MatrixPolynomial) -> MatrixPolynomial | None:
    """Matrix product with polynomial entries (coefficient convolution); a zero ``p`` stays None."""
    if p is None:
        return None
    if p.cols != q.rows:
        raise DimensionError(f"cannot multiply {p.shape} by {q.shape}")
    out = np.zeros((p.degree + q.degree + 1, p.rows, q.cols), dtype=complex)
    for a in range(p.degree + 1):
        for b in range(q.degree + 1):
            out[a + b] += p.coeffs[a] @ q.coeffs[b]
    return MatrixPolynomial(out)


def _neg(p: MatrixPolynomial) -> MatrixPolynomial:
    return MatrixPolynomial(-p.coeffs)


# -- recursion steps ---------------------------------------------------------


def _n_base(r: Rsmp) -> Grid:
    """The degree-1 left witness blkdiag(I_n, I_p), which every recursion grows."""
    return Grid([[_mp_eye(r.n), None], [None, _mp_eye(r.p)]], [r.n, r.p], [r.n, r.p], 1, 1)


def _n_state_step(g: Grid, consec: bool, r: Rsmp, i: int) -> Grid:
    # N is block diagonal over the state and feedthrough sides, so only the
    # state rows (k < a_r) have a nonzero block in column 0
    n = r.n
    if consec:
        row_map = [k + 1 for k in range(g.nrows)]
        new_rsz = [n] + g.rsz
        col_map = [j + 1 for j in range(g.ncols)]
        new_csz = [n] + g.csz
        extra = [(0, 0, _mp_eye(n))]
        for k in range(g.a_r):
            extra.append((k + 1, 0, _lam(g.cells[k][0])))
    else:
        pa = r.A.horner_shift(r.d_a - i - 1)
        row_map = [k + 1 for k in range(g.nrows)]
        new_rsz = [n] + g.rsz
        col_map = [0] + [j + 1 for j in range(1, g.ncols)]
        new_csz = [g.csz[0], n] + g.csz[1:]
        extra = [(0, 1, _neg(_mp_eye(n)))]
        for k in range(g.a_r):
            extra.append((k + 1, 1, _mul(g.cells[k][0], pa)))
    return splice(g, row_map, new_rsz, col_map, new_csz, extra, g.a_r + 1, g.a_c + 1)


def _n_feed_step(g: Grid, consec: bool, r: Rsmp, i: int) -> Grid:
    p, m = r.p, r.m
    ar, ac = g.a_r, g.a_c
    if consec:
        row_map = [k if k < ar else k + 1 for k in range(g.nrows)]
        new_rsz = g.rsz[:ar] + [p] + g.rsz[ar:]
        col_map = [j if j < ac else j + 1 for j in range(g.ncols)]
        new_csz = g.csz[:ac] + [p] + g.csz[ac:]
        extra = [(ar, ac, _mp_eye(p))]
        for k in range(ar, g.nrows):
            extra.append((k + 1, ac, _lam(g.cells[k][ac])))
    else:
        qd = r.D.horner_shift(r.d_d - i - 1)
        row_map = [k if k < ar else k + 1 for k in range(g.nrows)]
        new_rsz = g.rsz[:ar] + [m] + g.rsz[ar:]
        col_map = [j if j <= ac else j + 1 for j in range(g.ncols)]
        new_csz = g.csz[: ac + 1] + [m] + g.csz[ac + 1 :]
        extra = [(ar, ac + 1, _neg(_mp_eye(m)))]
        for k in range(ar, g.nrows):
            extra.append((k + 1, ac + 1, _mul(g.cells[k][ac], qd)))
    return splice(g, row_map, new_rsz, col_map, new_csz, extra, ar, ac)


# -- sequence builders -------------------------------------------------------


def _grid_to_pbm(g: Grid, transpose: bool = False) -> PolyBlockMatrix:
    """The grid as one block matrix polynomial, or as its transpose with the partitions swapped."""
    deg = max(cell.degree for row in g.cells for cell in row if cell is not None)
    rsz, csz = (g.csz, g.rsz) if transpose else (g.rsz, g.csz)
    coeffs = np.zeros((deg + 1, sum(rsz), sum(csz)), dtype=complex)
    fill = coeffs.transpose(0, 2, 1) if transpose else coeffs
    r0 = 0
    for rr, rs in enumerate(g.rsz):
        c0 = 0
        for cc, cs in enumerate(g.csz):
            cell = g.cells[rr][cc]
            if cell is not None:
                fill[: cell.degree + 1, r0 : r0 + rs, c0 : c0 + cs] = cell.coeffs
            c0 += cs
        r0 += rs
    return PolyBlockMatrix(MatrixPolynomial(coeffs), rsz, csz)


def _n_grids(r: Rsmp, s: SigmaSeq) -> list[Grid]:
    return schedule(r, s, _n_base, _n_state_step, _n_feed_step)


def build_n_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Left witness sequence; the final element is the left equivalence matrix."""
    return [_grid_to_pbm(g) for g in _n_grids(r, s)]


def build_h_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Right witness sequence; the final element is the right equivalence matrix.

    Each element is the transpose of the left witness of the same step for
    the transposed system under the flipped decisions.
    """
    return [_grid_to_pbm(g, transpose=True) for g in _n_grids(r.transpose(), s.flipped())]


def unimodular_pair(r: Rsmp, s: SigmaSeq) -> tuple[PolyBlockMatrix, PolyBlockMatrix]:
    """Final (U, V) witnesses for the decision sequence; needs degree >= 2."""
    u = _grid_to_pbm(_n_grids(r, s)[-1])
    v = _grid_to_pbm(_n_grids(r.transpose(), s.flipped())[-1], transpose=True)
    return u, v


def linearization_with_witnesses(r: Rsmp, s: SigmaSeq):
    """(L, U, V) for any degree; degree 1 gets identity witnesses."""
    from .fiedler import fiedler_pencil_rect

    pencil = fiedler_pencil_rect(r, s)
    if r.degree == 1:
        u = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[0]), pencil.row_sizes, pencil.row_sizes)
        v = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[1]), pencil.col_sizes, pencil.col_sizes)
        return pencil, u, v
    u, v = unimodular_pair(r, s)
    return pencil, u, v


# -- verification ------------------------------------------------------------

# Sample points are taken in chunks holding at most about this many complex
# entries per stacked array, which bounds the temporaries of one chunk.
_CHUNK_ENTRIES = 8192


def _chunk_points(rows: int, cols: int) -> int:
    """Points per chunk for stacks of rows-by-cols and square witness matrices."""
    return max(1, _CHUNK_ENTRIES // max(rows, cols, 1) ** 2)


def _fro(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix of a ``(P, rows, cols)`` stack."""
    return np.linalg.norm(stack, axis=(1, 2))


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


def _padding_sizes(r: Rsmp, s: SigmaSeq) -> tuple[int, int]:
    """(state padding, feedthrough padding) of the reduced form."""
    alpha_prime = (r.d_a - 1) * r.n
    hi = r.d_d - 2  # decisions that grew the feedthrough side, either regime
    if hi < 0:
        alpha = 0
    else:
        alpha = r.p * s.c_count(0, hi) + r.m * s.i_count(0, hi)
    return alpha_prime, alpha


def _sub_eye(stack: np.ndarray, row: int, col: int, size: int) -> None:
    """Subtract a size-by-size identity at (row, col) of every matrix of the stack, in place."""
    idx = np.arange(size)
    stack[:, row + idx, col + idx] -= 1.0


@dataclass
class EquivalenceReport:
    """Residuals of the sampled equivalence check.

    ``block_residuals`` maps 1-based positions of the four-block target
    partition (state padding, state, feedthrough padding, feedthrough) to
    their worst relative residual over the sample points.  A figure that is
    not finite (overflow, NaN) fails the verdict whatever the tolerance.
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
    z lead - tail and V(z) by stacked Horner, their products by one
    batched matrix product.  Every product is compared against the
    four-block target, subtracted in place, and, after explicit row/column
    permutations, against blkdiag(identity, S(z), identity) with S from
    ``assemble_s``.  Residuals are Frobenius norms relative to
    max(1, |U(z)| |L(z)| |V(z)|); at a point where that scale overflows no
    residual can be certified and it is reported as infinite.  Unimodularity
    of U and V is checked by determinant sampling at the same points.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    alpha_prime, alpha = _padding_sizes(r, s)
    n, p, m = r.n, r.p, r.m
    rows = alpha_prime + n + alpha + p
    cols = alpha_prime + n + alpha + m
    if u.shape != (rows, rows) or v.shape != (cols, cols) or pencil.shape != (rows, cols):
        raise DimensionError(
            f"witness/pencil dimensions {u.shape}/{pencil.shape}/{v.shape} do not conform "
            f"to the {rows}x{cols} target"
        )
    if points < 1:
        raise ValueError("the sampled check needs at least one point")
    rcuts = np.cumsum([0, alpha_prime, n, alpha, p])
    ccuts = np.cumsum([0, alpha_prime, n, alpha, m])
    # permutation to the block-diagonal corollary form
    row_perm = np.r_[0:alpha_prime, alpha_prime : alpha_prime + n,
                     rcuts[3] : rcuts[4], rcuts[2] : rcuts[3]].astype(int)
    col_perm = np.r_[0:alpha_prime, alpha_prime : alpha_prime + n,
                     ccuts[3] : ccuts[4], ccuts[2] : ccuts[3]].astype(int)
    state = slice(alpha_prime, alpha_prime + n)

    zs = sample_points(points, rng)
    s_poly = r.assemble_s()
    res = np.empty(points)
    cor_res = np.empty(points)
    u_dets = np.empty(points, dtype=complex)
    v_dets = np.empty(points, dtype=complex)
    worst = np.zeros((rows, cols))  # entrywise worst relative residual
    step = _chunk_points(rows, cols)
    # an overflowing point is reported as an infinite residual, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, points, step):
            hi = min(lo + step, points)
            z = zs[lo:hi]
            uz = u.eval_stack(z)
            lz = pencil.eval_stack(z)
            vz = v.eval_stack(z)
            prod = uz @ lz @ vz
            scale = np.maximum(1.0, _fro(uz) * _fro(lz) * _fro(vz))
            overflow = ~np.isfinite(scale)
            u_dets[lo:hi] = np.linalg.det(uz)
            v_dets[lo:hi] = np.linalg.det(vz)

            cor = prod[:, row_perm[:, None], col_perm]
            _sub_eye(cor, 0, 0, alpha_prime)
            cor[:, alpha_prime : alpha_prime + n + p, alpha_prime : alpha_prime + n + m] -= s_poly.eval_stack(z)
            _sub_eye(cor, alpha_prime + n + p, alpha_prime + n + m, alpha)
            cor_res[lo:hi] = _fro(cor) / scale

            # prod becomes U L V minus the four-block target
            _sub_eye(prod, 0, 0, alpha_prime)
            prod[:, state, state] -= r.A.eval_stack(z)
            prod[:, state, ccuts[3] :] += r.B
            _sub_eye(prod, rcuts[2], ccuts[2], alpha)
            prod[:, rcuts[3] :, state] -= r.C
            prod[:, rcuts[3] :, ccuts[3] :] -= r.D.eval_stack(z)
            res[lo:hi] = _fro(prod) / scale
            rel = np.abs(prod) / scale[:, None, None]
            if overflow.any():
                res[lo:hi][overflow] = np.inf
                cor_res[lo:hi][overflow] = np.inf
                rel[overflow] = np.inf
            np.maximum(worst, rel.max(axis=0), out=worst)

    rows_used = [k for k in range(4) if rcuts[k + 1] > rcuts[k]]
    cols_used = [k for k in range(4) if ccuts[k + 1] > ccuts[k]]
    per_block = np.maximum.reduceat(worst, rcuts[rows_used], axis=0)
    per_block = np.maximum.reduceat(per_block, ccuts[cols_used], axis=1)
    block_res = {
        (bi + 1, bj + 1): float(per_block[a, b])
        for a, bi in enumerate(rows_used)
        for b, bj in enumerate(cols_used)
    }

    def _dev(dets):
        return float(np.maximum(np.max(np.abs(np.abs(dets) - 1.0)), np.max(np.abs(dets - dets[0]))))

    return EquivalenceReport(
        max_residual=float(np.max(res)),
        corollary_residual=float(np.max(cor_res)),
        block_residuals=block_res,
        u_unimodularity=_dev(u_dets),
        v_unimodularity=_dev(v_dets),
        tol=tol,
    )


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
