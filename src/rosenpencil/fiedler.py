"""Companion forms and Fiedler pencils for Rosenbrock system matrix polynomials.

For a square system (p == m) the pencil is an explicit product of
elementary factors, one per coefficient, ordered by a bijection.  In the
rectangular case the product is replaced by a block recursion that grows
the degree-1 system matrix [[-A_0, B], [-C, -D_0]]: each decision adds a
state block row and column while A has coefficients left, then a
feedthrough block row and column while D has.  The two agree entrywise
whenever both apply, differing only in how the identity/zero blocks are
sized.

Block-size conventions for the rectangular recursion: every identity block
living in state rows is n-by-n; identities created on the feedthrough side
are p-by-p after a consecution and m-by-m after an inversion.  The
partition of every intermediate matrix is carried along and is the single
source of truth for the structure checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._gridops import Grid, schedule, splice
from .blocks import BlockMatrix, Pencil
from .errors import DimensionError
from .rsmp import Rsmp
from .sigma import SigmaSeq

__all__ = [
    "companion_first",
    "companion_second",
    "square_fiedler_matrix",
    "square_fiedler_pencil",
    "build_w_sequence",
    "fiedler_pencil_rect",
    "pencil_from_tail",
    "expected_size",
    "check_block_structure",
    "StructureReport",
]


def _zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=complex)


def _eye(k: int) -> np.ndarray:
    return np.eye(k, dtype=complex)


# ---------------------------------------------------------------------------
# companion forms
# ---------------------------------------------------------------------------


def companion_first(r: Rsmp) -> Pencil:
    """First companion form: state block column-compressed, feedthrough rows m-sized.

    Returned as lambda*lead - tail where lead carries the leading
    coefficients and tail is the negated constant block layout.
    """
    n, p, m, da, dd = r.n, r.p, r.m, r.d_a, r.d_d
    row_sizes = [n] * da + [p] + [m] * (dd - 1)
    col_sizes = [n] * da + [m] * dd
    lead = _zeros(sum(row_sizes), sum(col_sizes))
    y = _zeros(sum(row_sizes), sum(col_sizes))
    rc = np.concatenate(([0], np.cumsum(row_sizes)))
    cc = np.concatenate(([0], np.cumsum(col_sizes)))

    def put(mat, i, j, val):
        mat[rc[i] : rc[i + 1], cc[j] : cc[j + 1]] = val

    put(lead, 0, 0, r.A.coeff(da))
    for k in range(1, da):
        put(lead, k, k, _eye(n))
    put(lead, da, da, r.D.coeff(dd))
    for k in range(1, dd):
        put(lead, da + k, da + k, _eye(m))

    for k in range(da):
        put(y, 0, k, r.A.coeff(da - 1 - k))
    put(y, 0, da + dd - 1, -r.B)
    for k in range(1, da):
        put(y, k, k - 1, -_eye(n))
    put(y, da, da - 1, r.C)
    for k in range(dd):
        put(y, da, da + k, r.D.coeff(dd - 1 - k))
    for k in range(1, dd):
        put(y, da + k, da + k - 1, -_eye(m))
    return Pencil(lead, -y, row_sizes, col_sizes)


def companion_second(r: Rsmp) -> Pencil:
    """Second companion form: state block row-compressed, feedthrough cols p-sized."""
    n, p, m, da, dd = r.n, r.p, r.m, r.d_a, r.d_d
    row_sizes = [n] * da + [p] * dd
    col_sizes = [n] * da + [m] + [p] * (dd - 1)
    lead = _zeros(sum(row_sizes), sum(col_sizes))
    y = _zeros(sum(row_sizes), sum(col_sizes))
    rc = np.concatenate(([0], np.cumsum(row_sizes)))
    cc = np.concatenate(([0], np.cumsum(col_sizes)))

    def put(mat, i, j, val):
        mat[rc[i] : rc[i + 1], cc[j] : cc[j + 1]] = val

    put(lead, 0, 0, r.A.coeff(da))
    for k in range(1, da):
        put(lead, k, k, _eye(n))
    put(lead, da, da, r.D.coeff(dd))
    for k in range(1, dd):
        put(lead, da + k, da + k, _eye(p))

    for k in range(da):
        put(y, k, 0, r.A.coeff(da - 1 - k))
    for k in range(da - 1):
        put(y, k, k + 1, -_eye(n))
    put(y, da - 1, da, -r.B)
    for k in range(dd):
        put(y, da + k, da, r.D.coeff(dd - 1 - k))
    for k in range(dd - 1):
        put(y, da + k, da + k + 1, -_eye(p))
    put(y, da + dd - 1, 0, r.C)
    return Pencil(lead, -y, row_sizes, col_sizes)


# ---------------------------------------------------------------------------
# square Fiedler factors and product pencil
# ---------------------------------------------------------------------------


def _state_factor(r: Rsmp, i: int) -> np.ndarray:
    """Elementary factor of the state polynomial alone, size d_A*n."""
    n, da = r.n, r.d_a
    if i == da:
        return _block_diag(r.A.coeff(da), _eye((da - 1) * n))
    if i == 0:
        return _block_diag(_eye((da - 1) * n), -r.A.coeff(0))
    mid = np.block(
        [[-r.A.coeff(i), _eye(n)], [_eye(n), _zeros(n, n)]]
    )
    return _block_diag(_eye((da - i - 1) * n), mid, _eye((i - 1) * n))


def _feedthrough_factor(r: Rsmp, i: int) -> np.ndarray:
    """Elementary factor of the feedthrough polynomial alone, size d_D*m (square case)."""
    m, dd = r.m, r.d_d
    if i == dd:
        return _block_diag(r.D.coeff(dd), _eye((dd - 1) * m))
    if i == 0:
        return _block_diag(_eye((dd - 1) * m), -r.D.coeff(0))
    mid = np.block(
        [[-r.D.coeff(i), _eye(m)], [_eye(m), _zeros(m, m)]]
    )
    return _block_diag(_eye((dd - i - 1) * m), mid, _eye((i - 1) * m))


def _block_diag(*mats) -> np.ndarray:
    mats = [m for m in mats if m.shape != (0, 0)]
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = _zeros(rows, cols)
    r0 = c0 = 0
    for m in mats:
        out[r0 : r0 + m.shape[0], c0 : c0 + m.shape[1]] = m
        r0 += m.shape[0]
        c0 += m.shape[1]
    return out


def square_fiedler_matrix(r: Rsmp, i: int) -> BlockMatrix:
    """Coupled elementary factor of the square system (p == m), 0 <= i <= max degree.

    The zero-index factor couples the two sides: B enters at state block row
    d_A and feedthrough block column d_D, and -C transposed to that.  All
    other factors are block diagonal over the two sides, padding the
    shorter-degree side with an identity.
    """
    if r.p != r.m:
        raise DimensionError("square Fiedler factors need p == m")
    n, m, da, dd = r.n, r.m, r.d_a, r.d_d
    d = max(da, dd)
    if not 0 <= i <= d:
        raise DimensionError(f"factor index {i} out of range 0..{d}")
    row_sizes = [n] * da + [m] * dd

    if i == 0:
        top = _state_factor(r, 0)
        bot = _feedthrough_factor(r, 0)
        data = _block_diag(top, bot)
        # couplings sit on the blocks holding -A_0 and -D_0
        data[(da - 1) * n : da * n, da * n + (dd - 1) * m :] = r.B
        data[da * n + (dd - 1) * m :, (da - 1) * n : da * n] = -r.C
        return BlockMatrix(data, row_sizes, row_sizes)
    if i == d:
        data = _block_diag(_state_factor(r, da), _feedthrough_factor(r, dd))
        return BlockMatrix(data, row_sizes, row_sizes)
    if i < min(da, dd):
        data = _block_diag(_state_factor(r, i), _feedthrough_factor(r, i))
    elif da > dd:  # dd <= i <= da-1
        data = _block_diag(_state_factor(r, i), _eye(dd * m))
    else:  # da <= i <= dd-1
        data = _block_diag(_eye(da * n), _feedthrough_factor(r, i))
    return BlockMatrix(data, row_sizes, row_sizes)


def square_fiedler_pencil(r: Rsmp, s) -> Pencil:
    """Product-form Fiedler pencil of a square system for ordering ``s``.

    ``s`` is a bijection {0..d-1} -> {1..d} (sequence of ints) giving the
    position of each factor in the product; factor i is the s[i]-th factor.
    """
    if r.p != r.m:
        raise DimensionError("the product form needs p == m")
    d = r.degree
    if isinstance(s, SigmaSeq):
        if s.source is None:
            raise ValueError("the product form needs an explicit bijection, not just decisions")
        perm = s.source
    else:
        perm = tuple(int(x) for x in s)
    if sorted(perm) != list(range(1, d + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{d}")
    order = sorted(range(d), key=lambda i: perm[i])  # factor indices, product order
    prod = square_fiedler_matrix(r, order[0]).data
    for i in order[1:]:
        prod = prod @ square_fiedler_matrix(r, i).data
    lead = square_fiedler_matrix(r, d)
    return Pencil(lead.data, prod, lead.row_sizes, lead.col_sizes)


# ---------------------------------------------------------------------------
# rectangular recursion
# ---------------------------------------------------------------------------


def _w_base(r: Rsmp) -> Grid:
    """The degree-1 system matrix [[-A_0, B], [-C, -D_0]], which every recursion grows."""
    cells = [
        [-r.A.coeff(0), r.B.astype(complex)],
        [-r.C.astype(complex), -r.D.coeff(0)],
    ]
    return Grid(cells, [r.n, r.p], [r.n, r.m], 1, 1)


def _w_state_step(g: Grid, consec: bool, r: Rsmp, i: int) -> Grid:
    """State-side growth: a block row and column carrying -A_{i+1} and an n-identity."""
    n, a_next = r.n, r.A.coeff(i + 1)
    if consec:
        row_map = [k + 1 for k in range(g.nrows)]
        new_rsz = [n] + g.rsz
        col_map = [0] + [j + 1 for j in range(1, g.ncols)]
        new_csz = [g.csz[0], n] + g.csz[1:]
        extra = [(0, 0, -a_next), (0, 1, _eye(n))]
    else:
        col_map = [j + 1 for j in range(g.ncols)]
        new_csz = [n] + g.csz
        row_map = [0] + [k + 1 for k in range(1, g.nrows)]
        new_rsz = [g.rsz[0], n] + g.rsz[1:]
        extra = [(0, 0, -a_next), (1, 0, _eye(n))]
    return splice(g, row_map, new_rsz, col_map, new_csz, extra, g.a_r + 1, g.a_c + 1)


def _w_feed_step(g: Grid, consec: bool, r: Rsmp, i: int) -> Grid:
    """Feedthrough-side growth: a block row and column carrying -D_{i+1} and an identity."""
    p, m, d_next = r.p, r.m, r.D.coeff(i + 1)
    ar, ac = g.a_r, g.a_c
    if consec:
        row_map = [k if k < ar else k + 1 for k in range(g.nrows)]
        new_rsz = g.rsz[:ar] + [p] + g.rsz[ar:]
        col_map = [j if j <= ac else j + 1 for j in range(g.ncols)]
        new_csz = g.csz[: ac + 1] + [p] + g.csz[ac + 1 :]
        extra = [(ar, ac, -d_next), (ar, ac + 1, _eye(p))]
    else:
        col_map = [j if j < ac else j + 1 for j in range(g.ncols)]
        new_csz = g.csz[:ac] + [m] + g.csz[ac:]
        row_map = [k if k <= ar else k + 1 for k in range(g.nrows)]
        new_rsz = g.rsz[: ar + 1] + [m] + g.rsz[ar + 1 :]
        extra = [(ar, ac, -d_next), (ar + 1, ac, _eye(m))]
    return splice(g, row_map, new_rsz, col_map, new_csz, extra, ar, ac)


def _w_grids(r: Rsmp, s: SigmaSeq) -> list[Grid]:
    return schedule(r, s, _w_base, _w_state_step, _w_feed_step)


def _grid_to_blockmatrix(g: Grid) -> BlockMatrix:
    data = _zeros(sum(g.rsz), sum(g.csz))
    r0 = 0
    for row, rs in zip(g.cells, g.rsz):
        c0 = 0
        for cell, cs in zip(row, g.csz):
            if cell is not None:
                data[r0 : r0 + rs, c0 : c0 + cs] = cell
            c0 += cs
        r0 += rs
    return BlockMatrix(data, g.rsz, g.csz)


def build_w_sequence(r: Rsmp, s: SigmaSeq) -> list[BlockMatrix]:
    """The recursion's intermediate matrices, steps 0..d-2; the last is the pencil tail.

    Each step inserts block rows/columns into its predecessor, step 0 into
    the degree-1 system matrix: a state row/col pair while the declared
    state degree has coefficients left, then a feedthrough row/col pair
    while the feedthrough degree has.  The decision at each step picks
    which of the two printed layouts is spliced in.
    """
    return [_grid_to_blockmatrix(g) for g in _w_grids(r, s)]


def _rect_lead(r: Rsmp, row_sizes, col_sizes) -> np.ndarray:
    """Leading matrix aligned with the final tail partition.

    Diagonal layout: leading state coefficient, n-identities over the
    remaining state blocks, leading feedthrough coefficient on the mixed
    p-by-m block, then identities over the trailing decision blocks.
    """
    da = r.d_a
    lead = _zeros(sum(row_sizes), sum(col_sizes))
    rc = np.concatenate(([0], np.cumsum(row_sizes)))
    cc = np.concatenate(([0], np.cumsum(col_sizes)))
    lead[: rc[1], : cc[1]] = r.A.coeff(da)
    for k in range(1, da):
        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = _eye(row_sizes[k])
    lead[rc[da] : rc[da + 1], cc[da] : cc[da + 1]] = r.D.coeff(r.d_d)
    for k in range(da + 1, len(row_sizes)):
        if row_sizes[k] != col_sizes[k]:
            raise DimensionError("trailing blocks must be square")
        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = _eye(row_sizes[k])
    return lead


def fiedler_pencil_rect(r: Rsmp, s: SigmaSeq) -> Pencil:
    """Fiedler pencil of a (possibly rectangular) system for a decision sequence.

    Size: ((p + p*c0 + m*i0) + d_A*n) rows by ((m + p*c0 + m*i0) + d_A*n)
    columns, where c0/i0 count consecutions/inversions among the decisions
    that grow the feedthrough side.  Degree-1 systems need no recursion:
    the pencil is the system matrix itself split into lead and tail.
    """
    if r.degree == 1:
        if len(s) != 0:
            raise DimensionError("degree-1 systems take an empty decision sequence")
        return pencil_from_tail(r, _grid_to_blockmatrix(_w_base(r)))
    return pencil_from_tail(r, _grid_to_blockmatrix(_w_grids(r, s)[-1]))


def pencil_from_tail(r: Rsmp, w: BlockMatrix) -> Pencil:
    """The pencil whose tail is the last matrix of ``build_w_sequence``, or the degree-1 grid."""
    return Pencil(_rect_lead(r, w.row_sizes, w.col_sizes), w.data, w.row_sizes, w.col_sizes)


# ---------------------------------------------------------------------------
# closed-form sizes and structure checks
# ---------------------------------------------------------------------------


def expected_size(n, p, m, d_a, d_d, s: SigmaSeq, i: int) -> tuple[int, int]:
    """Closed-form dimensions of recursion step i, per the size law.

    While both sides grow (i up to min degree - 2) the size is
    (n + n*c + n*i) + (p + p*c + m*i) rows by (n + n*c + n*i) + (m + p*c + m*i)
    columns with counts over decisions 0..i; afterwards the exhausted
    side's counts freeze (state side caps at d_A*n total).
    """
    d = max(d_a, d_d)
    if not 0 <= i <= d - 2:
        raise DimensionError(f"step {i} out of range 0..{d - 2}")
    c_i, i_i = s.c_count(0, i), s.i_count(0, i)
    if d_a >= d_d:
        if i <= d_d - 2:
            rows = (n + n * c_i + n * i_i) + (p + p * c_i + m * i_i)
            cols = (n + n * c_i + n * i_i) + (m + p * c_i + m * i_i)
        else:
            c0, i0 = s.c_count(0, d_d - 2), s.i_count(0, d_d - 2)
            rows = (n + n * c_i + n * i_i) + (p + p * c0 + m * i0)
            cols = (n + n * c_i + n * i_i) + (m + p * c0 + m * i0)
    else:
        if i <= d_a - 2:
            rows = (n + n * c_i + n * i_i) + (p + p * c_i + m * i_i)
            cols = (n + n * c_i + n * i_i) + (m + p * c_i + m * i_i)
        else:
            rows = d_a * n + (p + p * c_i + m * i_i)
            cols = d_a * n + (m + p * c_i + m * i_i)
    return rows, cols


@dataclass
class StructureReport:
    """Pass/fail record for the per-step block-structure claims."""

    checks: list[tuple[str, bool]] = field(default_factory=list)

    def add(self, name: str, ok: bool):
        self.checks.append((name, bool(ok)))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def check_block_structure(w: BlockMatrix, i: int, r: Rsmp, s: SigmaSeq) -> StructureReport:
    """Verify the structural claims for recursion step i.

    Checks the anchor blocks (the (1,1) block is minus the next state
    coefficient; the mixed diagonal block holds the expected negated
    feedthrough coefficient), the square zero blocks along the diagonal
    (n-sized on the state side, p- or m-sized per decision on the
    feedthrough side), and the zero coupling block created by the step
    (p-by-n after a consecution, n-by-m after an inversion).
    """
    n, p, m, da, dd = r.n, r.p, r.m, r.d_a, r.d_d
    rep = StructureReport()

    def is_zero(block):
        return block.size == 0 or not np.any(block)

    if da >= dd:
        a_blocks = i + 2  # state-side block count at step i
        d_pos = i + 3  # 1-based block position of the mixed diagonal block
        d_idx = min(i + 1, dd - 1)  # coefficient index sitting there
        trailing_decisions = min(i, dd - 2)  # decisions that grew the feedthrough side
    else:
        a_blocks = min(i + 2, da)
        d_pos = a_blocks + 1
        d_idx = i + 1
        trailing_decisions = i

    a_idx = min(i + 1, da - 1) if da < dd else i + 1
    b11 = w.block(1, 1)
    rep.add(
        "(1,1) block is -A_{i+1}",
        b11.shape == (n, n) and np.array_equal(b11, -r.A.coeff(a_idx)),
    )
    bdd = w.block(d_pos, d_pos)
    rep.add(
        "mixed diagonal block is -D_k",
        bdd.shape == (p, m) and np.array_equal(bdd, -r.D.coeff(d_idx)),
    )
    for k in range(2, a_blocks + 1):
        blk = w.block(k, k)
        rep.add(f"state diagonal block {k} is 0_n", blk.shape == (n, n) and is_zero(blk))
    total = w.nblock_rows
    for j in range(trailing_decisions + 1):
        pos = total - j
        if pos <= d_pos:
            break
        blk = w.block(pos, pos)
        want = p if s.has_consecution(j) else m
        rep.add(
            f"feedthrough diagonal block {pos} is 0 of decision size (j={j})",
            blk.shape == (want, want) and is_zero(blk),
        )
    # coupling zero created by this step
    if s.has_consecution(i):
        if da >= dd or i <= da - 2:
            blk = w.block(d_pos, 2)
        else:
            blk = w.block(d_pos, 1)
        rep.add("consecution coupling zero is 0_{p x n}", blk.shape == (p, n) and is_zero(blk))
    else:
        if da < dd and i >= da - 1:
            blk = w.block(1, d_pos)  # fresh feedthrough column under the state row
        else:
            blk = w.block(2, d_pos)  # fresh identity row meets the feedthrough column
        rep.add("inversion coupling zero is 0_{n x m}", blk.shape == (n, m) and is_zero(blk))
    return rep
