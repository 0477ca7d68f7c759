"""Companion forms and Fiedler pencils for Rosenbrock system matrix polynomials.

For a square system (p == m) the pencil is an explicit product of
elementary factors, one per coefficient, ordered by a bijection.  In the
rectangular case the product is replaced by a block recursion that grows
the degree-1 system matrix [[-A_0, B], [-C, -D_0]]: each decision adds a
state block row and column while A has coefficients left, then a
feedthrough block row and column while D has.  The product and the
recursion agree entrywise whenever both apply, differing only in how the
identity/zero blocks are sized.  The first and second companion forms are
the Fiedler pencils of the all-inversion and all-consecution decision
strings, so the recursion builds them too.

Both sides grow by one step, anchored at block (0, 0) for the state side
and at the first feedthrough block for the feedthrough side; the decision
only picks where the new row and column go.  The closed-form size law and
structure claims state one rule for both degree orders: a side stops
growing once its degree has no coefficients left.

Block-size conventions for the rectangular recursion: every identity block
living in state rows is n-by-n; identities created on the feedthrough side
are p-by-p after a consecution and m-by-m after an inversion.  The
partition of every intermediate matrix is carried along and is the single
source of truth for the structure checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._gridops import Grid, eye, insert, schedule
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

    The Fiedler pencil of the all-inversion decision string.
    """
    return fiedler_pencil_rect(r, SigmaSeq("I" * (r.degree - 1)))


def companion_second(r: Rsmp) -> Pencil:
    """Second companion form: state block row-compressed, feedthrough cols p-sized.

    The Fiedler pencil of the all-consecution decision string.
    """
    return fiedler_pencil_rect(r, SigmaSeq("C" * (r.degree - 1)))


# ---------------------------------------------------------------------------
# square Fiedler factors and product pencil
# ---------------------------------------------------------------------------


def _factor(poly, k: int, i: int) -> np.ndarray:
    """Elementary factor i of one side alone: ``poly`` with k-sized blocks, size degree*k."""
    d = poly.degree
    if i == d:
        return _block_diag(poly.coeff(d), _eye((d - 1) * k))
    if i == 0:
        return _block_diag(_eye((d - 1) * k), -poly.coeff(0))
    mid = np.block([[-poly.coeff(i), _eye(k)], [_eye(k), _zeros(k, k)]])
    return _block_diag(_eye((d - i - 1) * k), mid, _eye((i - 1) * k))


def _block_diag(*mats, dtype=complex) -> np.ndarray:
    mats = [m for m in mats if m.shape != (0, 0)]
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=dtype)
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
        data = _block_diag(_factor(r.A, n, 0), _factor(r.D, m, 0))
        # couplings sit on the blocks holding -A_0 and -D_0
        data[(da - 1) * n : da * n, da * n + (dd - 1) * m :] = r.B
        data[da * n + (dd - 1) * m :, (da - 1) * n : da * n] = -r.C
        return BlockMatrix(data, row_sizes, row_sizes)
    if i == d:
        data = _block_diag(_factor(r.A, n, da), _factor(r.D, m, dd))
        return BlockMatrix(data, row_sizes, row_sizes)
    if i < min(da, dd):
        data = _block_diag(_factor(r.A, n, i), _factor(r.D, m, i))
    elif da > dd:  # dd <= i <= da-1
        data = _block_diag(_factor(r.A, n, i), _eye(dd * m))
    else:  # da <= i <= dd-1
        data = _block_diag(_eye(da * n), _factor(r.D, m, i))
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


def _w_base(r: Rsmp, dtype=complex) -> Grid:
    """The degree-1 system matrix [[-A_0, B], [-C, -D_0]] in ``dtype``, which every recursion grows."""
    n, c = r.n, r.coefficients(dtype)
    stack = np.zeros((1, n + r.p, n + r.m), dtype=dtype)
    stack[0, :n, :n], stack[0, :n, n:] = -c.A[0], c.B
    stack[0, n:, :n], stack[0, n:, n:] = -c.C, -c.D[0]
    return Grid.base(stack, [n, r.p], [n, r.m])


def _w_step(g: Grid, consec: bool, r: Rsmp, i: int, state: bool) -> Grid:
    """One side's growth: a block row and column carrying -P_{i+1} and an identity.

    The state step (P = A, n-identity) is anchored at block (0, 0), the
    feedthrough step (P = D, p-identity after a consecution, m-identity
    after an inversion) at the first feedthrough block (a, a).  -P_{i+1}
    lands on the anchor and the identity where the new row meets the new
    column: a consecution inserts the row at the anchor and the column
    after it, an inversion the column at the anchor and the row after it.
    Both come in the dtype of ``g``'s stack; -P_{i+1} is a slice of the
    instance's kept negation (``Rsmp.negated``).
    """
    dtype = g.stack.dtype
    neg_a, neg_d = r.negated(dtype)
    if state:
        a, neg, size = 0, neg_a, r.n
    else:
        a, neg, size = g.a, neg_d, (r.p if consec else r.m)
    new_r, new_c = (a, a + 1) if consec else (a + 1, a)
    extra = [(a, a, neg[i + 1 : i + 2], 0), (new_r, new_c, eye(size, dtype), 0)]
    return insert(g, new_r, new_c, size, extra, state)


def _w_grids(r: Rsmp, s: SigmaSeq, memo: dict) -> list[Grid]:
    return schedule(r, s, _w_base, _w_step, memo)


def _grid_to_blockmatrix(g: Grid, copy: bool = False) -> BlockMatrix:
    """The grid's matrix: a read-only view of its stack, or with ``copy`` a writable copy for the public builders."""
    data = g.stack[0]
    return BlockMatrix(data.copy() if copy else data, g.rsz, g.csz)


def build_w_sequence(r: Rsmp, s: SigmaSeq) -> list[BlockMatrix]:
    """The recursion's intermediate matrices, steps 0..d-2; the last is the pencil tail.

    Each step inserts block rows/columns into its predecessor, step 0 into
    the degree-1 system matrix: a state row/col pair while the declared
    state degree has coefficients left, then a feedthrough row/col pair
    while the feedthrough degree has.  The decision at each step picks
    which of the two printed layouts is inserted.
    """
    return [_grid_to_blockmatrix(g, copy=True) for g in _w_grids(r, s, {})]


def _rect_lead(r: Rsmp, row_sizes, dtype=complex) -> np.ndarray:
    """Leading matrix aligned with the final tail row partition, in ``dtype``.

    Block diagonal: leading state coefficient, n-identities over the
    remaining state blocks, leading feedthrough coefficient on the mixed
    p-by-m block, then identities over the trailing decision blocks.
    """
    c = r.coefficients(dtype)
    trailing = [np.eye(k, dtype=dtype) for k in row_sizes[r.d_a + 1 :]]
    eyes = np.eye((r.d_a - 1) * r.n, dtype=dtype)
    return _block_diag(c.A[r.d_a], eyes, c.D[r.d_d], *trailing, dtype=dtype)


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
        return pencil_from_tail(r, _w_base(r), copy=True)
    return pencil_from_tail(r, _w_grids(r, s, {})[-1], copy=True)


def pencil_from_tail(r: Rsmp, w: Grid, leads: dict | None = None, copy: bool = False) -> Pencil:
    """The pencil whose tail is the last W grid of the recursion, or the degree-1 grid.

    The tail is the grid's degree-0 stack as it stands, read-only, or
    with ``copy`` a writable copy, as the public builders give it.  The
    lead of such a tail depends only on the system and the tail's shape,
    and comes in the tail's dtype (complex128 for a complex system).  A
    caller that builds many pencils of one system passes one ``leads``
    dict for all of them; it keeps one read-only lead per shape and
    dtype.
    """
    tail, rsz, csz = w.stack[0], w.rsz, w.csz
    if copy:
        tail = tail.copy()
    dtype = np.result_type(tail, r.dtype)
    key = (tail.shape, dtype)
    lead = None if leads is None else leads.get(key)
    if lead is None:
        lead = _rect_lead(r, rsz, dtype)
        if leads is not None:
            lead.setflags(write=False)
            leads[key] = lead
    return Pencil(lead, tail, rsz, csz)


# ---------------------------------------------------------------------------
# closed-form sizes and structure checks
# ---------------------------------------------------------------------------


def expected_size(n, p, m, d_a, d_d, s: SigmaSeq, i: int) -> tuple[int, int]:
    """Closed-form dimensions of recursion step i, per the size law.

    The state side is n*(min(i, d_A - 2) + 2) square: it stops growing at
    d_A*n.  The feedthrough side is (p + p*c + m*i) by (m + p*c + m*i), with
    c/i counting consecutions/inversions among decisions
    0..min(i, d_D - 2), the ones that grew it.  One rule for both degree
    orders.
    """
    d = max(d_a, d_d)
    if not 0 <= i <= d - 2:
        raise DimensionError(f"step {i} out of range 0..{d - 2}")
    state = n * (min(i, d_a - 2) + 2)
    hi = min(i, d_d - 2)
    c = s.c_count(0, hi)
    inv = hi + 1 - c
    return state + p + p * c + m * inv, state + m + p * c + m * inv


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


def _claims(i: int, r: Rsmp, s: SigmaSeq, total: int, dtype=complex) -> list[tuple]:
    """The structure claims of recursion step i on a matrix of ``total`` block rows, in order.

    Each claim is ``(name, args, row, col, shape, want)``: the 1-based block
    (row, col) has ``shape`` and equals ``want``, or is zero where ``want``
    is None; a ``want`` comes in ``dtype``, that of the matrix checked, and
    is a slice of the instance's kept negation (``Rsmp.negated``).  Its
    name is ``name % args``, formed only where it is read.
    """
    n, p, m, da, dd = r.n, r.p, r.m, r.d_a, r.d_d
    neg_a, neg_d = r.negated(dtype)
    a_blocks = min(i + 2, da)  # state-side block count at step i
    d_pos = a_blocks + 1  # 1-based block position of the mixed diagonal block
    a_idx = min(i + 1, da - 1)  # state coefficient on the (1,1) anchor
    d_idx = min(i + 1, dd - 1)  # feedthrough coefficient on the mixed diagonal block
    trailing = min(i, dd - 2)  # last decision that grew the feedthrough side
    claims = [
        ("(1,1) block is -A_{i+1}", (), 1, 1, (n, n), neg_a[a_idx]),
        ("mixed diagonal block is -D_k", (), d_pos, d_pos, (p, m), neg_d[d_idx]),
    ]
    claims += [("state diagonal block %d is 0_n", (k,), k, k, (n, n), None) for k in range(2, a_blocks + 1)]
    for j in range(trailing + 1):
        pos = total - j
        if pos <= d_pos:
            break
        want = p if s.has_consecution(j) else m
        name = "feedthrough diagonal block %d is 0 of decision size (j=%d)"
        claims.append((name, (pos, j), pos, pos, (want, want), None))
    # coupling zero created by this step
    # block 2 is the state row/column this step added, when it grew the state side
    near = 2 if i <= da - 2 else 1
    if s.has_consecution(i):
        claims.append(("consecution coupling zero is 0_{p x n}", (), d_pos, near, (p, n), None))
    else:
        claims.append(("inversion coupling zero is 0_{n x m}", (), near, d_pos, (n, m), None))
    return claims


def _holds(block: np.ndarray, shape: tuple[int, int], want) -> bool:
    """Whether ``block`` has ``shape`` and equals ``want``, or is zero where ``want`` is None."""
    return block.shape == shape and not np.count_nonzero(block if want is None else block != want)


def check_block_structure(w: BlockMatrix, i: int, r: Rsmp, s: SigmaSeq) -> StructureReport:
    """Verify the structural claims for recursion step i.

    Checks the anchor blocks (the (1,1) block is minus the next state
    coefficient; the mixed diagonal block holds the expected negated
    feedthrough coefficient), the square zero blocks along the diagonal
    (n-sized on the state side, p- or m-sized per decision on the
    feedthrough side), and the zero coupling block created by the step
    (p-by-n after a consecution, n-by-m after an inversion).  One rule
    serves both degree orders: each side's counts and coefficient indices
    stop where its degree runs out, and the coupling zero meets state
    block 2 when the step grew the state side, block 1 otherwise.
    """
    rep = StructureReport()
    for name, args, bi, bj, shape, want in _claims(i, r, s, w.nblock_rows, np.result_type(w.data, r.dtype)):
        rep.add(name % args, _holds(w.block(bi, bj), shape, want))
    return rep


def _step_verdicts(g: Grid, r: Rsmp, s: SigmaSeq, i: int) -> tuple[bool, bool]:
    """Whether the grid of recursion step i meets its size law, and whether it meets every claim of ``check_block_structure``.

    The claims read their blocks from the grid's matrix by its block
    offsets: no BlockMatrix is built, no claim is named, and the first
    claim that fails settles the verdict.
    """
    w, rc, cc = g.stack[0], g.rc, g.cc
    size_ok = w.shape == expected_size(r.n, r.p, r.m, r.d_a, r.d_d, s, i)
    for _, _, bi, bj, shape, want in _claims(i, r, s, len(rc) - 1, w.dtype):
        if not _holds(w[rc[bi - 1] : rc[bi], cc[bj - 1] : cc[bj]], shape, want):
            return size_ok, False
    return size_ok, True
