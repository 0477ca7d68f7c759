"""Internal block-grid plumbing for the pencil recursions.

A grid is one read-only ``(degree + 1, rows, cols)`` coefficient stack
(degree 0 in W) in the instance's dtype (float64 for a real instance on
the CLI's walk, complex128 otherwise and in the public builders) plus its
partition: the block-size lists, the block offsets, the count
``a`` of leading block rows, and equally many leading block columns, that
belong to the state (A) side, so block (a, a) is the first feedthrough
block, and the degree of each block column.  A column's degree is that of
the blocks written into it, not a numerical trim, so every stack keeps the
length its blocks give it even where its top coefficients are zero.
``assemble`` returns the stack itself, or a contiguous transposed copy,
made once per grid and kept read-only, so that a stack can be told for
the grid's own by identity.
Every recursion step is one ``insert``: the grown stack is allocated in the
dtype of the grid it grows, the predecessor's nonempty quadrants are
copied around a zero block row and a zero block column of one size, the
offsets are the predecessor's with those past the insertion shifted, and
a handful of prescribed blocks are written into them, each from a degree
offset of its own (a block times lambda starts one degree up).
``schedule`` runs every recursion: it checks the degree and the decision
count, then grows the degree-1 grid per decision with the
state step while the state degree has coefficients left, and with the
feedthrough step while the feedthrough degree has, and hands each
decision's result to an optional check.  Step i depends only on
decisions 0..i, so ``schedule`` keeps, per system and step function, the
last decision string it walked and that string's grids in a memo, a path
through the prefix trie: a string shares the grids of its common prefix
with the last one and builds (and checks) the rest.  The public builders
pass a fresh memo and one recursion's step; the CLI passes one memo per
instance and a step that grows the pencil and both witness recursions
together, so in lexicographic order each prefix is built and checked
once, with at most ``degree`` prefixes held.  Stacks are never written
after they are built, so a memoised grid can be shared.

A grid can carry the pivots of an exact Laplace expansion of its
determinant, as one block column per block row: row i's pivot block is a
constant +-I in block column ``piv[i]``, with no other nonzero in its
rows once the later pivots' rows and columns are struck out.  A base grid
gets them from its caller; ``insert`` extends them only while the claim
goes on holding, that is while the inserted block row holds one block, in
the inserted column, and that block is the shared ``eye`` or ``neg_eye``
of its size and dtype at degree 0 (the grid then has determinant +-1
times its predecessor's), and drops them otherwise.
``pivot_indices`` turns them into the scalar indices of the assembled stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DimensionError

__all__ = ["Grid", "assemble", "eye", "insert", "neg_eye", "owns", "pivot_indices", "schedule"]


def _cuts(sizes) -> list[int]:
    """The scalar offsets of the blocks of ``sizes``, with the total last."""
    return list(accumulate(sizes, initial=0))


class Grid:
    """One recursion step: a read-only coefficient stack and its block partition."""

    __slots__ = ("stack", "rsz", "csz", "rc", "cc", "a", "cdeg", "piv", "t")

    def __init__(self, stack, rsz, csz, a, cdeg, piv=None, cuts=None):
        self.stack = stack  # (degree + 1, rows, cols), read-only
        self.rsz = rsz
        self.csz = csz
        # the blocks' scalar offsets, from the sizes unless ``cuts`` gives them
        self.rc, self.cc = cuts if cuts is not None else (_cuts(rsz), _cuts(csz))
        self.a = a  # leading block rows, and block cols, belonging to the A side
        self.cdeg = cdeg  # the degree of each block column, a tuple
        self.piv = piv  # the carried pivots' block columns, a tuple with one per block row, or None
        self.t = None  # the read-only transposed copy, made by the first ``assemble(self, True)``

    @classmethod
    def base(cls, stack: np.ndarray, rsz, csz, piv=None) -> "Grid":
        """A degree-1 grid, one block row and column per side, from its stack, which is marked read-only."""
        stack.setflags(write=False)
        return cls(stack, list(rsz), list(csz), 1, (len(stack) - 1,) * len(csz), piv)


def eye(k: int, dtype=complex) -> np.ndarray:
    """The k-by-k identity as a read-only degree-0 stack, one shared per size and dtype."""
    return _identity(k, np.dtype(dtype), 1.0)


def neg_eye(k: int, dtype=complex) -> np.ndarray:
    """``-eye(k, dtype)``, read-only, one shared per size and dtype."""
    return _identity(k, np.dtype(dtype), -1.0)


@lru_cache(maxsize=512)
def _identity(k: int, dtype: np.dtype, sign: float) -> np.ndarray:
    """``sign`` times the k-by-k identity in ``dtype``, a read-only degree-0 stack; keyed on a canonical dtype, so each is one object."""
    out = np.eye(k, dtype=dtype)[None]
    if sign < 0:
        out = -out
    out.setflags(write=False)
    return out


def insert(prev: Grid, at_row: int, at_col: int, size: int, extra, grown: bool) -> Grid:
    """``prev`` with a zero block row at ``at_row`` and a zero block column at ``at_col``.

    Both new blocks are ``size`` wide; old blocks at or past the insertion
    shift by one.  ``extra`` lists (row, col, block, lift) entries, in the
    new positions, written into the result: a block is a coefficient stack
    one block column wide that starts at block row ``row`` and may span
    several block rows, and its coefficient k lands at degree ``lift`` + k,
    so a block times lambda is the block with ``lift`` 1.  Everything else
    new stays zero.  ``grown`` marks a state step, whose new row and column
    join the state side.  The result takes the dtype of ``prev``'s stack,
    or a wider one that a block needs, so a real grid stays real under
    real blocks and no block loses a part.
    """
    old = prev.stack
    d, rows, cols = old.shape
    rc, cc = prev.rc, prev.cc
    r0, c0 = rc[at_row], cc[at_col]
    dtype, depth = old.dtype, d
    for _, _, val, lift in extra:
        if val.dtype != dtype:
            dtype = np.result_type(dtype, val.dtype)
        if lift + len(val) > depth:
            depth = lift + len(val)
    out = np.zeros((depth, rows + size, cols + size), dtype=dtype)
    # the predecessor's four quadrants around the new row and column; one
    # before row or column 0, or past the last, is empty and not copied
    r1, c1 = r0 + size, c0 + size
    if r0:
        if c0:
            out[:d, :r0, :c0] = old[:, :r0, :c0]
        if c0 < cols:
            out[:d, :r0, c1:] = old[:, :r0, c0:]
    if r0 < rows:
        if c0:
            out[:d, r1:, :c0] = old[:, r0:, :c0]
        if c0 < cols:
            out[:d, r1:, c1:] = old[:, r0:, c0:]
    rc = rc[: at_row + 1] + [x + size for x in rc[at_row:]]
    cc = cc[: at_col + 1] + [x + size for x in cc[at_col:]]
    cdeg = list(prev.cdeg)
    cdeg.insert(at_col, 0)
    # the pivot claim: every block starts in the inserted row or lies in
    # the inserted column, and the inserted row meets exactly one block, in
    # the inserted column at degree 0, the shared read-only ``eye`` or
    # ``neg_eye`` of its size and dtype; so a block that starts in the
    # inserted row is that one, every other block lies in the inserted
    # column, and striking both out leaves ``prev``, whose pivots then
    # move past the inserted column
    piv, unit = prev.piv, None
    for rr, col, val, lift in extra:
        top, start = lift + len(val), rc[rr]
        end = start + val.shape[1]
        out[lift:top, start:end, cc[col] : cc[col + 1]] = val
        cdeg[col] = max(cdeg[col], top - 1)
        if piv is None:
            continue
        if rr != at_row and col != at_col:
            piv = None
        elif start < r1 and end > r0:  # the block meets the inserted row
            if unit is not None or rr != at_row or col != at_col or lift:
                piv = None
            unit = val
    out.setflags(write=False)
    if piv is not None:
        if unit is None or not (unit is _identity(size, unit.dtype, 1.0) or unit is _identity(size, unit.dtype, -1.0)):
            piv = None
        else:
            piv = [c + (c >= at_col) for c in piv]
            piv.insert(at_row, at_col)
            piv = tuple(piv)
    rsz = prev.rsz[:at_row] + [size] + prev.rsz[at_row:]
    csz = prev.csz[:at_col] + [size] + prev.csz[at_col:]
    return Grid(out, rsz, csz, prev.a + grown, tuple(cdeg), piv, (rc, cc))


def pivot_indices(g: Grid, transpose: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """The (rows, cols) indices of ``g``'s carried pivots in ``assemble(g, transpose)``, or None if it carries none."""
    if g.piv is None:
        return None
    cols = np.array([c for size, j in zip(g.rsz, g.piv) for c in range(g.cc[j], g.cc[j] + size)])
    rows = np.arange(len(cols))
    return (cols, rows) if transpose else (rows, cols)


def assemble(g: Grid, transpose: bool = False) -> np.ndarray:
    """The grid's stack itself, read-only; with ``transpose``, a contiguous read-only copy with every coefficient transposed, made once and kept."""
    if not transpose:
        return g.stack
    if g.t is None:
        g.t = np.ascontiguousarray(g.stack.transpose(0, 2, 1))
        g.t.setflags(write=False)
    return g.t


def owns(g: Grid | None, stack: np.ndarray, transpose: bool = False) -> bool:
    """Whether ``stack`` is the very array ``assemble(g, transpose)`` returns, and ``g`` carries its pivots; False for no grid."""
    return g is not None and g.piv is not None and stack is (g.t if transpose else g.stack)


def schedule(r, s, base, step, memo: dict, check=None) -> list:
    """Grids of steps 0..d-2 of one recursion for system ``r`` and decisions ``s``.

    Starts from ``base(r)``, the degree-1 grid.  Step i grows the state side
    while i < d_A - 1 and then the feedthrough side while i < d_D - 1, each
    as ``step(previous_grid, consec, r, i, state)`` with ``consec`` the
    decision at i and ``state`` naming the side; ``check(grid, r, s, i)``,
    if given, then maps step i's grid to what the path keeps for it, so it
    runs once per prefix built.  ``memo`` maps ``(r, step)`` to the last
    decision string scheduled for them and its grids, the base grid first:
    the grids of the prefix that ``s`` shares with that string are taken
    from there, the rest are built, and ``s`` and its grids replace the
    entry.  A "grid" is whatever ``base`` and ``step`` return.
    """
    d = r.degree
    if len(s) != d - 1:
        raise DimensionError(f"need {d - 1} decisions for degree {d}, got {len(s)}")
    if d < 2:
        raise DimensionError("the recursions need pencil degree >= 2")
    walked, grids = memo.pop((r, step), ("", None))  # the old path's tail goes as the new one grows
    if grids is None:
        grids = [base(r)]
    shared = 0
    while shared < len(walked) and walked[shared] == s.decisions[shared]:
        shared += 1
    grids = grids[: shared + 1]
    d_a, d_d = r.d_a, r.d_d
    for i in range(shared, d - 1):
        g, consec = grids[-1], s.has_consecution(i)
        if i < d_a - 1:
            g = step(g, consec, r, i, True)
        if i < d_d - 1:
            g = step(g, consec, r, i, False)
        grids.append(g if check is None else check(g, r, s, i))
    memo[(r, step)] = (s.decisions, grids)
    return grids[1:]
