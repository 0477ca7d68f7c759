"""Internal block-grid plumbing for the pencil recursions.

A grid is a 2-D list of blocks plus block-size lists, the count ``a``
of leading block rows, and equally many leading block columns, that belong
to the state (A) side, so block (a, a) is the first feedthrough block, and
its highest block degree.
Each block is a read-only ``(degree + 1, rows, cols)`` complex coefficient
stack (degree 0 in W); zero blocks stay unallocated (None).  ``assemble``
stacks a whole grid.  Every recursion step is one ``insert``: a zero block
row and a zero block column of one size go in, and a handful of prescribed
blocks are written into them.  ``schedule`` runs every recursion: it checks
the degree and the decision count, then grows the degree-1 grid per
decision with the state step while the state degree has coefficients
left, and with the feedthrough step while the feedthrough degree has.
Step i depends only on decisions 0..i, so ``schedule`` keeps each grid in
a memo under its system, step function and decision prefix: the public
builders pass a fresh memo, and a caller that walks many decision strings
of one system passes one memo for all of them and builds each prefix once.
Grids are never changed after they are built, nor can their blocks be, so
a memoised grid can be shared.

A grid can carry the pivots of an exact Laplace expansion of its
determinant, as one block column per block row: row i's pivot block is a
constant +-I in block column ``piv[i]``, with no other nonzero in its
rows once the later pivots' rows and columns are struck out.  A base grid
gets them from its caller; ``insert`` extends them only while the claim
goes on holding, that is while the inserted block row holds one cell, in
the inserted column, and that cell is a constant +-I (the grid then has
determinant +-1 times its predecessor's), and drops them otherwise.
``pivot_indices`` turns them into the scalar indices of the assembled stack.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import DimensionError

__all__ = ["Grid", "assemble", "eye", "insert", "neg_eye", "pivot_indices", "schedule"]


def _freeze(blocks) -> None:
    for block in blocks:
        if block is not None:
            block.setflags(write=False)


def _deg(blocks, deg: int = 0) -> int:
    """The highest degree among ``blocks`` and ``deg``; a zero block (None) has none."""
    for block in blocks:
        if block is not None and len(block) > deg + 1:
            deg = len(block) - 1
    return deg


class Grid:
    """One recursion step: ``cells[i][j]``, block (i, j), is a read-only coefficient stack or None."""

    __slots__ = ("cells", "rsz", "csz", "a", "deg", "piv")

    def __init__(self, cells, rsz, csz, a, deg, piv=None):
        self.cells = cells
        self.rsz = list(rsz)
        self.csz = list(csz)
        self.a = a  # leading block rows, and block cols, belonging to the A side
        self.deg = deg  # the highest degree of a block
        self.piv = piv  # the carried pivots' block columns, a tuple with one per block row, or None

    @classmethod
    def base(cls, cells, rsz, csz, piv=None) -> "Grid":
        """A degree-1 grid, one block row and column per side; its blocks are marked read-only."""
        _freeze(block for row in cells for block in row)
        return cls(cells, rsz, csz, 1, _deg(block for row in cells for block in row), piv)


@lru_cache(maxsize=256)
def eye(k: int) -> np.ndarray:
    """The k-by-k identity as a read-only degree-0 stack, one shared per size."""
    out = np.eye(k, dtype=complex)[None]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def neg_eye(k: int) -> np.ndarray:
    """``-eye(k)``, read-only, one shared per size."""
    out = -eye(k)
    out.setflags(write=False)
    return out


def insert(prev: Grid, at_row: int, at_col: int, size: int, extra, grown: bool) -> Grid:
    """``prev`` with a zero block row at ``at_row`` and a zero block column at ``at_col``.

    Both new blocks are ``size`` wide; old blocks at or past the insertion
    shift by one.  ``extra`` lists (row, col, block) entries, in the new
    positions, written over the result and marked read-only; every other
    new cell stays None.  ``grown`` marks a state step, whose new row and
    column join the state side.
    """
    cells = [row[:at_col] + [None] + row[at_col:] for row in prev.cells]
    cells.insert(at_row, [None] * (len(prev.csz) + 1))
    for rr, cc, val in extra:
        cells[rr][cc] = val
    _freeze(val for _, _, val in extra)
    rsz = prev.rsz[:at_row] + [size] + prev.rsz[at_row:]
    csz = prev.csz[:at_col] + [size] + prev.csz[at_col:]
    piv = _carry(prev, at_row, at_col, size, extra)
    return Grid(cells, rsz, csz, prev.a + grown, _deg((val for _, _, val in extra), prev.deg), piv)


def _carry(prev: Grid, at_row: int, at_col: int, size: int, extra):
    """``prev``'s pivots moved past the inserted column, plus the inserted row's; None if the claim fails.

    The claim: every ``extra`` cell lies in the inserted row or column, so
    striking both out leaves ``prev``, and the inserted row holds exactly
    one cell, in the inserted column, the shared read-only ``eye`` or
    ``neg_eye`` of its size.
    """
    if prev.piv is None or any(rr != at_row and cc != at_col for rr, cc, _ in extra):
        return None
    row = [(cc, val) for rr, cc, val in extra if rr == at_row and val is not None]
    if len(row) != 1 or row[0][0] != at_col or not (row[0][1] is eye(size) or row[0][1] is neg_eye(size)):
        return None
    piv = [c + (c >= at_col) for c in prev.piv]
    piv.insert(at_row, at_col)
    return tuple(piv)


def pivot_indices(g: Grid, transpose: bool = False) -> tuple[np.ndarray, np.ndarray] | None:
    """The (rows, cols) indices of ``g``'s carried pivots in ``assemble(g, transpose)``, or None if it carries none."""
    if g.piv is None:
        return None
    cc = list(accumulate(g.csz, initial=0))
    cols = np.array([c for size, j in zip(g.rsz, g.piv) for c in range(cc[j], cc[j] + size)])
    rows = np.arange(len(cols))
    return (cols, rows) if transpose else (rows, cols)


def assemble(g: Grid, transpose: bool = False) -> np.ndarray:
    """The grid as one stack of its highest block degree; ``transpose`` transposes every coefficient."""
    rc, cc = list(accumulate(g.rsz, initial=0)), list(accumulate(g.csz, initial=0))
    shape = (cc[-1], rc[-1]) if transpose else (rc[-1], cc[-1])
    out = np.zeros((g.deg + 1,) + shape, dtype=complex)
    fill = out.transpose(0, 2, 1) if transpose else out
    for i, row in enumerate(g.cells):
        for j, cell in enumerate(row):
            if cell is not None:
                fill[: len(cell), rc[i] : rc[i + 1], cc[j] : cc[j + 1]] = cell
    return out


def schedule(r, s, base, step, memo: dict) -> list[Grid]:
    """Grids of steps 0..d-2 of one recursion for system ``r`` and decisions ``s``.

    Starts from ``base(r)``, the degree-1 grid.  Step i grows the state side
    while i < d_A - 1 and then the feedthrough side while i < d_D - 1, each
    as ``step(previous_grid, consec, r, i, state)`` with ``consec`` the
    decision at i and ``state`` naming the side.  ``memo`` maps
    ``(r, step, prefix)`` to the grid after the decisions ``prefix`` (the
    base grid under the empty prefix); a grid found there is not built
    again, and every grid built is put there.
    """
    d = r.degree
    if len(s) != d - 1:
        raise DimensionError(f"need {d - 1} decisions for degree {d}, got {len(s)}")
    if d < 2:
        raise DimensionError("the recursions need pencil degree >= 2")
    g = memo.get((r, step, ""))
    if g is None:
        g = memo[(r, step, "")] = base(r)
    grids = []
    for i in range(d - 1):
        key = (r, step, s.decisions[: i + 1])
        if key in memo:
            g = memo[key]
        else:
            consec = s.has_consecution(i)
            if i < r.d_a - 1:
                g = step(g, consec, r, i, True)
            if i < r.d_d - 1:
                g = step(g, consec, r, i, False)
            memo[key] = g
        grids.append(g)
    return grids
