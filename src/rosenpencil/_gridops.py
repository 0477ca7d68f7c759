"""Internal block-grid plumbing for the pencil recursions.

A grid is a 2-D list of blocks plus block-size lists and a record of how
many leading block rows/cols belong to the state (A) side.  Each recursion
step is a splice: old blocks land at remapped positions, new rows/cols are
zero except for a handful of prescribed entries.  Zero blocks stay
unallocated (None).  ``schedule`` is the one driver of every recursion: it
checks the degree and the decision count, then grows the degree-1 grid
with a state step per decision while the state degree has coefficients
left, and a feedthrough step while the feedthrough degree has.
"""

from __future__ import annotations

from .errors import DimensionError

__all__ = ["Grid", "splice", "schedule"]


class Grid:
    __slots__ = ("cells", "rsz", "csz", "a_r", "a_c")

    def __init__(self, cells, rsz, csz, a_r, a_c):
        self.cells = cells  # list of lists of blocks (ndarray, MatrixPolynomial or None)
        self.rsz = list(rsz)
        self.csz = list(csz)
        self.a_r = a_r  # leading block rows belonging to the A side
        self.a_c = a_c

    @property
    def nrows(self):
        return len(self.rsz)

    @property
    def ncols(self):
        return len(self.csz)


def splice(prev: Grid, row_map, new_rsz, col_map, new_csz, extra, a_r, a_c) -> Grid:
    """Remap ``prev`` into a larger grid.

    row_map/col_map give the new position of each old block row/col; cells
    not covered by the remap or by ``extra`` (a list of (row, col, block)
    entries) stay None, an unallocated zero block.
    """
    nr, nc = len(new_rsz), len(new_csz)
    cells = [[None] * nc for _ in range(nr)]
    for k, nk in enumerate(row_map):
        old_row = prev.cells[k]
        for j, nj in enumerate(col_map):
            cells[nk][nj] = old_row[j]
    for rr, cc, val in extra:
        cells[rr][cc] = val
    return Grid(cells, new_rsz, new_csz, a_r, a_c)


def schedule(r, s, base, state, feed) -> list[Grid]:
    """Grids of steps 0..d-2 of one recursion for system ``r`` and decisions ``s``.

    Starts from ``base(r)``, the degree-1 grid.  Step i applies ``state``
    while i < d_A - 1 and then ``feed`` while i < d_D - 1; each is called as
    ``step(previous_grid, consec, r, i)`` with ``consec`` the decision at i.
    """
    d = r.degree
    if len(s) != d - 1:
        raise DimensionError(f"need {d - 1} decisions for degree {d}, got {len(s)}")
    if d < 2:
        raise DimensionError("the recursions need pencil degree >= 2")
    g = base(r)
    grids = []
    for i in range(d - 1):
        consec = s.has_consecution(i)
        if i < r.d_a - 1:
            g = state(g, consec, r, i)
        if i < r.d_d - 1:
            g = feed(g, consec, r, i)
        grids.append(g)
    return grids
