"""Internal block-grid plumbing for the pencil recursions.

A grid is a 2-D list of blocks plus block-size lists and a record of how
many leading block rows/cols belong to the state (A) side.  Each recursion
step is a splice: old blocks land at remapped positions, new rows/cols are
zero except for a handful of prescribed entries.  ``schedule`` is the one
driver of every recursion: it checks the degree and the decision count,
then runs a seed and, per remaining decision, one of three steps (both
sides grow, only the state side, only the feedthrough side).
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


def splice(prev: Grid, row_map, new_rsz, col_map, new_csz, extra, zero, a_r, a_c) -> Grid:
    """Remap ``prev`` into a larger grid.

    row_map/col_map give the new position of each old block row/col; cells
    not covered by the remap or by ``extra`` (a list of (row, col, block)
    entries) are zero blocks from the ``zero(rows, cols)`` factory, or stay
    None (an unallocated zero block) when ``zero`` is None.
    """
    nr, nc = len(new_rsz), len(new_csz)
    cells = [[None] * nc for _ in range(nr)]
    for k, nk in enumerate(row_map):
        old_row = prev.cells[k]
        for j, nj in enumerate(col_map):
            cells[nk][nj] = old_row[j]
    for rr, cc, val in extra:
        cells[rr][cc] = val
    if zero is not None:
        for rr in range(nr):
            row = cells[rr]
            for cc in range(nc):
                if row[cc] is None:
                    row[cc] = zero(new_rsz[rr], new_csz[cc])
    return Grid(cells, new_rsz, new_csz, a_r, a_c)


def schedule(r, s, seed, mixed, state, feed) -> list[Grid]:
    """Grids of steps 0..d-2 of one recursion for system ``r`` and decisions ``s``.

    Step 0 is ``seed(r, consec)``.  Step i >= 1 is ``mixed`` while both
    declared degrees have coefficients left (i < min(d_A, d_D) - 1), then
    ``state`` if d_A >= d_D and ``feed`` otherwise; each is called as
    ``step(previous_grid, consec, r, i)`` with ``consec`` the decision at i.
    """
    d = r.degree
    if len(s) != d - 1:
        raise DimensionError(f"need {d - 1} decisions for degree {d}, got {len(s)}")
    if d < 2:
        raise DimensionError("the recursions need pencil degree >= 2")
    both = min(r.d_a, r.d_d) - 1
    tail = state if r.d_a >= r.d_d else feed
    grids = [seed(r, s.has_consecution(0))]
    for i in range(1, d - 1):
        step = mixed if i < both else tail
        grids.append(step(grids[-1], s.has_consecution(i), r, i))
    return grids
