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

The recursion is operation-free: every entry of W is 0, 1, or plus or
minus one coefficient entry, and the decision string alone decides
which goes where.  So W's layout, its size law and its structure claims
depend only on the cell shape (n, p, m, d_A, d_D) and the string, and W
is walked once per process, shape and string, on a labelled probe: a
stand-in for an instance of the shape whose K coefficient entries are
the distinct integers 2..K+1 (``_Probe``, ``_Plan``).  The claims are
taken on the labels, which is stronger than taking them on an
instance's values, where two equal coefficients could stand in for each
other.  An instance's tail is one gather from the vector
[0, 1, c_1..c_K, -c_K..-c_1, -1] of its own coefficients (``_source``),
bit for bit the matrix the recursion would write on it.  The plans live
in an LRU keyed by the shape alone (``_plan``, 1,024 shapes, more than
the acceptance grid's 675); a packed plan holds four small integer
arrays and no float array.  A plan walks a string only when it is first
asked for, so one string costs one walk, never one of every string.  The
probe is walked in the smallest integer type that holds its labels; the
first instance of a shape pays for the probe, the walk and the packing,
and every later instance only for the gathers.
``fiedler_pencil_rect``, ``build_w_sequence`` (each step keeps the
tail's blocks that it or an earlier step inserted, since no step writes
over its predecessor) and the CLI all take W from the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ._gridops import Grid, _cuts, eye, insert, schedule
from .blocks import BlockMatrix, Pencil
from .errors import DimensionError
from .rsmp import Coefficients, Rsmp
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


def _w_place(g: Grid, consec: bool, r: Rsmp, state: bool) -> tuple[int, int, int, int]:
    """Where one side's step of W grows ``g``: its anchor, the new block row and column, and their size."""
    if state:
        a, size = 0, r.n
    else:
        a, size = g.a, (r.p if consec else r.m)
    return (a, a, a + 1, size) if consec else (a, a + 1, a, size)


def _w_step(g: Grid, consec: bool, r: Rsmp, i: int, state: bool) -> Grid:
    """One side's growth: a block row and column carrying -P_{i+1} and an identity.

    The state step (P = A, n-identity) is anchored at block (0, 0), the
    feedthrough step (P = D, p-identity after a consecution, m-identity
    after an inversion) at the first feedthrough block (a, a).  -P_{i+1}
    lands on the anchor and the identity where the new row meets the new
    column: a consecution inserts the row at the anchor and the column
    after it, an inversion the column at the anchor and the row after it
    (``_w_place``).  Both come in the dtype of ``g``'s stack; -P_{i+1} is
    a slice of the instance's kept negation (``Rsmp.negated``).
    """
    dtype = g.stack.dtype
    neg_a, neg_d = r.negated(dtype)
    a, new_r, new_c, size = _w_place(g, consec, r, state)
    extra = [(a, a, (neg_a if state else neg_d)[i + 1 : i + 2], 0), (new_r, new_c, eye(size, dtype), 0)]
    return insert(g, new_r, new_c, size, extra, state)


# ---------------------------------------------------------------------------
# the plan of a cell shape: W walked once, on a labelled probe
# ---------------------------------------------------------------------------


class Tail(NamedTuple):
    """A pencil's tail matrix and its block partition."""

    matrix: np.ndarray
    rsz: list[int]
    csz: list[int]


class _Layout(NamedTuple):
    """The block layout of a W prefix: its count of state blocks, and the step that inserted each block row and column
    (0 for the base grid's, i + 1 for step i's)."""

    a: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _layout_base(r: Rsmp) -> _Layout:
    return _Layout(1, (0, 0), (0, 0))


def _layout_step(g: _Layout, consec: bool, r: Rsmp, i: int, state: bool) -> _Layout:
    _, at_r, at_c, _ = _w_place(g, consec, r, state)
    return _Layout(g.a + state, g.rows[:at_r] + (i + 1,) + g.rows[at_r:], g.cols[:at_c] + (i + 1,) + g.cols[at_c:])


class _Probe:
    """The labelled probe of a cell shape: what the walk of W reads of an instance, with coefficient entries 2..K+1.

    The K entries are numbered A's first, then B's, C's and D's, each
    row-major, in the smallest signed integer type that holds -(K+2)..K+2
    (``dtype``), so the walk copies one or two bytes an entry and its
    tails are the labels themselves.  It carries the dimensions, the
    declared degrees and the arrays ``Rsmp.coefficients`` and
    ``Rsmp.negated`` give, and nothing else: made in a few microseconds,
    where an ``Rsmp`` checks and converts its arrays.
    """

    __slots__ = ("n", "p", "m", "d_a", "d_d", "degree", "top", "dtype", "_coeffs", "_negated")

    def __init__(self, n: int, p: int, m: int, d_a: int, d_d: int):
        self.n, self.p, self.m, self.d_a, self.d_d, self.degree = n, p, m, d_a, d_d, max(d_a, d_d)
        ends = list(accumulate([(d_a + 1) * n * n, n * m, p * n, (d_d + 1) * p * m]))
        self.top = 1 + ends[-1]  # the largest label
        self.dtype = np.min_scalar_type(-self.top - 1)
        labels = np.arange(2, 1 + self.top, dtype=self.dtype)
        negated = -labels
        labels.setflags(write=False)
        negated.setflags(write=False)
        a, b, c, _ = ends
        self._coeffs = Coefficients(labels[:a].reshape(d_a + 1, n, n), labels[a:b].reshape(n, m),
                                    labels[b:c].reshape(p, n), labels[c:].reshape(d_d + 1, p, m))
        self._negated = (negated[:a].reshape(d_a + 1, n, n), negated[c:].reshape(d_d + 1, p, m))

    def coefficients(self, dtype) -> Coefficients:
        return self._coeffs

    def negated(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        return self._negated


def _probe_base(probe: _Probe) -> Grid:
    """The degree-1 grid of W on ``probe``, in its integer type."""
    return _w_base(probe, probe.dtype)


def _source(r: Rsmp, dtype) -> np.ndarray:
    """What a plan's labels read for ``r``: [0, 1, c_1..c_K, -c_K..-c_1, -1] over the K entries of ``coefficients(dtype)``.

    The entries come in the probe's order, so label l + 1 reads c_l and,
    as a negative index, label -(l + 1) reads -c_l, negated as
    ``Rsmp.negated`` negates; 0 and 1 read themselves.
    """
    flat = np.concatenate([x.ravel() for x in r.coefficients(dtype)])
    return np.concatenate(([0.0, 1.0], flat, np.negative(flat[::-1]), [-1.0]))


_BITS = str.maketrans("CI", "01")


class _Plan:
    """W of every decision string of one cell shape, walked once on the shape's labelled probe.

    A string is walked the first time it is asked for, by ``schedule`` over
    one path memo with ``_w_step`` and a check that takes
    ``_step_verdicts`` on each new prefix, so in lexicographic order each
    prefix is built and checked once.  The check keeps, per depth of the
    path the memo holds, whether that prefix and every shorter one meet
    their size law and structure claims.  Of each string the plan keeps
    its tail's block sizes, its two verdicts and, until every string is
    walked, the probe's tail as it stands, whose entries are the labels.
    The last string packs the plan and drops the probe and its memo: over
    all strings, in lexicographic order, the positions of the tails'
    nonzero entries (in each string's own tail) and their labels (0 is
    never one, and 1 is the identity's) become one array each, one more
    holds where each string's entries start, and the block sizes and
    verdicts become one array with a row per string, each array in the
    smallest integer type that holds it.  A packed plan holds no float
    array.
    """

    __slots__ = ("degree", "blocks", "_probe", "_memo", "_open", "_oks", "_meta", "_pos", "_labels", "_cuts")

    def __init__(self, n: int, p: int, m: int, d_a: int, d_d: int):
        self.degree, self.blocks = max(d_a, d_d), d_a + d_d
        self._probe, self._memo, self._open = _Probe(n, p, m, d_a, d_d), {}, {}  # the probe goes once packed
        self._oks = [(True, True)] * self.degree  # the verdicts through each prefix of the memo's path, the base first

    def _index(self, s: SigmaSeq) -> int:
        """The place of string ``s`` among the strings, in lexicographic order."""
        d = self.degree
        if len(s) != d - 1:
            raise DimensionError(f"need {d - 1} decisions for degree {d}, got {len(s)}")
        return int("0" + s.decisions.translate(_BITS), 2)

    def _check(self, g: Grid, r: _Probe, s: SigmaSeq, i: int) -> Grid:
        """Take step i's verdicts on its grid ``g`` into the path's, as the prefix through decision i's, and pass ``g`` on."""
        size_ok, structure_ok = _step_verdicts(g, r, s, i)
        sizes, structure = self._oks[i]
        self._oks[i + 1] = (sizes and size_ok, structure and structure_ok)
        return g

    def _keep(self, s: SigmaSeq) -> tuple[list, np.ndarray]:
        """Walk string ``s`` on the probe and keep its row (block sizes and verdicts) and probe tail; the last string
        packs the plan."""
        probe = self._probe
        if self.degree == 1:
            self._index(s)  # raises unless ``s`` is empty
            g = _probe_base(probe)
        else:
            g = schedule(probe, s, _probe_base, _w_step, self._memo, self._check)[-1]
        entry = self._open[s.decisions] = (g.rsz + g.csz + list(self._oks[-1]), g.stack[0])
        if len(self._open) == 1 << (self.degree - 1):
            self._pack()
        return entry

    def _pack(self) -> None:
        probe = self._probe
        rows, tails = zip(*(self._open[k] for k in sorted(self._open)))
        tails = [x.ravel() for x in tails]
        flat = np.concatenate(tails)
        nonzero = (flat != 0).nonzero()[0]
        sizes = [x.size for x in tails]
        starts = np.array([0, *accumulate(sizes)])
        cuts = nonzero.searchsorted(starts)
        self._pos = (nonzero - starts[:-1].repeat(cuts[1:] - cuts[:-1])).astype(np.min_scalar_type(max(sizes) - 1))
        self._labels = flat[nonzero]
        self._cuts = cuts.astype(np.min_scalar_type(len(nonzero)))
        self._meta = np.array(rows, dtype=np.min_scalar_type(max(probe.n, probe.p, probe.m)))
        self._probe = self._memo = self._open = self._oks = None

    def tail(self, s: SigmaSeq, source: np.ndarray) -> tuple[Tail, bool, bool]:
        """The tail of string ``s`` for the instance of ``source`` (``_source``), in its dtype, and the string's two verdicts.

        The verdicts say whether every prefix meets its size law, and
        whether every prefix meets its structure claims.
        """
        k = self.blocks
        if self._open is not None:
            row, labels = self._open.get(s.decisions) or self._keep(s)
            matrix = source.take(labels)
        else:
            j = self._index(s)
            row = self._meta[j].tolist()
            rows, cols = sum(row[:k]), sum(row[k : 2 * k])
            lo, hi = self._cuts[j : j + 2].tolist()
            matrix = np.zeros(rows * cols, dtype=source.dtype)
            matrix[self._pos[lo:hi]] = source.take(self._labels[lo:hi])
            matrix = matrix.reshape(rows, cols)
        return Tail(matrix, row[:k], row[k : 2 * k]), bool(row[2 * k]), bool(row[2 * k + 1])


@lru_cache(maxsize=1024)
def _plan(n: int, p: int, m: int, d_a: int, d_d: int) -> _Plan:
    """The plan of a cell shape, one per process while the LRU over shapes keeps it."""
    return _Plan(n, p, m, d_a, d_d)


def _plan_of(r: Rsmp) -> _Plan:
    return _plan(r.n, r.p, r.m, r.d_a, r.d_d)


def build_w_sequence(r: Rsmp, s: SigmaSeq) -> list[BlockMatrix]:
    """The recursion's intermediate matrices, steps 0..d-2; the last is the pencil tail.

    Each step inserts block rows/columns into its predecessor, step 0 into
    the degree-1 system matrix: a state row/col pair while the declared
    state degree has coefficients left, then a feedthrough row/col pair
    while the feedthrough degree has.  The decision at each step picks
    which of the two printed layouts is inserted.  No step writes over an
    entry of its predecessor, so each step's matrix is the tail, from the
    plan of the system's shape in complex128, without the blocks that
    later steps inserted; which step inserted each block comes from a walk
    of the block layout alone (``_layout_step``).
    """
    tail, _, _ = _plan_of(r).tail(s, _source(r, complex))
    if r.degree < 2:
        raise DimensionError("the recursions need pencil degree >= 2")
    layout = schedule(r, s, _layout_base, _layout_step, {})[-1]
    rc, cc = _cuts(tail.rsz), _cuts(tail.csz)
    out = []
    for i in range(1, r.degree):
        kr = [b for b, step in enumerate(layout.rows) if step <= i]
        kc = [b for b, step in enumerate(layout.cols) if step <= i]
        rows = np.concatenate([np.arange(rc[b], rc[b + 1]) for b in kr])
        cols = np.concatenate([np.arange(cc[b], cc[b + 1]) for b in kc])
        out.append(BlockMatrix(tail.matrix[np.ix_(rows, cols)], [tail.rsz[b] for b in kr], [tail.csz[b] for b in kc]))
    return out


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
    the pencil is the system matrix itself split into lead and tail.  The
    tail comes from the plan of the system's shape, in complex128.
    """
    if r.degree == 1 and len(s) != 0:
        raise DimensionError("degree-1 systems take an empty decision sequence")
    tail, _, _ = _plan_of(r).tail(s, _source(r, complex))
    return pencil_from_tail(r, tail)


def pencil_from_tail(r: Rsmp, tail: Tail, leads: dict | None = None) -> Pencil:
    """The pencil of a tail from a plan (``_Plan.tail``).

    The lead of such a tail depends only on the system and the tail's
    shape, and comes in the tail's dtype (complex128 for a complex
    system).  A caller that builds many pencils of one system passes one
    ``leads`` dict for all of them; it keeps one read-only lead per shape
    and dtype.
    """
    matrix = tail.matrix
    dtype = np.result_type(matrix, r.dtype)
    key = (matrix.shape, dtype)
    lead = None if leads is None else leads.get(key)
    if lead is None:
        lead = _rect_lead(r, tail.rsz, dtype)
        if leads is not None:
            lead.setflags(write=False)
            leads[key] = lead
    return Pencil(lead, matrix, tail.rsz, tail.csz)


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
    claim that fails settles the verdict.  A block equals its ``want``
    when their bytes do, which on the probe's integer labels is equality
    and on any grid is equality bit for bit.
    """
    w, rc, cc = g.stack[0], g.rc, g.cc
    size_ok = w.shape == expected_size(r.n, r.p, r.m, r.d_a, r.d_d, s, i)
    for _, _, bi, bj, shape, want in _claims(i, r, s, len(rc) - 1, w.dtype):
        block = w[rc[bi - 1] : rc[bi], cc[bj - 1] : cc[bj]]
        if block.shape != shape or (np.count_nonzero(block) if want is None else block.tobytes() != want.tobytes()):
            return size_ok, False
    return size_ok, True
