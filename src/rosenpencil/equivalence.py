"""Unimodular witnesses that certify Fiedler pencils as linearizations.

A companion recursion produces, step by step, the left witness sequence N
of block matrix polynomials.  The right witness sequence H is the same
recursion run on the transposed system (A^T, -C^T, -B^T, D^T) under the
flipped decisions (C and I swapped), each element transposed: the
transpose relation between Fiedler pencils of P and P^T.  One walk
(``_walk``) grows N and H together for every caller.  The final
elements U and V satisfy, for the pencil L of the same decision sequence,

    U(z) L(z) V(z) = [[I, 0, 0, 0], [0, A(z), 0, -B], [0, 0, I, 0], [0, C, 0, D(z)]]

with the identity paddings sized (d_A - 1)n and p*c0 + m*i0 (counts over
the decisions that grew the feedthrough side).  All witnesses are
unimodular with determinant +-1.  Verification is a certificate on
coefficient stacks: U L V is formed coefficient by coefficient, and the
residual is the largest ratio of |U L V - T| to the componentwise scale
|U| |L| |V| (Oettli-Prager).  The pencils and witnesses are
operation-free (every entry is 0, +-1 or a coefficient entry), and on
them the difference comes out exactly zero; then every ratio is 0/0,
read as 0, and the scale is formed only if a bound from the largest
entries of |U|, |L| and |V| cannot prove it finite (``_certify``).  The
target is one coefficient stack per pencil shape, subtracted at once.  The
products are formed in the dtype of the stacks certified: the CLI walks
a real system's recursions, so its grids, witnesses and pencil, in
float64 and a complex one's in complex128, while the public builders
walk in complex128 and ``verify_theorem`` hands their real parts over
when none has an imaginary part.  Near the float maximum each factor is
scaled by a power of two of its own first.

Each recursion step adds one block row that holds only a constant +-I,
so det N = +-det of the previous step's N: unimodularity is a fact about
the decision prefix.  The grids carry these pivots (``_gridops``), and
the claim is checked once per prefix as the prefix's grid is built.  The
CLI trusts a witness only by identity: U must be the very read-only stack
of its grid, V the read-only transposed copy its grid keeps; then det is
+-1 with nothing computed, and no entry exceeds one bound per instance
(``_Samples.bound``), so none is scanned.  Every other witness
(``verify_theorem``'s, or a stack changed after the grid was built) gets an exact
Laplace expansion along the rows with one structural nonzero, found from
its coefficients (``_det_plan``): the recursion's witnesses leave nothing
else and their pivots are constant +-1, so their determinant is one
exact constant; any other witness has its determinant taken at random
sample points, by the expansion and an LU of what is left.  A changed
stack is expanded from its own coefficients, not read at its grid's
pivots alone: a nonzero written beside a pivot changes det W while the
pivots still read +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from ._gridops import Grid, assemble, eye, insert, neg_eye, owns, schedule
from .blocks import Pencil, PolyBlockMatrix
from .errors import DimensionError
from .polycore import MatrixPolynomial, horner_stack, varying_entries
from .rsmp import Coefficients, Rsmp
from .sigma import SigmaSeq

__all__ = [
    "build_n_sequence",
    "build_h_sequence",
    "unimodular_pair",
    "linearization_with_witnesses",
    "verify_theorem",
    "sample_points",
    "EquivalenceReport",
]


# -- coefficient-stack helpers (internal) ------------------------------------


# A grid's stack is a read-only (degree + 1, rows, cols) coefficient stack,
# low degree to high, in the instance's dtype; one identity per size and
# dtype is shared.
def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Matrix product with polynomial entries (coefficient convolution).

    One batched product forms every coefficient pair p[a] @ q[b]; each
    coefficient of the result, in the pairs' dtype, then sums its pairs in
    the order of a, as a double loop over (a, b) would.
    """
    pairs = p[:, None] @ q[None]
    out = np.zeros((len(p) + len(q) - 1,) + pairs.shape[2:], dtype=pairs.dtype)
    for a in range(len(p)):
        out[a : a + len(q)] += pairs[a]
    return out


# -- recursion steps ---------------------------------------------------------


def _n_base(r: Rsmp, dtype=complex) -> Grid:
    """The degree-1 left witness blkdiag(I_n, I_p) in ``dtype``, which every recursion grows; its two identities are the pivots."""
    return Grid.base(np.eye(r.n + r.p, dtype=dtype)[None], [r.n, r.p], [r.n, r.p], (0, 1))


def _n_step(g: Grid, consec: bool, r: Rsmp, i: int, state: bool) -> Grid:
    """One side's growth: a block row at the anchor and a column at or after it.

    The state step (n-sized, rows [0, a)) is anchored at block (0, 0), the
    feedthrough step (p-sized after a consecution, m-sized after an
    inversion, rows a onward) at (a, a).  N is block diagonal over the
    two sides, so only those rows have a nonzero block in the anchor
    column; they are read as one slice, cut to the column's degree.  A
    consecution puts the new column at the anchor, holding I and lambda
    times the anchor column below it, written one degree up as it stands;
    an inversion puts it after the anchor, holding -I and the anchor
    column times the Horner shift P_{i+1} + lambda P_{i+2} + ... of the
    side's polynomial P.  Every block comes in the dtype of ``g``'s
    stack, so a real grid is grown in real arithmetic.
    """
    dtype = g.stack.dtype
    if state:
        a, hi, size = 0, g.a, r.n
    else:
        a, hi, size = g.a, len(g.rsz), (r.p if consec else r.m)
    col = g.stack[: g.cdeg[a] + 1, g.rc[a] : g.rc[hi], g.cc[a] : g.cc[a + 1]]
    if consec:
        return insert(g, a, a, size, [(a, a, eye(size, dtype), 0), (a + 1, a, col, 1)], state)
    c = r.coefficients(dtype)
    shift = (c.A if state else c.D)[i + 1 :]
    extra = [(a, a + 1, neg_eye(size, dtype), 0), (a + 1, a + 1, _mul(col, shift), 0)]
    return insert(g, a, a + 1, size, extra, state)


# -- sequence builders -------------------------------------------------------


def _grid_to_pbm(g: Grid, transpose: bool = False) -> PolyBlockMatrix:
    """The grid as one block matrix polynomial, or as its transpose with the partitions swapped."""
    rsz, csz = (g.csz, g.rsz) if transpose else (g.rsz, g.csz)
    return PolyBlockMatrix(MatrixPolynomial(assemble(g, transpose)), rsz, csz)


class _Prefix(NamedTuple):
    """One decision prefix: its grids of the witness recursions N and H."""

    n: Grid
    h: Grid


def _base(r: Rsmp, dtype) -> _Prefix:
    """The degree-1 grids of N and H in ``dtype``, H's that of N for the transposed system."""
    return _Prefix(_n_base(r, dtype), _n_base(r.transpose(), dtype))


def _step(g: _Prefix, consec: bool, r: Rsmp, i: int, state: bool) -> _Prefix:
    """One side's growth of N and H together; H is N of the transposed system under the flipped decision."""
    return _Prefix(_n_step(g.n, consec, r, i, state), _n_step(g.h, not consec, r.transpose(), i, state))


def _walk(r: Rsmp, s: SigmaSeq, memo: dict, dtype) -> list[_Prefix]:
    """Every prefix of ``s``, each with its grids in ``dtype``; at degree 1, for the empty string, the base grids alone.

    The one walk of N and H: one ``_gridops.schedule`` call grows them
    together (the CLI walks in the instance's dtype, float64 for a real
    one, and the public builders in complex128).  ``memo`` keeps the path
    of the last string walked, so a string builds only the prefixes past
    the one it shares with that string.
    """
    if r.degree == 1 and not len(s):
        return [_base(r, dtype)]
    return schedule(r, s, partial(_base, dtype=dtype), _step, memo)


def _path(r: Rsmp, s: SigmaSeq) -> list[_Prefix]:
    """The walk of the sequence builders, in complex128 over a fresh memo; they need pencil degree >= 2."""
    if r.degree == 1 and not len(s):
        raise DimensionError("the recursions need pencil degree >= 2")
    return _walk(r, s, {}, complex)


def _pair(last: _Prefix) -> tuple[PolyBlockMatrix, PolyBlockMatrix]:
    """(U, V) from the last prefix of a walk."""
    return _grid_to_pbm(last.n), _grid_to_pbm(last.h, transpose=True)


def build_n_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Left witness sequence; the final element is the left equivalence matrix."""
    return [_grid_to_pbm(g.n) for g in _path(r, s)]


def build_h_sequence(r: Rsmp, s: SigmaSeq) -> list[PolyBlockMatrix]:
    """Right witness sequence; the final element is the right equivalence matrix.

    Each element is the transpose of the left witness of the same step for
    the transposed system under the flipped decisions.
    """
    return [_grid_to_pbm(g.h, transpose=True) for g in _path(r, s)]


def unimodular_pair(r: Rsmp, s: SigmaSeq) -> tuple[PolyBlockMatrix, PolyBlockMatrix]:
    """Final (U, V) witnesses for the decision sequence; needs degree >= 2."""
    return _pair(_path(r, s)[-1])


def _witnesses(gu: Grid, gv: Grid) -> tuple[np.ndarray, np.ndarray, tuple[Grid, Grid]]:
    """U and V as coefficient stacks, from the last grids of the N recursion and of its transposed twin, and those grids.

    U is the grid's own read-only stack, V the read-only transposed copy
    its grid makes once and keeps; ``_certify`` trusts a witness that is
    still that very array (``_gridops.owns``) and checks any other in full.
    """
    return assemble(gu), assemble(gv, transpose=True), (gu, gv)


def linearization_with_witnesses(r: Rsmp, s: SigmaSeq):
    """(L, U, V) for any degree; degree 1 gets identity witnesses."""
    from .fiedler import fiedler_pencil_rect

    pencil = fiedler_pencil_rect(r, s)
    return (pencil, *_pair(_walk(r, s, {}, complex)[-1]))


# -- verification ------------------------------------------------------------


def sample_points(count: int, rng) -> np.ndarray:
    """Random points in the annulus 0.5 <= |z| <= 2 (away from origin and overflow)."""
    radii = rng.uniform(0.5, 2.0, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


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
    """Sample points, drawn at first use, the frame of each pencil shape, and the walk's magnitude bound.

    One set serves every check of one system.  The points feed only the
    determinant fallback of ``_unimodularity``, so they are drawn, once,
    when the first witness that needs them comes, from ``rng``: a
    Generator, or a seed that becomes one only then; strings of one shape
    and dtype share one frame, and witnesses of one dtype one bound.
    """

    def __init__(self, r: Rsmp, points: int, rng):
        if points < 1:
            raise ValueError("the sampled check needs at least one point")
        self._r, self._count, self._rng = r, points, rng
        self._frames: dict[tuple, _Frame] = {}
        self._bounds: dict[np.dtype, float] = {}

    @cached_property
    def points(self) -> np.ndarray:
        """The sample points, drawn from the rng at first use."""
        return sample_points(self._count, np.random.default_rng(self._rng))

    def frame(self, alpha_prime: int, alpha: int, dtype) -> "_Frame":
        """The frame of the pencil shape with these paddings, in ``dtype``, built at first use."""
        key = (alpha_prime, alpha, dtype)
        if key not in self._frames:
            self._frames[key] = _Frame(self._r, alpha_prime, alpha, dtype)
        return self._frames[key]

    def bound(self, dtype) -> float:
        """max(1, |entry|) over ``coefficients(dtype)`` of the system and of its transpose, found once per dtype; NaN if an entry is NaN.

        These are the arrays the walks copy from: every entry of a walk's
        grid is 0, +-1 or a copy of one of their entries, so no entry of a
        witness the walk made exceeds the bound.
        """
        key = np.dtype(dtype)
        if key not in self._bounds:
            arrays = (*self._r.coefficients(key), *self._r.transpose().coefficients(key))
            self._bounds[key] = float(np.max([1.0] + [np.abs(x).max() for x in arrays]))
        return self._bounds[key]


def _add_eye(m: np.ndarray, row: int, col: int, size: int) -> None:
    """Add a size-by-size identity at (row, col) of the matrix, in place."""
    idx = np.arange(size)
    m[row + idx, col + idx] += 1.0


class _Frame:
    """The four-block target of one pencil shape, as one coefficient stack.

    ``target`` is T(lambda) as a read-only ``(degree + 1, rows, cols)``
    stack in ``dtype``, that of the stacks the certificate multiplies: the
    identity paddings, -B and C at degree 0, the coefficients of A in the
    state rows and columns and those of D in the feedthrough ones.  Its
    blocks do not overlap, so one subtraction of the stack gives, bit for
    bit, what one subtraction per block gives (x - 0 is x).  It is cast
    from the parsed arrays (their real parts for a real system), not taken
    from ``Rsmp.coefficients``, the copy the recursions read: so a defect
    in that copy moves the pencil and the witnesses but not the target
    they must reach.  ``rcuts`` and ``ccuts`` hold the block offsets.
    """

    def __init__(self, r: Rsmp, alpha_prime: int, alpha: int, dtype):
        parsed = (r.A.coeffs, r.B, r.C, r.D.coeffs)
        c = Coefficients(*(np.asarray(x.real if r.real else x, dtype=dtype) for x in parsed))
        n, p, m = r.n, r.p, r.m
        self.rows = alpha_prime + n + alpha + p
        self.cols = alpha_prime + n + alpha + m
        self.rcuts = rcuts = np.cumsum([0, alpha_prime, n, alpha, p])
        self.ccuts = ccuts = np.cumsum([0, alpha_prime, n, alpha, m])
        state = slice(alpha_prime, alpha_prime + n)
        feed_rows, feed_cols = slice(rcuts[3], None), slice(ccuts[3], None)
        t = np.zeros((r.degree + 1, self.rows, self.cols), dtype=dtype)
        _add_eye(t[0], 0, 0, alpha_prime)
        t[0, state, feed_cols] = -c.B
        _add_eye(t[0], rcuts[2], ccuts[2], alpha)
        t[0, feed_rows, state] = c.C
        t[: len(c.A), state, state] = c.A
        t[: len(c.D), feed_rows, feed_cols] = c.D
        t.setflags(write=False)
        self.target = t


@dataclass
class EquivalenceReport:
    """Residuals of the equivalence certificate and the witnesses' determinants.

    ``max_residual`` is the largest componentwise ratio |U L V - T| /
    (|U| |L| |V|) over every coefficient and entry; ``corollary_residual``
    is the same number, since the corollary's form is the same identity
    with rows and columns permuted.  ``block_residuals`` maps 1-based
    positions of the four-block target partition (state padding, state,
    feedthrough padding, feedthrough) to their largest ratio;
    ``verify_theorem`` fills it, and the CLI, whose records do not carry
    it, leaves it empty.  A figure that is not finite (overflow, NaN) fails
    the verdict whatever the tolerance.
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
        return all(math.isfinite(x) and x <= self.tol for x in figures)


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
    """Certify that U L V equals the padded system matrix, coefficient by coefficient.

    U L V is formed as a coefficient stack, and the four-block target T
    is subtracted at each degree (identity paddings, -B and C at degree 0,
    the coefficients of A and D in their blocks).  The residual is the
    largest ratio |U L V - T| / (|U| |L| |V|) over every coefficient and
    entry (Oettli-Prager), with 0/0 read as 0 and a nonzero over a zero
    scale as infinite; when a product or scale entry is not finite, no
    residual can be certified and every figure is infinite.  The scale
    is formed from the absolute values only when the difference is not
    exactly zero or cannot be shown to stay finite; an exactly zero
    difference under a provably finite scale reads 0 (see ``_certify``).
    The corollary's residual is the same number.  The products are formed
    in float64 when neither the system nor the pencil nor a witness has
    an imaginary part (the pencil and witnesses go to the check as
    float64 copies of their real parts), else in complex128; near the
    float maximum each factor is scaled by a power of two of its own first.
    Unimodularity: each witness is expanded exactly along its rows with
    one structural nonzero (one plan per witness, from its coefficients'
    nonzero pattern, since these witnesses carry no pivots); when
    nothing is left and no pivot varies with lambda, det is the constant
    product of the pivots, otherwise the determinants are taken at
    ``points`` random points drawn from ``rng``, with only the rows and
    columns left over going through LU.  The report carries the worst
    residual of every block of the four-block target as well, which only
    this entry point computes.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    samples = _Samples(r, points, rng)
    uc, vc = u.poly.coeffs, v.poly.coeffs
    if r.real and not any(x.imag.any() for x in (uc, vc, pencil.lead, pencil.tail)):
        uc, vc, lead, tail = (np.ascontiguousarray(x.real) for x in (uc, vc, pencil.lead, pencil.tail))
        pencil = Pencil(lead, tail, pencil.row_sizes, pencil.col_sizes)
    return _certify(r, s, pencil, uc, vc, samples, tol, blocks=True)


# An entry of |U|, |L| or |V| above 2**_TOP_EXP scales that factor down (see
# ``_certify``): the scale |U| |L| |V| adds up terms that cancel in U L V, so
# near the float maximum it overflows while the product does not.
_TOP_EXP = 1000
# The scale is skipped on an exactly zero difference only when its entries
# are provably below 2**(1024 - _SCALE_MARGIN): the margin absorbs rounding.
_SCALE_MARGIN = 2


def _top(x: np.ndarray) -> float:
    """The largest magnitude of an entry of ``x`` (NaN if there is one)."""
    return float(np.abs(x).max())


def _down_shift(top: float) -> int:
    """The least s >= 0 for which 2**-s brings ``top``, a largest magnitude, below 2**_TOP_EXP; 0 if it is not finite."""
    return max(0, math.frexp(top)[1] - _TOP_EXP) if math.isfinite(top) else 0


def _scale_is_finite(tops: list[float], shifts: list[int], terms: int) -> bool:
    """Whether every entry of the scale |U| |L| |V| is provably finite, from the factors' largest magnitudes alone.

    ``tops`` are the largest magnitudes of |U|, |L| and |V| before the
    shifts 2**-``shifts``; ``terms`` bounds the number of products summed
    into one scale entry.  With e the frexp exponents of the shifted
    maxima (each maximum is below 2**e), every entry of the scale, and of
    the partial product |U| |L|, is below 2**(sum of max(e, 0) +
    bit_length(terms)); the margin covers the rounding of the sums.
    """
    if not all(math.isfinite(t) for t in tops):
        return False
    bits = sum(max(0, math.frexp(t)[1] - k) for t, k in zip(tops, shifts))
    return bits + terms.bit_length() < 1024 - _SCALE_MARGIN


def _certify(
    r: Rsmp,
    s: SigmaSeq,
    pencil: Pencil,
    u: np.ndarray,
    v: np.ndarray,
    samples: _Samples,
    tol: float,
    blocks: bool = False,
    grids: tuple = (None, None),
) -> EquivalenceReport:
    """The check of ``verify_theorem`` on the coefficient stacks ``u`` and ``v`` of the witnesses.

    The frame of the pencil's shape and, if a witness needs them, the
    points come from ``samples``.  The products and the frame take the
    dtype of the witness stacks and the pencil: float64 when all three are
    float64, which only a real system's walk gives and which gives the
    figures of complex128 where U L V is exact.  ``grids`` holds the
    grid each witness came from, or None.  A witness that is still its
    grid's own array (``_gridops.owns``) is the walk's: ``insert`` checked
    its pivots, so its figure is 0.0, and its largest magnitude is taken
    to be ``samples.bound`` when that is below 2**_TOP_EXP.  The bound is
    never below the largest entry, so every shift is 0 as with a scan and
    ``_scale_is_finite`` stays a proof; where it proves less than a scan
    would, the scale is formed and the figure is the same.  Any other
    witness, and the pencil, is scanned (``_top``), and a witness's figure
    is taken by ``_unimodularity``, from the stack alone.  Each
    factor with an entry of magnitude above 2**_TOP_EXP is multiplied by a
    power of two of its own, U by 2**-s_U, L by 2**-s_L and V by 2**-s_V,
    and T by 2**-(s_U + s_L + s_V); this leaves every ratio as it is
    (until a scaled entry falls below the normal range) and keeps the
    scale from overflowing near the float maximum, while a factor of
    modest entries keeps its small terms in the normal range.  T is
    subtracted from U L V in one operation.
    The scale |U| |L| |V| is formed only when it can change a figure: when
    U L V - T is exactly zero (a NaN counts as nonzero) and
    ``_scale_is_finite`` proves every scale entry finite from the shifted
    maxima of the three factors, every ratio is 0/0, read as 0, and the
    scale is skipped: the residual is 0.0, with no array of ratios formed
    unless ``blocks`` needs one; otherwise the scale is formed and divided
    into the difference.  The worst residual per block of the four-block
    target, an entrywise maximum over the coefficients, is taken only when
    ``blocks`` asks for it (``verify_theorem``); the CLI's records do not
    carry it.
    """
    lp = np.empty((2,) + pencil.tail.shape, dtype=np.result_type(pencil.tail, pencil.lead))
    np.negative(pencil.tail, out=lp[0])
    lp[1] = pencil.lead
    f = samples.frame(*_padding_sizes(r, s), np.result_type(u, lp, v))
    rows, cols = f.rows, f.cols
    if u.shape[1:] != (rows, rows) or v.shape[1:] != (cols, cols) or pencil.shape != (rows, cols):
        raise DimensionError(
            f"witness/pencil dimensions {u.shape[1:]}/{pencil.shape}/{v.shape[1:]} do not conform "
            f"to the {rows}x{cols} target"
        )
    gu, gv = grids
    own_u, own_v = owns(gu, u), owns(gv, v, transpose=True)
    bound = samples.bound((u if own_u else v).dtype) if own_u or own_v else math.inf
    bounded = bound < 2.0**_TOP_EXP
    target = f.target
    # an overflowing product is reported as an infinite residual, not as a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u_dev = 0.0 if own_u else _unimodularity(u, samples)
        v_dev = 0.0 if own_v else _unimodularity(v, samples)
        tops = [bound if own and bounded else _top(x) for x, own in ((u, own_u), (lp, False), (v, own_v))]
        shifts = [_down_shift(t) for t in tops]
        if any(shifts):
            u, lp, v = (x * 2.0**-k for x, k in zip((u, lp, v), shifts))
            target = target * 2.0 ** -sum(shifts)
        prod = _mul(_mul(u, lp), v)
        short = r.degree + 1 - len(prod)
        if short > 0:  # witnesses of too low a degree to reach the target's
            prod = np.concatenate([prod, np.zeros((short, rows, cols))])
        prod[: len(target)] -= target  # prod becomes U L V minus the four-block target
        if not prod.any() and _scale_is_finite(tops, shifts, len(u) * len(lp) * len(v) * rows * cols):
            worst = None  # every ratio is 0/0, read as 0
        else:
            scale = _mul(_mul(np.abs(u), np.abs(lp)), np.abs(v))
            if short > 0:
                scale = np.concatenate([scale, np.zeros((short, rows, cols))])
            err = np.abs(prod)
            if np.isfinite(err.max()) and np.isfinite(scale.max()):
                ratio = np.divide(err, scale, out=np.zeros_like(err), where=err > 0)
            else:
                ratio = np.full_like(err, np.inf)
            worst = ratio.max(axis=0)
    residual = 0.0 if worst is None else float(worst.max())
    if blocks and worst is None:
        worst = np.zeros((rows, cols))
    return EquivalenceReport(
        max_residual=residual,
        corollary_residual=residual,
        block_residuals=_block_residuals(worst, f.rcuts, f.ccuts) if blocks else {},
        u_unimodularity=u_dev,
        v_unimodularity=v_dev,
        tol=tol,
    )


def _unimodularity(w: np.ndarray, samples: _Samples) -> float:
    """How far det W(lambda) is from one constant of modulus 1, for the coefficient stack ``w``.

    ``_certify`` calls it only for a witness that is not its grid's own
    array, whatever grid it came from: a stack changed after assembly can
    differ from its grid anywhere, not only at the grid's pivots.
    ``_det_plan`` finds an expansion from the nonzero pattern of ``w``,
    and the figure is the largest of | |det| - 1 | and |det - det_0| over
    the determinants ``_dets`` takes: of the degree-0 coefficient alone
    when the plan leaves no core and no pivot has a nonzero coefficient
    above degree 0, so det is that constant, else at every point of
    ``samples``.
    """
    plan = _det_plan(w)
    if plan.core is None and not w[1:, plan.pivots[0], plan.pivots[1]].any():
        dets = _dets(w[:1], plan)
    else:
        dets = _dets(horner_stack(w, samples.points, varying_entries(w)), plan)
    return float(np.maximum(np.max(np.abs(np.abs(dets) - 1.0)), np.max(np.abs(dets - dets[0]))))


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
