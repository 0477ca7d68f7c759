"""Block-partitioned matrices, pencils, and block matrix polynomials.

Every matrix produced by the pencil constructions carries its block
partition, so sub-block addressing stays index-arithmetic free.  Block
selectors are 1-based to match the conventions used when the recursions
are written out by hand.  A matrix or pencil keeps a float64 array as
float64, which a real instance's walk builds, and holds anything else as
complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .polycore import MatrixPolynomial

__all__ = ["BlockMatrix", "Pencil", "PolyBlockMatrix"]


def _as_data(x) -> np.ndarray:
    """``x`` itself if it is a float64 array, else ``x`` as a complex128 array."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=complex)


def _cuts(sizes) -> tuple[int, ...]:
    out = [0]
    for s in sizes:
        if s < 0:
            raise DimensionError("block sizes must be nonnegative")
        out.append(out[-1] + int(s))
    return tuple(out)


class BlockMatrix:
    """A dense float64 or complex matrix with row/column block-partition boundaries."""

    __slots__ = ("data", "row_sizes", "col_sizes", "row_cuts", "col_cuts")

    def __init__(self, data, row_sizes, col_sizes):
        data = _as_data(data)
        row_sizes = tuple(int(s) for s in row_sizes)
        col_sizes = tuple(int(s) for s in col_sizes)
        if data.shape != (sum(row_sizes), sum(col_sizes)):
            raise DimensionError(
                f"partition {row_sizes}x{col_sizes} does not tile a {data.shape} matrix"
            )
        self.data = data
        self.row_sizes = row_sizes
        self.col_sizes = col_sizes
        self.row_cuts = _cuts(row_sizes)
        self.col_cuts = _cuts(col_sizes)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def nblock_rows(self) -> int:
        return len(self.row_sizes)

    @property
    def nblock_cols(self) -> int:
        return len(self.col_sizes)

    def block(self, i: int, j: int) -> np.ndarray:
        """Sub-block at 1-based block position (i, j)."""
        return self.sub(i, i, j, j)

    def sub(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        """Dense slice spanning block rows i0..i1 and block cols j0..j1 (1-based, inclusive)."""
        if not (1 <= i0 <= i1 <= self.nblock_rows and 1 <= j0 <= j1 <= self.nblock_cols):
            raise DimensionError(
                f"block range ({i0}:{i1},{j0}:{j1}) out of bounds for "
                f"{self.nblock_rows}x{self.nblock_cols} blocks"
            )
        return self.data[
            self.row_cuts[i0 - 1] : self.row_cuts[i1], self.col_cuts[j0 - 1] : self.col_cuts[j1]
        ]

    def __repr__(self):
        return f"BlockMatrix({self.shape[0]}x{self.shape[1]}, blocks={self.row_sizes}x{self.col_sizes})"


@dataclass(frozen=True)
class Pencil:
    """The linear matrix polynomial ``lambda*lead - tail``, possibly rectangular."""

    lead: np.ndarray
    tail: np.ndarray
    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        lead = _as_data(self.lead)
        tail = _as_data(self.tail)
        if lead.shape != tail.shape:
            raise DimensionError("lead and tail must have identical dimensions")
        if lead.shape != (sum(self.row_sizes), sum(self.col_sizes)):
            raise DimensionError("partition does not tile the pencil")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "row_sizes", tuple(map(int, self.row_sizes)))
        object.__setattr__(self, "col_sizes", tuple(map(int, self.col_sizes)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.lead.shape

    def eval(self, z: complex) -> np.ndarray:
        return z * self.lead - self.tail

    def eval_stack(self, zs) -> np.ndarray:
        """``(P, rows, cols)`` stack of ``eval`` at every point of ``zs``, bit for bit."""
        zc = np.asarray(zs, dtype=complex).reshape(-1, 1, 1)
        return zc * self.lead - self.tail

    def as_matrix_polynomial(self) -> MatrixPolynomial:
        return MatrixPolynomial(np.stack([-self.tail, self.lead]))

    def __repr__(self):
        return f"Pencil({self.shape[0]}x{self.shape[1]}, blocks={self.row_sizes}x{self.col_sizes})"


class PolyBlockMatrix:
    """A matrix polynomial whose coefficients share one block partition."""

    __slots__ = ("poly", "row_sizes", "col_sizes", "row_cuts", "col_cuts")

    def __init__(self, poly: MatrixPolynomial, row_sizes, col_sizes):
        row_sizes = tuple(int(s) for s in row_sizes)
        col_sizes = tuple(int(s) for s in col_sizes)
        if poly.shape != (sum(row_sizes), sum(col_sizes)):
            raise DimensionError("partition does not tile the polynomial")
        self.poly = poly
        self.row_sizes = row_sizes
        self.col_sizes = col_sizes
        self.row_cuts = _cuts(row_sizes)
        self.col_cuts = _cuts(col_sizes)

    @property
    def shape(self) -> tuple[int, int]:
        return self.poly.shape

    @property
    def degree(self) -> int:
        return self.poly.degree

    def eval(self, z: complex) -> np.ndarray:
        return self.poly.eval(z)

    def eval_stack(self, zs) -> np.ndarray:
        return self.poly.eval_stack(zs)

    def block(self, i: int, j: int) -> MatrixPolynomial:
        """Sub-polynomial at 1-based block position (i, j), trailing zeros trimmed."""
        r0, r1 = self.row_cuts[i - 1], self.row_cuts[i]
        c0, c1 = self.col_cuts[j - 1], self.col_cuts[j]
        sub = self.poly.coeffs[:, r0:r1, c0:c1]
        top = self.poly.degree
        while top > 0 and not np.any(sub[top]):
            top -= 1
        return MatrixPolynomial(sub[: top + 1].copy())

    def __repr__(self):
        return (
            f"PolyBlockMatrix(degree={self.degree}, {self.shape[0]}x{self.shape[1]}, "
            f"blocks={self.row_sizes}x{self.col_sizes})"
        )
