"""Dense complex matrix polynomials with Horner evaluation, one point or a stack of them.

Matrices are plain ``numpy`` arrays of ``complex128``.  A matrix polynomial
stores its coefficients low degree to high, all with identical dimensions.
The stored degree is declared by the coefficient list: a zero leading
coefficient is legal, so callers can force a degree (the pencil
constructions branch on declared degrees, not effective ones).

Scalar polynomials are represented throughout the package as 1-D complex
arrays of coefficients, low degree to high, mirroring
``numpy.polynomial.polynomial`` conventions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = [
    "MatrixPolynomial",
    "as_matrix",
    "horner_stack",
    "is_regular",
    "scalar_poly_eval",
    "scalar_poly_trim",
    "varying_entries",
]


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


class MatrixPolynomial:
    """A matrix polynomial ``sum_i lambda^i C_i`` with dense complex coefficients.

    Parameters
    ----------
    coeffs : sequence of array_like
        Coefficient matrices, low degree to high.  All must share one shape.
        Alternatively a single 3-D array indexed ``(degree, row, col)``.

    Notes
    -----
    Instances are immutable; the coefficient array is marked read-only.
    ``degree`` reports the declared (stored) bound, ``effective_degree``
    trims trailing zero coefficients.
    """

    # _varying: the entries Horner runs over in eval_stack, found at first use
    # (the coefficients are read-only)
    __slots__ = ("coeffs", "_varying")

    def __init__(self, coeffs):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 3:
            arr = coeffs.astype(complex, copy=True)
        else:
            mats = [as_matrix(c) for c in coeffs]
            if not mats:
                raise DimensionError("a matrix polynomial needs at least one coefficient")
            shape = mats[0].shape
            for k, c in enumerate(mats):
                if c.shape != shape:
                    raise DimensionError(
                        f"coefficient {k} has shape {c.shape}, expected {shape}"
                    )
            arr = np.stack(mats)
        if arr.shape[0] == 0:
            raise DimensionError("a matrix polynomial needs at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_varying", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"MatrixPolynomial is immutable: cannot set {name!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, m) -> "MatrixPolynomial":
        return cls(np.asarray(m, dtype=complex)[None, :, :])

    @classmethod
    def zero(cls, rows: int, cols: int, degree: int = 0) -> "MatrixPolynomial":
        return cls(np.zeros((degree + 1, rows, cols), dtype=complex))

    @classmethod
    def identity(cls, k: int) -> "MatrixPolynomial":
        return cls.constant(np.eye(k))

    # -- basic queries -------------------------------------------------

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def degree(self) -> int:
        """Declared degree bound (trailing zero coefficients count)."""
        return self.coeffs.shape[0] - 1

    def effective_degree(self, tol: float = 0.0) -> int:
        """Largest k whose coefficient has an entry of magnitude > tol."""
        for k in range(self.degree, -1, -1):
            if np.max(np.abs(self.coeffs[k])) > tol:
                return k
        return 0

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient of lambda^k; zero matrix beyond the stored degree."""
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return np.zeros((self.rows, self.cols), dtype=complex)

    def __repr__(self):
        return f"MatrixPolynomial(degree={self.degree}, shape={self.rows}x{self.cols})"

    # -- operations ----------------------------------------------------

    def eval(self, z: complex) -> np.ndarray:
        """Evaluate at z by Horner's rule."""
        return _horner(self.coeffs, z)

    def eval_stack(self, zs) -> np.ndarray:
        """Evaluate at every point of ``zs``: ``horner_stack`` with the varying entries found once."""
        if self._varying is None:
            object.__setattr__(self, "_varying", varying_entries(self.coeffs))
        return horner_stack(self.coeffs, zs, self._varying)

    def norm_inf(self) -> float:
        """Largest entry magnitude over all coefficients."""
        return float(np.max(np.abs(self.coeffs)))


def _horner(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """The ``(degree + 1, rows, cols)`` stack ``coeffs`` at z, by Horner's rule over every entry."""
    acc = np.array(coeffs[-1], dtype=complex)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = z * acc + coeffs[k]
    return acc


def varying_entries(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the entries of a coefficient stack that are not constant, and their coefficients."""
    flat = coeffs.reshape(len(coeffs), -1)
    idx = np.flatnonzero(flat[1:].any(axis=0))
    return idx, flat[:, idx]


def horner_stack(coeffs: np.ndarray, zs, varying: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The ``(degree + 1, rows, cols)`` stack ``coeffs`` at every point of ``zs``: a ``(P, rows, cols)`` stack.

    Horner runs only over the entries that ``varying``, the result of
    ``varying_entries(coeffs)``, names, each step multiplying with the
    point on the left and adding the coefficient, as ``_horner`` does;
    every other entry is its constant coefficient.  So each entry of slice
    ``k`` equals that of the one-point evaluation at ``zs[k]``, except that
    a zero real or imaginary part may differ in sign (``_horner``
    multiplies the point into zero coefficients).  A one-point stack is
    ``_horner`` itself, since numpy's in-place multiply of two one-element
    arrays rounds differently.
    """
    zc = np.asarray(zs, dtype=complex).reshape(-1, 1)
    points = zc.shape[0]
    if points == 1:
        return _horner(coeffs, zc[0, 0])[None]
    rows, cols = coeffs.shape[1:]
    idx, packed = varying
    acc = np.empty((points, idx.size), dtype=complex)
    acc[...] = packed[-1]
    for k in range(len(packed) - 2, -1, -1):
        np.multiply(zc, acc, out=acc)
        acc += packed[k]
    if idx.size == rows * cols:
        return acc.reshape(points, rows, cols)
    out = np.empty((points, rows * cols), dtype=complex)
    out[...] = coeffs[0].reshape(-1)
    out[:, idx] = acc
    return out.reshape(points, rows, cols)


def _column_scales(x: np.ndarray) -> np.ndarray:
    """Per column of ``x`` (its last axis), the power of two that brings the column's largest entry into [1/2, 1).

    A zero column gets 1; a column of subnormal entries at most 2**1021,
    which cannot overflow.
    """
    top = np.abs(x).max(axis=tuple(range(x.ndim - 1)), initial=0.0)
    return np.ldexp(1.0, -np.maximum(np.frexp(top)[1], -1021))


@lru_cache(maxsize=16)
def _regularity_points(trials: int, rng_seed: int) -> tuple[complex, ...]:
    """The points ``is_regular`` samples, in its order, drawn once per process for each count and seed."""
    rng = np.random.default_rng(rng_seed)
    return tuple(2.0 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(trials))


def is_regular(p: MatrixPolynomial, trials: int = 8, rng_seed: int = 0) -> bool:
    """Probabilistic regularity test: does det p(lambda) vanish identically?

    Samples ``trials`` points from the disc of radius 2 and reports True as
    soon as the determinant of p(z), with its columns and then its rows
    scaled by powers of two and the whole then to unit 1-norm, exceeds
    1e-10 (a point where p(z) is zero is skipped).  Each column of the
    coefficients is first divided by the power of two that brings its
    largest entry into [1/2, 1), so that evaluating p(z) cannot overflow
    on large coefficients, and each column of p(z), then each row, is
    divided the same way before the determinant: scaling a row or a
    column by a power of two scales the determinant exactly, so the test
    does not depend on how the rows and columns are scaled (a badly scaled
    column such as ``1 + 1e12 z`` beside ones of order 1, or a row such as
    ``[1e12 z, 1e12]`` above ``[1, 2]``, no longer reads as singular).  For
    a regular polynomial this succeeds with probability one; for det
    identically zero it is False for every seed.
    """
    if p.rows != p.cols:
        raise DimensionError("regularity is defined for square matrix polynomials")
    coeffs = p.coeffs * _column_scales(p.coeffs)
    for z in _regularity_points(max(1, trials), rng_seed):
        m = _horner(coeffs, z)
        m = m * _column_scales(m)
        m = m * _column_scales(m.T)[:, None]
        norm1 = np.max(np.abs(m).sum(axis=0)) if m.size else 1.0
        if norm1 > 0 and abs(np.linalg.det(m / norm1)) > 1e-10:
            return True
    return False


def scalar_poly_eval(coeffs, z: complex) -> complex:
    """Horner evaluation of a scalar polynomial given low-to-high coefficients."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    acc = complex(c[-1])
    for k in range(c.size - 2, -1, -1):
        acc = z * acc + c[k]
    return acc


def scalar_poly_trim(coeffs, rel_tol: float = 0.0) -> np.ndarray:
    """Drop trailing coefficients of magnitude <= rel_tol * max|c|."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        raise DimensionError("scalar polynomial needs at least one coefficient")
    cut = rel_tol * np.max(np.abs(c)) if c.size else 0.0
    k = c.size - 1
    while k > 0 and abs(c[k]) <= cut:
        k -= 1
    return c[: k + 1].copy()
