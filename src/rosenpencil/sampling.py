"""Seeded random instances on the integer grid, for fuzzing and tests.

Coefficients are drawn from a small integer range so that exact (bit-level)
cross-checks between construction routes stay meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .polycore import MatrixPolynomial, is_regular
from .rsmp import Rsmp

__all__ = ["random_rsmp", "random_bijection"]


def random_rsmp(rng, n, p, m, d_a, d_d, lo: int = -3, hi: int = 3) -> Rsmp:
    """Random integer-coefficient instance with a regular state polynomial."""

    def draw(rows, cols):
        return rng.integers(lo, hi + 1, size=(rows, cols)).astype(complex)

    for _ in range(200):
        a = MatrixPolynomial([draw(n, n) for _ in range(d_a + 1)])
        if is_regular(a):
            break
    else:
        raise NumericalFailure("could not draw a regular state polynomial")
    d = MatrixPolynomial([draw(p, m) for _ in range(d_d + 1)])
    return Rsmp(a, draw(n, m), draw(p, n), d, check_regular=False)


def random_bijection(rng, d: int) -> tuple[int, ...]:
    """Uniformly random bijection {0..d-1} -> {1..d}."""
    return tuple(int(x) + 1 for x in rng.permutation(d))

