"""Seeded random instances on the integer grid, for fuzzing and tests.

Coefficients are drawn from a small integer range so that exact (bit-level)
cross-checks between construction routes stay meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .polycore import MatrixPolynomial, is_regular
from .rsmp import Rsmp
from .sigma import SigmaSeq

__all__ = ["random_rsmp", "random_bijection", "equal_decision_pair"]


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


def equal_decision_pair(rng, d: int, tries: int = 5000):
    """Two random bijections sharing a decision string (they may coincide)."""
    first = random_bijection(rng, d)
    want = SigmaSeq.from_bijection(first).decisions
    for _ in range(tries):
        other = random_bijection(rng, d)
        if SigmaSeq.from_bijection(other).decisions == want:
            return first, other
    return first, first
