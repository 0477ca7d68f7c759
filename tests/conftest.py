import numpy as np
import pytest

from rosenpencil import MatrixPolynomial, Rsmp


@pytest.fixture
def worked_example() -> Rsmp:
    """The rational problem [[l-2+1/(l-1), 1], [1, 0]] as a system quadruple.

    Its system matrix is [[l-1, 1, 0], [-1, l-2, 1], [0, 1, 0]].
    """
    a = MatrixPolynomial([[[-1.0]], [[1.0]]])
    b = [[-1.0, 0.0]]
    c = [[-1.0], [0.0]]
    d = MatrixPolynomial([[[-2.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    return Rsmp(a, b, c, d)


@pytest.fixture
def overflowing_example() -> Rsmp:
    """A 2x2 system matrix of degree 3 with coefficients near 1e160.

    Its determinant overflows (``eig`` exits 2 on it); the coefficient
    certificate never multiplies two coefficients, so it reads exactly zero
    here.
    """
    big = 1e160
    a = MatrixPolynomial([[[2.0 * big]], [[-1.0 * big]], [[3.0 * big]], [[1.0 * big]]])
    d = MatrixPolynomial([[[1.0 * big]], [[2.0 * big]], [[-2.0 * big]], [[1.0 * big]]])
    return Rsmp(a, [[1.0 * big]], [[-3.0 * big]], d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
