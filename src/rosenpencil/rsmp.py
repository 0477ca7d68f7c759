"""The Rosenbrock system data model: state/coupling/feedthrough quadruple.

An instance bundles a regular n-by-n state polynomial A, constant coupling
matrices B (n-by-m) and C (p-by-n), and a p-by-m feedthrough polynomial D.
The assembled system matrix polynomial is

    S(lambda) = [[A(lambda), -B], [C, D(lambda)]],

and the transfer function is R(lambda) = D(lambda) + C A(lambda)^{-1} B.
Degrees are declared, not inferred: a zero leading coefficient is legal and
the pencil constructions branch on the declared pair (d_A, d_D).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InterpolationResidual, IrregularWarning, PoleError, SingularInput
from .polycore import MatrixPolynomial, as_matrix, is_regular, scalar_poly_eval, scalar_poly_trim

__all__ = ["Rsmp", "assemble_s", "transfer_eval", "transfer_eval_stack", "clear_denominator"]


class Coefficients(NamedTuple):
    """The coefficient arrays of one instance in one dtype: A and D as ``(degree + 1, rows, cols)`` stacks, B and C as matrices."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


_F64, _C128 = np.dtype(np.float64), np.dtype(np.complex128)


class Rsmp:
    """Rosenbrock system matrix polynomial data, immutable after construction.

    A failed regularity check on the state polynomial is a warning, not an
    error; transfer-function evaluation and pole computations then refuse
    to run.  The dimensions ``n``, ``p``, ``m``, the declared degrees
    ``d_a``, ``d_d`` and the pencil degree ``degree`` are plain attributes,
    read from A and D once, since the recursions read them at every step.
    """

    __slots__ = (
        "A", "B", "C", "D", "n", "p", "m", "d_a", "d_d", "degree", "a_regular", "_real", "_transposed", "_s",
        "_coeffs", "_negated",
    )

    def __init__(self, A: MatrixPolynomial, B, C, D: MatrixPolynomial, check_regular: bool = True):
        B = as_matrix(B)
        C = as_matrix(C)
        if A.rows != A.cols:
            raise DimensionError("state polynomial must be square")
        if A.degree < 1 or D.degree < 1:
            raise DimensionError("declared degrees must be at least 1")
        n = A.rows
        p, m = D.shape
        if B.shape != (n, m):
            raise DimensionError(f"B must be {n}x{m}, got {B.shape}")
        if C.shape != (p, n):
            raise DimensionError(f"C must be {p}x{n}, got {C.shape}")
        B.setflags(write=False)
        C.setflags(write=False)
        a_regular = is_regular(A) if check_regular else True
        fields = {
            "A": A, "B": B, "C": C, "D": D, "n": n, "p": p, "m": m, "d_a": A.degree, "d_d": D.degree,
            "degree": max(A.degree, D.degree), "a_regular": a_regular, "_real": None, "_transposed": None, "_s": None,
            "_coeffs": {}, "_negated": {},
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not a_regular:
            warnings.warn(
                "state polynomial failed the probabilistic regularity check; "
                "transfer-function evaluation is disabled",
                IrregularWarning,
                stacklevel=2,
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"Rsmp is immutable: cannot set {name!r}")

    @property
    def real(self) -> bool:
        """Whether no coefficient of A, B, C or D has an imaginary part; found at first use and kept, as is the transpose's."""
        if self._real is None:
            real = not (self.A.coeffs.imag.any() or self.B.imag.any() or self.C.imag.any() or self.D.coeffs.imag.any())
            object.__setattr__(self, "_real", real)
            if self._transposed is not None:
                object.__setattr__(self._transposed, "_real", real)
        return self._real

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real instance, else complex128: the dtype its pencils and witnesses can be walked in."""
        return _F64 if self.real else _C128

    def coefficients(self, dtype) -> Coefficients:
        """A, B, C and D in ``dtype``, read-only.

        complex128 gives the instance's own arrays; float64, for a real
        instance only, one copy of their real parts, made at first use and
        kept.
        """
        out = self._coeffs.get(dtype)
        if out is None:
            dtype = np.dtype(dtype)
            out = self._coeffs.get(dtype)
        if out is None:
            own = Coefficients(self.A.coeffs, self.B, self.C, self.D.coeffs)
            if dtype == _C128:
                out = own
            elif dtype == _F64 and self.real:
                out = Coefficients(*(np.ascontiguousarray(x.real) for x in own))
                for x in out:
                    x.setflags(write=False)
            else:
                raise ValueError(f"no {dtype} coefficients for this instance")
            self._coeffs[dtype] = out
        return out

    def negated(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """-A and -D of ``coefficients(dtype)``, read-only, made at first use and kept: the blocks the pencil recursion writes and its structure claims read."""
        out = self._negated.get(dtype)
        if out is None:
            c = self.coefficients(dtype)
            out = (-c.A, -c.D)
            for x in out:
                x.setflags(write=False)
            self._negated[dtype] = out
        return out

    def __repr__(self):
        return (
            f"Rsmp(n={self.n}, p={self.p}, m={self.m}, d_A={self.d_a}, d_D={self.d_d})"
        )

    def transpose(self) -> "Rsmp":
        """The system (A^T, -C^T, -B^T, D^T), whose system matrix is S(lambda)^T.

        Built once and kept, since instances are immutable; its own
        transpose is this instance.
        """
        if self._transposed is None:
            t = Rsmp(_transpose(self.A), -self.C.T, -self.B.T, _transpose(self.D), check_regular=False)
            object.__setattr__(t, "a_regular", self.a_regular)
            object.__setattr__(t, "_real", self._real)
            object.__setattr__(t, "_transposed", self)
            object.__setattr__(self, "_transposed", t)
        return self._transposed

    # method forms of the module operations
    def assemble_s(self) -> MatrixPolynomial:
        """``assemble_s(self)``, built once and kept: instances and matrix polynomials are immutable."""
        if self._s is None:
            object.__setattr__(self, "_s", assemble_s(self))
        return self._s

    def transfer_eval(self, z: complex) -> np.ndarray:
        return transfer_eval(self, z)


def _transpose(p: MatrixPolynomial) -> MatrixPolynomial:
    """p(lambda)^T, its coefficients copied back to row-major layout."""
    return MatrixPolynomial(p.coeffs.transpose(0, 2, 1).copy())


def assemble_s(r: Rsmp) -> MatrixPolynomial:
    """Assemble S(lambda) of degree max(d_A, d_D).

    The couplings enter only the constant coefficient, with -B in the upper
    right block (the file format stores B itself; the sign lives here).
    """
    n, p, m = r.n, r.p, r.m
    d = r.degree
    coeffs = np.zeros((d + 1, n + p, n + m), dtype=complex)
    for k in range(d + 1):
        coeffs[k, :n, :n] = r.A.coeff(k)
        coeffs[k, n:, n:] = r.D.coeff(k)
    coeffs[0, :n, n:] = -r.B
    coeffs[0, n:, :n] = r.C
    return MatrixPolynomial(coeffs)


def transfer_eval_stack(r: Rsmp, zs) -> tuple[np.ndarray, np.ndarray]:
    """The transfer function at every point of ``zs``: a ``(P, p, m)`` stack and a pole mask.

    One stacked evaluation of A, one batched SVD of the A(z) for the pole
    test, one stacked solve at the points that pass it, and D(z) + C X.
    A point is a pole when sigma_min(A(z)) <= 1e-12 * max(||A||_inf *
    max(1, |z|)^d_A, sigma_max(A(z))); its slice is NaN.  Slice ``k`` of
    a stack equals slice ``k`` of any other stack holding ``zs[k]``, bit
    for bit, so ``transfer_eval`` is the one-point case.
    """
    if not r.a_regular:
        raise SingularInput("transfer function undefined: state polynomial is singular")
    zs = np.asarray(zs, dtype=complex).ravel()
    az = r.A.eval_stack(zs)
    sv = np.linalg.svd(az, compute_uv=False)
    # reference scale from the coefficients, not A(z) alone: near a pole the
    # whole matrix can be tiny and a relative-to-itself test would never trigger
    scale = np.maximum(r.A.norm_inf() * np.maximum(1.0, np.abs(zs)) ** r.d_a, sv[:, 0])
    poles = sv[:, -1] <= 1e-12 * scale
    values = np.full((zs.size, r.p, r.m), np.nan, dtype=complex)
    ok = ~poles
    if ok.any():
        x = np.linalg.solve(az[ok], np.broadcast_to(r.B, (int(ok.sum()), r.n, r.m)))
        values[ok] = r.D.eval_stack(zs[ok]) + r.C @ x
    return values, poles


def transfer_eval(r: Rsmp, z: complex) -> np.ndarray:
    """The transfer function D(z) + C A(z)^{-1} B at one point; PoleError at a pole.

    The one-point case of ``transfer_eval_stack``, with its pole test.
    """
    values, poles = transfer_eval_stack(r, [z])
    if poles[0]:
        raise PoleError(f"state polynomial is singular at z={z}")
    return values[0]


def clear_denominator(r: Rsmp, s, tol: float = 1e-8) -> MatrixPolynomial:
    """Matrix polynomial s(lambda) * R(lambda), certified by interpolation.

    Samples s(z)R(z) at enough points for the degree bound, interpolates
    entrywise, and validates at two holdout points, drawn after the phase
    and evaluated in one stack with the nodes.  If s does not clear every
    pole the holdout residual is large and InterpolationResidual is raised.
    """
    if not r.a_regular:
        raise SingularInput("transfer function undefined: state polynomial is singular")
    s = scalar_poly_trim(s)
    if np.max(np.abs(s)) == 0.0:
        raise ValueError("clearing polynomial must be nonzero")
    deg_s = s.size - 1
    bound = deg_s + max(r.d_d, (r.n - 1) * r.d_a)
    npts = bound + 1

    # a pole at a node or a holdout fails the attempt; the next one rotates the nodes
    for attempt in range(3):
        rng = np.random.default_rng(1234 + attempt)
        rho = 1.1 + 0.2 * attempt
        phase = rng.uniform(0.0, 2.0 * np.pi)
        zh = [(0.7 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2)]
        zs = np.append(rho * np.exp(1j * (2.0 * np.pi * np.arange(npts) / npts + phase)), zh)
        rz, poles = transfer_eval_stack(r, zs)
        if poles[:npts].any():
            continue
        vals = np.array([scalar_poly_eval(s, z) for z in zs[:npts]])[:, None, None] * rz[:npts]
        spec = np.fft.fft(vals, axis=0) / npts  # nodes carry positive angles
        ks = np.arange(npts)
        coeffs = spec / (rho**ks * np.exp(1j * ks * phase))[:, None, None]
        # relative to the samples alone: an absolute floor would trim the
        # whole polynomial of a small-scale system
        scale = float(np.max(np.abs(vals)))
        # trim trailing numerically-zero coefficient matrices
        top = bound
        while top > 0 and np.max(np.abs(coeffs[top])) <= 1e-9 * scale:
            top -= 1
        result = MatrixPolynomial(coeffs[: top + 1].copy())
        for k, z in enumerate(zh, start=npts):
            if poles[k]:
                break
            want = scalar_poly_eval(s, z) * rz[k]
            got = result.eval(z)
            if np.max(np.abs(want - got)) > tol * scale * max(1.0, abs(z)) ** bound:
                raise InterpolationResidual(
                    "s(lambda)R(lambda) is not a polynomial of the expected degree; "
                    "the clearing polynomial misses a pole"
                )
        else:
            return result
    raise InterpolationResidual("could not find pole-free sample points")
