"""Eigenvalue and pole machinery at desk scale.

Determinants of matrix polynomials are interpolated from point evaluations
(Fourier nodes, holdout-certified); their roots are the eigenvalues of the
companion matrix, found by LAPACK in one call, so nothing iterates in
Python; ranks come from column-pivoted QR.  Eigenvalues of
rectangular problems are exposed only as rank-drop tests at candidate
points, since extracting them outright needs staircase machinery outside
this package's scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .blocks import Pencil
from .errors import (
    AllSamplesSingular,
    DimensionError,
    HoldoutResidual,
    NonConvergence,
    PoleError,
    SingularInput,
)
from .polycore import MatrixPolynomial, scalar_poly_eval, scalar_poly_trim
from .rsmp import Rsmp, clear_denominator, transfer_eval

__all__ = [
    "Spectrum",
    "det_poly",
    "poly_roots",
    "cluster_roots",
    "eigenvalues_square",
    "rank_at",
    "normal_rank",
    "is_eigenvalue",
    "discrepancy_report",
    "DiscrepancyReport",
]


def _as_poly(x) -> MatrixPolynomial:
    if isinstance(x, Pencil):
        return x.as_matrix_polynomial()
    if isinstance(x, MatrixPolynomial):
        return x
    raise TypeError(f"expected a pencil or matrix polynomial, got {type(x).__name__}")


@dataclass
class Spectrum:
    """Finite eigenvalues with cluster multiplicities, plus rank context."""

    eigenvalues: list[tuple[complex, int]] = field(default_factory=list)
    normal_rank: int = 0
    degree_bound: int = 0

    def values(self) -> list[complex]:
        """Eigenvalues repeated by multiplicity."""
        return [z for z, k in self.eigenvalues for _ in range(k)]


def det_poly(x, tol: float = 1e-8) -> np.ndarray:
    """Coefficients of det P(lambda), low to high, by evaluation/interpolation.

    Evaluates the determinant at size*degree + 1 Fourier nodes and inverts
    the transform; a holdout point certifies the interpolant and the whole
    procedure retries with fresh nodes up to three times before raising
    HoldoutResidual.  An attempt whose node values, coefficients or holdout
    residual are not finite fails.  Desk-scale guard: size * degree <= 64.
    """
    p = _as_poly(x)
    if p.rows != p.cols:
        raise DimensionError("determinant needs a square matrix polynomial")
    size, deg = p.rows, p.degree
    bound = size * deg
    if bound > 64:
        raise DimensionError(f"size*degree = {bound} exceeds the desk-scale limit 64")
    npts = bound + 1
    rng = np.random.default_rng(7)
    for attempt in range(3):
        rho = 1.0 + 0.15 * attempt
        phase = rng.uniform(0.0, 2.0 * np.pi)
        zs = rho * np.exp(1j * (2.0 * np.pi * np.arange(npts) / npts + phase))
        # an overflowing or NaN determinant fails the attempt, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linalg.det(p.eval_stack(zs))
            ks = np.arange(npts)
            coeffs = np.fft.fft(vals) / npts / (rho**ks * np.exp(1j * ks * phase))
            # the constant term is the mean of the node values, so this catches those too
            if not np.all(np.isfinite(coeffs)):
                continue
            scale = max(1.0, float(np.max(np.abs(vals))), float(np.max(np.abs(coeffs))))
            ok = True
            for _ in range(2):
                zh = (0.6 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                res = abs(scalar_poly_eval(coeffs, zh) - np.linalg.det(p.eval(zh)))
                # written so that a NaN residual fails too
                if not res <= tol * scale * max(1.0, abs(zh)) ** bound:
                    ok = False
                    break
        if ok:
            return coeffs
    raise HoldoutResidual("determinant interpolation failed its holdout check")


def poly_roots(coeffs) -> list[tuple[complex, int]]:
    """All complex roots as companion-matrix eigenvalues, clustered.

    The roots are the eigenvalues of the balanced companion matrix
    (``np.roots``, LAPACK ``geev``; Edelman & Murakami, Math. Comp. 64,
    1995), so nothing iterates in Python.  They are grouped into clusters
    of radius 1e-6 whose sizes are the reported multiplicities.  Raises
    NonConvergence if LAPACK's QR iteration does not converge.
    """
    c = scalar_poly_trim(coeffs, rel_tol=1e-12)
    if c.size < 2:
        raise ValueError("root finding needs effective degree >= 1")
    try:
        z = np.roots(c[::-1])
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues: {exc}") from exc
    return cluster_roots(z, radius=1e-6)


def cluster_roots(points, radius: float = 1e-6) -> list[tuple[complex, int]]:
    """Group points into clusters of the given radius; centers are cluster means.

    Points are taken in (real, imag) order, and each joins the first
    cluster whose running mean lies within the radius.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    sums: list[complex] = []
    counts: list[int] = []
    for z in pts[np.lexsort((pts.imag, pts.real))].tolist():
        for j, (total, k) in enumerate(zip(sums, counts)):
            if abs(z - total / k) <= radius:
                sums[j] += z
                counts[j] += 1
                break
        else:
            sums.append(z)
            counts.append(1)
    out = [(total / k, k) for total, k in zip(sums, counts)]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def eigenvalues_square(x, tol: float = 1e-8) -> Spectrum:
    """Finite eigenvalues of a square pencil or matrix polynomial.

    Roots of the interpolated determinant; raises SingularInput when the
    determinant is identically zero (probabilistic precheck).
    """
    p = _as_poly(x)
    if p.rows != p.cols:
        raise DimensionError("square eigenvalue extraction needs a square input")
    # probabilistic precheck via rank sampling: a determinant-magnitude
    # threshold would misjudge larger well-conditioned pencils
    rng = np.random.default_rng(5)
    full = any(
        rank_at(p.eval(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))) == p.rows
        for _ in range(6)
    )
    if not full:
        raise SingularInput("determinant vanishes identically; no discrete spectrum")
    detc = det_poly(p, tol=tol)
    trimmed = scalar_poly_trim(detc, rel_tol=1e-9)
    if trimmed.size <= 1:
        eigs: list[tuple[complex, int]] = []
    else:
        eigs = poly_roots(trimmed)
    return Spectrum(eigenvalues=eigs, normal_rank=p.rows, degree_bound=p.degree)


def rank_at(m, tol: float = 1e-10) -> int:
    """Numerical rank via column-pivoted QR, thresholded against the top pivot."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    r = scipy.linalg.qr(m, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > tol * diag[0]))


def _as_evaluable(f):
    if callable(f):
        return f
    if isinstance(f, (Pencil, MatrixPolynomial)):
        return f.eval
    raise TypeError(f"not evaluable: {type(f).__name__}")


def normal_rank(f, trials: int = 12, tol: float = 1e-10, rng_seed: int = 3) -> int:
    """Generic rank: max of rank_at over random sample points.

    Evaluation failures (poles) are resampled; if no point at all can be
    evaluated, raises AllSamplesSingular.
    """
    fn = _as_evaluable(f)
    rng = np.random.default_rng(rng_seed)
    best = -1
    got_any = False
    budget = 10 * trials
    successes = 0
    while successes < trials and budget > 0:
        budget -= 1
        z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        try:
            val = fn(z)
        except PoleError:
            continue
        got_any = True
        successes += 1
        best = max(best, rank_at(val, tol=tol))
    if not got_any:
        raise AllSamplesSingular("no sample point of the matrix function could be evaluated")
    return best


def is_eigenvalue(f, z0: complex, nr: int, tol: float = 1e-10) -> bool:
    """Rank-drop test at a candidate point; PoleError propagates for poles."""
    fn = _as_evaluable(f)
    return rank_at(fn(z0), tol=tol) < nr


@dataclass
class DiscrepancyReport:
    """Eigenvalues seen through the three routes to the same rational problem.

    The system matrix has its own finite spectrum; the transfer function is
    rank-tested at all candidate points (poles reported distinctly); the
    cleared-denominator polynomial may acquire extra eigenvalues at the
    former poles, listed as the multiset difference.
    """

    s_eigenvalues: list[tuple[complex, int]]
    pole_points: list[tuple[complex, int]]
    transfer_tests: list[tuple[complex, str]]
    cleared_eigenvalues: list[tuple[complex, int]]
    cleared_minus_s: list[complex]
    s_minus_cleared: list[complex]


def _multiset_difference(a: list[complex], b: list[complex], tol: float = 1e-6) -> list[complex]:
    rem = list(b)
    out = []
    for z in a:
        for j, w in enumerate(rem):
            if abs(z - w) <= tol:
                rem.pop(j)
                break
        else:
            out.append(z)
    return out


def discrepancy_report(r: Rsmp, tol: float = 1e-8) -> DiscrepancyReport:
    """Compare system-matrix, transfer-function, and cleared-polynomial spectra.

    Needs a square system (p == m) so that the system matrix and the
    cleared polynomial have determinants, and a regular state polynomial.
    """
    if not r.a_regular:
        raise SingularInput("state polynomial is singular")
    if r.p != r.m:
        raise DimensionError("the discrepancy report needs a square system (p == m)")
    s_spec = eigenvalues_square(r.assemble_s(), tol=tol)
    pole_spec = eigenvalues_square(r.A, tol=tol)
    det_a = scalar_poly_trim(det_poly(r.A, tol=tol), rel_tol=1e-9)
    cleared = clear_denominator(r, det_a)
    cleared_spec = eigenvalues_square(cleared, tol=tol)

    candidates: list[complex] = []
    for z, _k in s_spec.eigenvalues + pole_spec.eigenvalues:
        if all(abs(z - w) > 1e-8 for w in candidates):
            candidates.append(z)
    nr = normal_rank(lambda z: transfer_eval(r, z))
    tests: list[tuple[complex, str]] = []
    for z in candidates:
        try:
            hit = is_eigenvalue(lambda w: transfer_eval(r, w), z, nr)
        except PoleError:
            tests.append((z, "pole"))
            continue
        tests.append((z, "eigenvalue" if hit else "regular"))

    return DiscrepancyReport(
        s_eigenvalues=s_spec.eigenvalues,
        pole_points=pole_spec.eigenvalues,
        transfer_tests=tests,
        cleared_eigenvalues=cleared_spec.eigenvalues,
        cleared_minus_s=_multiset_difference(cleared_spec.values(), s_spec.values()),
        s_minus_cleared=_multiset_difference(s_spec.values(), cleared_spec.values()),
    )
