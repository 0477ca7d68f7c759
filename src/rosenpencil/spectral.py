"""Eigenvalue and pole machinery at desk scale.

Determinants of matrix polynomials are interpolated from point evaluations
(Fourier nodes and holdouts, in one stack); their roots are the eigenvalues
of the companion matrix, found by LAPACK in one call, so nothing iterates
in Python.  Every rank is the count of singular values above a fraction of
the largest, from one batched SVD over a stack of points.  A square
transfer function R is tested against rank p unsampled: det S = det A *
det R gives it full normal rank once S and A pass their rank prechecks.
Eigenvalues of rectangular problems are exposed only as rank-drop tests
at candidate points, since extracting them outright needs staircase
machinery outside this package's scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import Pencil
from .errors import (
    AllSamplesSingular,
    DimensionError,
    HoldoutResidual,
    NonConvergence,
    NumericalFailure,
    PoleError,
    SingularInput,
)
from .polycore import MatrixPolynomial, scalar_poly_eval, scalar_poly_trim
from .rsmp import Rsmp, clear_denominator, transfer_eval_stack

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


def _sample_points(rng: np.random.Generator, count: int) -> list[complex]:
    """``count`` random points with 0.5 <= |z| <= 2, as the rank tests draw them."""
    return [rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()) for _ in range(count)]


# drawn once per process: the rank precheck's six points, and the uniform
# draws det_poly takes (at most three attempts of a phase and two holdouts)
_PRECHECK_POINTS = _sample_points(np.random.default_rng(5), 6)
_DET_DRAWS = np.random.default_rng(7).random(15).tolist()


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
    the transform; two holdout points certify the interpolant and the whole
    procedure retries with fresh nodes up to three times before raising
    HoldoutResidual.  An attempt whose node values, coefficients or holdout
    residual are not finite fails.  An attempt's nodes and holdouts share
    one stacked evaluation and determinant; it takes the uniform draws of
    ``default_rng(7)`` in order, one for its phase and two per holdout it
    checks.  Desk-scale guard: size * degree <= 64.
    """
    p = _as_poly(x)
    if p.rows != p.cols:
        raise DimensionError("determinant needs a square matrix polynomial")
    size, deg = p.rows, p.degree
    bound = size * deg
    if bound > 64:
        raise DimensionError(f"size*degree = {bound} exceeds the desk-scale limit 64")
    npts = bound + 1
    ks = np.arange(npts)
    taken = 0
    for attempt in range(3):
        rho = 1.0 + 0.15 * attempt
        u = _DET_DRAWS[taken : taken + 5]
        phase = 2.0 * np.pi * u[0]
        taken += 1
        zs = rho * np.exp(1j * (2.0 * np.pi * ks / npts + phase))
        zh = [(0.6 + u[1]) * np.exp(2j * np.pi * u[2]), (0.6 + u[3]) * np.exp(2j * np.pi * u[4])]
        # an overflowing or NaN determinant fails the attempt, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            dets = np.linalg.det(p.eval_stack(np.append(zs, zh)))
            vals = dets[:npts]
            coeffs = np.fft.fft(vals) / npts / (rho**ks * np.exp(1j * ks * phase))
            # the constant term is the mean of the node values, so this catches those too
            if not np.all(np.isfinite(coeffs)):
                continue
            scale = max(1.0, float(np.max(np.abs(vals))), float(np.max(np.abs(coeffs))))
            ok = True
            for z, det in zip(zh, dets[npts:]):
                taken += 2
                res = abs(scalar_poly_eval(coeffs, z) - det)
                # written so that a NaN residual fails too
                if not res <= tol * scale * max(1.0, abs(z)) ** bound:
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
    determinant is identically zero (probabilistic precheck), and
    NumericalFailure when it underflows to zero at full sampled rank.
    """
    return _spectrum_and_det(x, tol)[0]


def _spectrum_and_det(x, tol: float) -> tuple[Spectrum, np.ndarray]:
    """``eigenvalues_square`` and the determinant its roots come from, trimmed at 1e-9 relative."""
    p = _as_poly(x)
    if p.rows != p.cols:
        raise DimensionError("square eigenvalue extraction needs a square input")
    # probabilistic precheck via rank sampling: a determinant-magnitude
    # threshold would misjudge larger well-conditioned pencils
    full = any(rank_at(p.eval(z)) == p.rows for z in _PRECHECK_POINTS)
    if not full:
        raise SingularInput("determinant vanishes identically; no discrete spectrum")
    detc = det_poly(p, tol=tol)
    if not np.any(detc):
        # full rank at the samples, so the determinant is not identically zero
        raise NumericalFailure(
            "determinant underflowed to zero at full sampled rank; the input's scale is too small"
        )
    trimmed = scalar_poly_trim(detc, rel_tol=1e-9)
    if trimmed.size <= 1:
        eigs: list[tuple[complex, int]] = []
    else:
        eigs = poly_roots(trimmed)
    return Spectrum(eigenvalues=eigs, normal_rank=p.rows, degree_bound=p.degree), trimmed


def _ranks(stack, tol: float) -> np.ndarray:
    """Numerical rank of each matrix of a ``(P, rows, cols)`` stack, from one batched SVD.

    Counts the singular values above ``tol`` times the largest, so a zero
    matrix has rank 0.  Slice by slice the SVD does not depend on the rest
    of the stack, so neither does the rank.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.size == 0:
        return np.zeros(len(stack), dtype=int)
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(sv > tol * sv[:, :1], axis=1)


def rank_at(m, tol: float = 1e-10) -> int:
    """Numerical rank: the singular values above ``tol`` times the largest."""
    return int(_ranks(np.asarray(m, dtype=complex)[None], tol)[0])


def _as_evaluable(f):
    if callable(f):
        return f
    if isinstance(f, (Pencil, MatrixPolynomial)):
        return f.eval
    raise TypeError(f"not evaluable: {type(f).__name__}")


def _values_off_poles(f, zs):
    """f at the points of ``zs`` that are not poles, in order: one stacked call where f has one."""
    if isinstance(f, Rsmp):
        values, poles = transfer_eval_stack(f, zs)
        return values[~poles]
    if isinstance(f, (Pencil, MatrixPolynomial)):
        return f.eval_stack(zs)
    fn = _as_evaluable(f)
    out = []
    for z in zs:
        try:
            out.append(fn(z))
        except PoleError:
            continue
    return out


def normal_rank(f, trials: int = 12, tol: float = 1e-10, rng_seed: int = 3) -> int:
    """Generic rank: the largest rank at the first ``trials`` random points that are not poles.

    A pole is resampled, up to ten points per trial in all; if no point at
    all can be evaluated, raises AllSamplesSingular.  A matrix polynomial,
    a pencil or an Rsmp (its transfer function) is evaluated on a stack of
    points, any other callable point by point; the points and ranks are
    the same either way.
    """
    rng = np.random.default_rng(rng_seed)
    ranks: list[int] = []
    budget = 10 * trials
    while len(ranks) < trials and budget > 0:
        # the next points of the draw, as many as ranks are still missing
        batch = _sample_points(rng, min(trials - len(ranks), budget))
        budget -= len(batch)
        ranks.extend(_ranks(_values_off_poles(f, batch), tol).tolist())
    if not ranks:
        raise AllSamplesSingular("no sample point of the matrix function could be evaluated")
    return max(ranks)


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
    A candidate is a transfer eigenvalue where the rank of R drops below
    p, its normal rank: S and A have passed their rank prechecks, and
    det S = det A * det R (Rosenbrock 1970), so det R is not identically
    zero; and s R, the cleared polynomial, has passed its own.
    """
    if not r.a_regular:
        raise SingularInput("state polynomial is singular")
    if r.p != r.m:
        raise DimensionError("the discrepancy report needs a square system (p == m)")
    s_spec = eigenvalues_square(r.assemble_s(), tol=tol)
    # det A(lambda) is interpolated once, for the poles and for clearing
    pole_spec, det_a = _spectrum_and_det(r.A, tol)
    cleared = clear_denominator(r, det_a)
    cleared_spec = eigenvalues_square(cleared, tol=tol)

    candidates: list[complex] = []
    for z, _k in s_spec.eigenvalues + pole_spec.eigenvalues:
        if all(abs(z - w) > 1e-8 for w in candidates):
            candidates.append(z)
    # all candidates in one stack: the same verdicts as is_eigenvalue point by point
    values, poles = transfer_eval_stack(r, candidates)
    ranks = np.zeros(len(candidates), dtype=int)
    ranks[~poles] = _ranks(values[~poles], tol=1e-10)
    tests: list[tuple[complex, str]] = []
    for z, pole, rank in zip(candidates, poles, ranks):
        tests.append((z, "pole" if pole else "eigenvalue" if rank < r.p else "regular"))

    return DiscrepancyReport(
        s_eigenvalues=s_spec.eigenvalues,
        pole_points=pole_spec.eigenvalues,
        transfer_tests=tests,
        cleared_eigenvalues=cleared_spec.eigenvalues,
        cleared_minus_s=_multiset_difference(cleared_spec.values(), s_spec.values()),
        s_minus_cleared=_multiset_difference(s_spec.values(), cleared_spec.values()),
    )
