"""Independent oracles used by the tests.

Exact polynomial arithmetic on Python complex numbers (integer-valued
inputs stay exact) and a cofactor-expansion determinant, kept deliberately
separate from the package's interpolation-based routines; a one-matrix
determinant by expansion along pattern-singleton rows, the reference for
the witness determinants; the four-block target as a coefficient stack
and the componentwise residual of U L V against it by double loops, the
reference for the certificate; the Horner shift and a
double-loop product of coefficient stacks, as references for the witness
recursion; two bijections with one decision string, for the acceptance
suite; QZ on a companion pencil; an Aberth root iteration and a
clustering that recomputes each cluster mean, as references for
``poly_roots`` and ``cluster_roots``; and ``det_poly_pointwise`` and
``clear_denominator_pointwise``, the determinant and the cleared
denominator with each holdout evaluated on its own after its draw, as
references, bit for bit, for the stacked forms; the per-instance walk of
the pencil recursion W with its claims taken on the instance's values,
and the W builders on it, the references for the plan of a cell shape;
the single-recursion walk of N, the reference for the paired walk of N
and H; and the carried pivots of a witness grid as indices of its stack.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize

from rosenpencil import (
    DimensionError,
    HoldoutResidual,
    InterpolationResidual,
    MatrixPolynomial,
    NonConvergence,
    Rsmp,
    SigmaSeq,
    SingularInput,
)
from rosenpencil import equivalence, fiedler
from rosenpencil._gridops import Grid, schedule
from rosenpencil.blocks import BlockMatrix, Pencil
from rosenpencil.polycore import scalar_poly_eval, scalar_poly_trim
from rosenpencil.rsmp import transfer_eval_stack
from rosenpencil.sampling import random_bijection


def poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0j) + (b[i] if i < len(b) else 0j) for i in range(n)]


def poly_scale(a, c):
    return [c * x for x in a]


def entry_polys(mp):
    """Matrix polynomial -> nested list of coefficient lists (low to high)."""
    return [
        [[complex(mp.coeffs[k, i, j]) for k in range(mp.degree + 1)] for j in range(mp.cols)]
        for i in range(mp.rows)
    ]


def det_cofactor(entries):
    """Exact determinant of a matrix of coefficient lists by cofactor expansion.

    Zero entries are skipped, which keeps the expansion tractable on the
    sparse pencil matrices despite the factorial worst case.
    """
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = [0j]
    for j in range(n):
        lead = entries[0][j]
        if all(x == 0 for x in lead):
            continue
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = poly_mul(lead, det_cofactor(minor))
        acc = poly_add(acc, poly_scale(term, (-1.0) ** j))
    return acc


def multisets_match(a, b, tol):
    """Optimal matching of two complex multisets within tol."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    cost = np.abs(np.subtract.outer(np.array(a), np.array(b)))
    ri, ci = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[ri, ci].max()) <= tol


def spread_rsmp(rng, n, p, m, d_a, d_d, decades=4):
    """Random complex instance with entry magnitudes spread over 1e-decades..1e+decades."""

    def draw(rows, cols):
        mag = 10.0 ** rng.uniform(-decades, decades, size=(rows, cols))
        return mag * np.exp(2j * np.pi * rng.uniform(size=(rows, cols)))

    a = MatrixPolynomial([draw(n, n) for _ in range(d_a + 1)])
    d = MatrixPolynomial([draw(p, m) for _ in range(d_d + 1)])
    return Rsmp(a, draw(n, m), draw(p, n), d, check_regular=False)


def horner_shift(p, k):
    """Degree-k tail polynomial ``C_{d-k} + lambda C_{d-k+1} + ... + lambda^k C_d`` of ``p``.

    Satisfies shift(0) = leading coefficient, shift(d) = the polynomial
    itself, and shift(k+1) = lambda*shift(k) + C_{d-k-1}.
    """
    d = p.degree
    if not 0 <= k <= d:
        raise ValueError(f"shift index {k} out of range 0..{d}")
    return MatrixPolynomial(p.coeffs[d - k :])


def poly_matmul(p, q):
    """Product of two coefficient stacks (low degree to high), one matrix product per coefficient pair."""
    out = np.zeros((len(p) + len(q) - 1, p.shape[1], q.shape[2]), dtype=complex)
    for a in range(len(p)):
        for b in range(len(q)):
            out[a + b] += p[a] @ q[b]
    return out


def equal_decision_pair(rng, d: int, tries: int = 5000):
    """Two random bijections sharing a decision string (they may coincide)."""
    first = random_bijection(rng, d)
    want = SigmaSeq.from_bijection(first).decisions
    for _ in range(tries):
        other = random_bijection(rng, d)
        if SigmaSeq.from_bijection(other).decisions == want:
            return first, other
    return first, first


def witness_sizes(n, p, m, da, dd, s, i):
    """Closed-form sizes of the left/right witness matrices at step i."""
    c_i, i_i = s.c_count(0, i), s.i_count(0, i)
    a_part = n + n * c_i + n * i_i
    if da >= dd:
        if i <= dd - 2:
            row_pad = p + p * c_i + m * i_i
            col_pad = m + p * c_i + m * i_i
        else:
            c0, i0 = s.c_count(0, dd - 2), s.i_count(0, dd - 2)
            row_pad = p + p * c0 + m * i0
            col_pad = m + p * c0 + m * i0
        return a_part + row_pad, a_part + col_pad
    if i <= da - 2:
        return a_part + (p + p * c_i + m * i_i), a_part + (m + p * c_i + m * i_i)
    return da * n + (p + p * c_i + m * i_i), da * n + (m + p * c_i + m * i_i)


def target_at(r, alpha_prime, alpha, z):
    """The four-block padded system matrix at one point z."""
    n, p, m = r.n, r.p, r.m
    rows = alpha_prime + n + alpha + p
    cols = alpha_prime + n + alpha + m
    t = np.zeros((rows, cols), dtype=complex)
    t[:alpha_prime, :alpha_prime] = np.eye(alpha_prime)
    t[alpha_prime : alpha_prime + n, alpha_prime : alpha_prime + n] = r.A.eval(z)
    t[alpha_prime : alpha_prime + n, alpha_prime + n + alpha :] = -r.B
    t[alpha_prime + n : alpha_prime + n + alpha, alpha_prime + n : alpha_prime + n + alpha] = np.eye(alpha)
    t[alpha_prime + n + alpha :, alpha_prime : alpha_prime + n] = r.C
    t[alpha_prime + n + alpha :, alpha_prime + n + alpha :] = r.D.eval(z)
    return t


def target_coeffs(r, alpha_prime, alpha):
    """The four-block padded system matrix as a ``(degree + 1, rows, cols)`` coefficient stack."""
    n = r.n
    t = np.zeros((r.degree + 1,) + target_at(r, alpha_prime, alpha, 0.0).shape, dtype=complex)
    t[0] = target_at(r, alpha_prime, alpha, 0.0)
    for k in range(1, r.degree + 1):
        t[k, alpha_prime : alpha_prime + n, alpha_prime : alpha_prime + n] = r.A.coeff(k)
        t[k, alpha_prime + n + alpha :, alpha_prime + n + alpha :] = r.D.coeff(k)
    return t


def certificate_residual(r, s, pencil, u, v):
    """Reference for the residual of ``verify_theorem``: max |U L V - T| / (|U| |L| |V|) by double loops.

    Products go through ``poly_matmul``, (U L) V as the package forms them;
    0/0 reads 0, a nonzero over a zero scale and any non-finite product or
    scale entry read infinite.
    """
    from rosenpencil.equivalence import _padding_sizes

    l = np.stack([-pencil.tail, pencil.lead])
    u, v = u.poly.coeffs, v.poly.coeffs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prod = poly_matmul(poly_matmul(u, l), v)
        scale = poly_matmul(poly_matmul(np.abs(u), np.abs(l)), np.abs(v)).real
        target = target_coeffs(r, *_padding_sizes(r, s))
        size = max(len(prod), len(target))
        diff = np.zeros((size,) + prod.shape[1:], dtype=complex)
        diff[: len(prod)] += prod
        diff[: len(target)] -= target
        err = np.abs(diff)
        if not (np.all(np.isfinite(err)) and np.all(np.isfinite(scale))):
            return np.inf
        worst = 0.0
        for k, i, j in zip(*np.nonzero(err)):
            ratio = err[k, i, j] / scale[k, i, j] if k < len(scale) and scale[k, i, j] > 0 else np.inf
            worst = max(worst, float(ratio))
        return worst


def det_singleton_rows(m, pattern):
    """Determinant of one matrix by Laplace expansion along rows with one nonzero in ``pattern``.

    Expands along the first row of the pattern with exactly one nonzero,
    drops that row and the entry's column, and repeats; the matrix left,
    if any, goes to ``np.linalg.det``.
    """
    hits = np.flatnonzero(pattern.sum(axis=1) == 1)
    if hits.size == 0:
        return np.linalg.det(m)
    i = int(hits[0])
    j = int(np.flatnonzero(pattern[i])[0])
    rows = np.arange(len(m)) != i
    cols = np.arange(len(m)) != j
    minor = det_singleton_rows(m[np.ix_(rows, cols)], pattern[np.ix_(rows, cols)])
    return (-1) ** (i + j) * m[i, j] * minor


def verify_theorem_pointwise(r, s, pencil, u, v, points=20, tol=1e-8, rng=None):
    """Reference for ``verify_theorem``: one sample point at a time, scalar evaluation.

    Draws the same points from ``rng`` and returns the same report fields;
    the batched engine must agree with it up to the rounding of its norms.
    Each determinant is ``det_singleton_rows`` on the nonzero pattern of the
    witness's coefficients.
    """
    from rosenpencil.equivalence import EquivalenceReport, _padding_sizes, sample_points

    rng = np.random.default_rng(0) if rng is None else rng
    alpha_prime, alpha = _padding_sizes(r, s)
    n, p, m = r.n, r.p, r.m
    rcuts = np.cumsum([0, alpha_prime, n, alpha, p])
    ccuts = np.cumsum([0, alpha_prime, n, alpha, m])
    row_perm = np.r_[0:alpha_prime, alpha_prime : alpha_prime + n,
                     rcuts[3] : rcuts[4], rcuts[2] : rcuts[3]].astype(int)
    col_perm = np.r_[0:alpha_prime, alpha_prime : alpha_prime + n,
                     ccuts[3] : ccuts[4], ccuts[2] : ccuts[3]].astype(int)

    zs = sample_points(points, rng)
    max_res = 0.0
    cor_res = 0.0
    block_res = {}
    u_dets = []
    v_dets = []
    s_poly = r.assemble_s()
    u_pattern, v_pattern = u.poly.coeffs.any(axis=0), v.poly.coeffs.any(axis=0)
    for z in zs:
        uz = u.eval(z)
        vz = v.eval(z)
        lz = pencil.eval(z)
        prod = uz @ lz @ vz
        t = target_at(r, alpha_prime, alpha, z)
        scale = max(1.0, float(np.linalg.norm(uz) * np.linalg.norm(lz) * np.linalg.norm(vz)))
        diff = prod - t
        max_res = max(max_res, float(np.linalg.norm(diff)) / scale)
        for bi in range(4):
            for bj in range(4):
                sub = diff[rcuts[bi] : rcuts[bi + 1], ccuts[bj] : ccuts[bj + 1]]
                if sub.size:
                    key = (bi + 1, bj + 1)
                    block_res[key] = max(block_res.get(key, 0.0), float(np.max(np.abs(sub))) / scale)
        cor = prod[np.ix_(row_perm, col_perm)]
        cor_target = np.zeros_like(cor)
        cor_target[:alpha_prime, :alpha_prime] = np.eye(alpha_prime)
        cor_target[alpha_prime : alpha_prime + n + p, alpha_prime : alpha_prime + n + m] = s_poly.eval(z)
        cor_target[alpha_prime + n + p :, alpha_prime + n + m :] = np.eye(alpha)
        cor_res = max(cor_res, float(np.linalg.norm(cor - cor_target)) / scale)
        u_dets.append(det_singleton_rows(uz, u_pattern))
        v_dets.append(det_singleton_rows(vz, v_pattern))

    def _dev(dets):
        dets = np.asarray(dets)
        return float(max(np.max(np.abs(np.abs(dets) - 1.0)), np.max(np.abs(dets - dets[0]))))

    return EquivalenceReport(
        max_residual=max_res,
        corollary_residual=cor_res,
        block_residuals=block_res,
        u_unimodularity=_dev(u_dets),
        v_unimodularity=_dev(v_dets),
        tol=tol,
    )


def poly_roots_aberth(coeffs, max_sweeps: int = 500, rng_seed: int = 11) -> list[tuple[complex, int]]:
    """All complex roots by simultaneous (Aberth-style) iteration, clustered.

    Starts from a randomly perturbed disc of initial guesses, applies the
    coupled Newton correction until every residual |p(z)| clears
    1e-12 times its local scale, and groups the converged points into
    clusters of radius 1e-6 whose sizes are the reported multiplicities.
    """
    c = scalar_poly_trim(coeffs, rel_tol=1e-12)
    k = c.size - 1
    if k < 1:
        raise ValueError("root finding needs effective degree >= 1")
    c = c / c[-1]
    dc = c[1:] * np.arange(1, k + 1)
    rng = np.random.default_rng(rng_seed)
    radius = 1.0 + float(np.max(np.abs(c[:-1])))  # Cauchy bound on root moduli
    angles = 2.0 * np.pi * (np.arange(k) + 0.35 + 0.1 * rng.uniform(size=k)) / k
    z = 0.7 * radius * np.exp(1j * angles)
    norm_c = float(np.max(np.abs(c)))
    for _ in range(max_sweeps):
        pv = np.array([scalar_poly_eval(c, zi) for zi in z])
        scale = norm_c * np.maximum(1.0, np.abs(z)) ** k
        if np.all(np.abs(pv) <= 1e-12 * scale):
            break
        dv = np.array([scalar_poly_eval(dc, zi) for zi in z])
        tiny = dv == 0
        if np.any(tiny):
            z[tiny] += 1e-8 * (1 + np.abs(z[tiny])) * np.exp(2j * np.pi * rng.uniform(size=int(tiny.sum())))
            continue
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - w * inv.sum(axis=1)
        near_zero = np.abs(denom) < 1e-14
        denom[near_zero] = 1.0
        z = z - w / denom
    else:
        raise NonConvergence(f"root iteration did not converge in {max_sweeps} sweeps")
    return cluster_roots_mean(z, radius=1e-6)


def cluster_roots_mean(points, radius: float = 1e-6) -> list[tuple[complex, int]]:
    """Reference for ``cluster_roots``: the cluster mean recomputed for every point."""
    pts = list(np.asarray(points, dtype=complex))
    clusters: list[list[complex]] = []
    for z in sorted(pts, key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(z - np.mean(cl)) <= radius:
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = [(complex(np.mean(cl)), len(cl)) for cl in clusters]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def qz_finite_eigenvalues(pencil, infinite_modulus=1e3):
    """Finite eigenvalues of ``lambda * lead - tail`` by QZ.

    A value of modulus ``infinite_modulus`` or more counts as infinite: a
    k-fold infinite eigenvalue splits into values of modulus about
    eps^(-1/k).
    """
    alpha, beta = scipy.linalg.eigvals(pencil.tail, pencil.lead, homogeneous_eigvals=True)
    finite = np.abs(alpha) < infinite_modulus * np.abs(beta)
    return alpha[finite] / beta[finite]


def clusters_match(eigs, values, rtol=2e-5, cluster_rtol=1e-2):
    """Do clustered eigenvalues ``eigs`` ((value, multiplicity) pairs) agree with ``values``?

    Both sides are grouped by single linkage within ``cluster_rtol``; each
    group's size and mean must match.  The points of a k-fold eigenvalue
    spread like (residual)^(1/k), but their mean is as well conditioned as
    a simple eigenvalue.
    """
    def groups(points):
        points = list(points)
        label = list(range(len(points)))
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if abs(points[i] - points[j]) <= cluster_rtol * max(1.0, abs(points[i]), abs(points[j])):
                    old, new = label[j], label[i]
                    label = [new if g == old else g for g in label]
        members = {}
        for g, v in zip(label, points):
            members.setdefault(g, []).append(v)
        return [(complex(np.mean(vs)), len(vs)) for vs in members.values()]

    left = groups([z for z, k in eigs for _ in range(k)])
    right = groups(values)
    if sum(k for _, k in left) != sum(k for _, k in right):
        return False
    for c, k in right:
        hits = [i for i, (z, kz) in enumerate(left) if kz == k and abs(z - c) <= rtol * max(1.0, abs(c))]
        if not hits:
            return False
        left.pop(hits[0])
    return True


def det_poly_pointwise(p, tol: float = 1e-8) -> np.ndarray:
    """Reference for ``spectral.det_poly`` on a square matrix polynomial: one generator, each holdout drawn and evaluated on its own."""
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
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linalg.det(p.eval_stack(zs))
            ks = np.arange(npts)
            coeffs = np.fft.fft(vals) / npts / (rho**ks * np.exp(1j * ks * phase))
            if not np.all(np.isfinite(coeffs)):
                continue
            scale = max(1.0, float(np.max(np.abs(vals))), float(np.max(np.abs(coeffs))))
            ok = True
            for _ in range(2):
                zh = (0.6 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                res = abs(scalar_poly_eval(coeffs, zh) - np.linalg.det(p.eval(zh)))
                if not res <= tol * scale * max(1.0, abs(zh)) ** bound:
                    ok = False
                    break
        if ok:
            return coeffs
    raise HoldoutResidual("determinant interpolation failed its holdout check")


def clear_denominator_pointwise(r, s, tol: float = 1e-8) -> MatrixPolynomial:
    """Reference for ``rsmp.clear_denominator``: nodes and holdouts in separate stacks, s(z) multiplied in per node."""
    if not r.a_regular:
        raise SingularInput("transfer function undefined: state polynomial is singular")
    s = scalar_poly_trim(s)
    if np.max(np.abs(s)) == 0.0:
        raise ValueError("clearing polynomial must be nonzero")
    deg_s = s.size - 1
    bound = deg_s + max(r.d_d, (r.n - 1) * r.d_a)
    npts = bound + 1
    for attempt in range(3):
        rng = np.random.default_rng(1234 + attempt)
        rho = 1.1 + 0.2 * attempt
        phase = rng.uniform(0.0, 2.0 * np.pi)
        zs = rho * np.exp(1j * (2.0 * np.pi * np.arange(npts) / npts + phase))
        rz, poles = transfer_eval_stack(r, zs)
        if poles.any():
            continue
        vals = np.stack([scalar_poly_eval(s, z) * rz[k] for k, z in enumerate(zs)])
        spec = np.fft.fft(vals, axis=0) / npts
        ks = np.arange(npts)
        coeffs = spec / (rho**ks * np.exp(1j * ks * phase))[:, None, None]
        scale = float(np.max(np.abs(vals)))
        top = bound
        while top > 0 and np.max(np.abs(coeffs[top])) <= 1e-9 * scale:
            top -= 1
        result = MatrixPolynomial(coeffs[: top + 1].copy())
        zh = [(0.7 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2)]
        rh, poles = transfer_eval_stack(r, zh)
        for k, z in enumerate(zh):
            if poles[k]:
                break
            want = scalar_poly_eval(s, z) * rh[k]
            got = result.eval(z)
            if np.max(np.abs(want - got)) > tol * scale * max(1.0, abs(z)) ** bound:
                raise InterpolationResidual(
                    "s(lambda)R(lambda) is not a polynomial of the expected degree; "
                    "the clearing polynomial misses a pole"
                )
        else:
            return result
    raise InterpolationResidual("could not find pole-free sample points")


class WPrefix(NamedTuple):
    """One prefix of the per-instance W walk: its grid, and whether it meets its size law and its structure claims."""

    w: Grid
    size_ok: bool = True
    structure_ok: bool = True


def _w_prefix_base(r):
    return WPrefix(fiedler._w_base(r, r.dtype))


def _w_prefix_step(g, consec, r, i, state):
    return WPrefix(fiedler._w_step(g.w, consec, r, i, state))


def _w_prefix_check(g, r, s, i):
    return WPrefix(g.w, *fiedler._step_verdicts(g.w, r, s, i))


def w_walk(r, s, memo):
    """W of one instance, walked on the instance itself in its dtype, every prefix checked on the instance's values.

    The walk ``verify --all`` ran before W came from the plan of a cell
    shape: ``fiedler._w_base`` and ``fiedler._w_step`` (looked up at each
    call, so a patched step shows here too) over the path memo ``memo``,
    and ``fiedler._step_verdicts`` on each new prefix.  At degree 1 the
    base grid alone, with nothing to check.
    """
    if r.degree == 1:
        return [_w_prefix_base(r)]
    return schedule(r, s, _w_prefix_base, _w_prefix_step, memo, _w_prefix_check)


def w_grids(r, s, memo):
    """The grids of W for steps 0..d-2 of one instance in complex128, walked on the instance over ``memo``."""
    return schedule(r, s, fiedler._w_base, fiedler._w_step, memo)


def n_grids(r, s, memo):
    """The grids of N alone for steps 0..d-2 of one system in complex128, over ``memo``: one recursion, not the paired walk.

    ``equivalence._n_base`` and ``equivalence._n_step`` under ``schedule``;
    H is this on the transposed system under the flipped decisions.
    """
    return schedule(r, s, equivalence._n_base, equivalence._n_step, memo)


def grid_matrix(g):
    """A W grid's matrix, a read-only view of its stack, with its partition."""
    return BlockMatrix(g.stack[0], g.rsz, g.csz)


def build_w_sequence(r, s):
    """``fiedler.build_w_sequence`` by the per-instance walk: writable complex128 copies of every step's matrix."""
    return [BlockMatrix(g.stack[0].copy(), g.rsz, g.csz) for g in w_grids(r, s, {})]


def fiedler_pencil_rect(r, s):
    """``fiedler.fiedler_pencil_rect`` by the per-instance walk, in complex128."""
    if r.degree == 1:
        if len(s) != 0:
            raise DimensionError("degree-1 systems take an empty decision sequence")
        g = fiedler._w_base(r)
    else:
        g = w_grids(r, s, {})[-1]
    return Pencil(fiedler._rect_lead(r, g.rsz), g.stack[0].copy(), g.rsz, g.csz)


def pivot_indices(g, transpose=False):
    """The (rows, cols) indices of a witness grid's carried pivots in its stack, or in the transposed stack; None if it carries none."""
    if g.piv is None:
        return None
    cols = np.array([c for size, j in zip(g.rsz, g.piv) for c in range(g.cc[j], g.cc[j] + size)])
    rows = np.arange(len(cols))
    return (cols, rows) if transpose else (rows, cols)
