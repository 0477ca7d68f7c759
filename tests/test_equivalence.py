import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenpencil import (
    DimensionError,
    EquivalenceReport,
    MatrixPolynomial,
    Rsmp,
    SigmaSeq,
    all_decision_strings,
    build_h_sequence,
    build_n_sequence,
    build_w_sequence,
    fiedler_pencil_rect,
    linearization_with_witnesses,
    unimodular_pair,
    verify_theorem,
)
from rosenpencil.blocks import Pencil, PolyBlockMatrix
from rosenpencil import cli, equivalence
from rosenpencil._gridops import eye, insert, neg_eye, pivot_indices
from rosenpencil.equivalence import _mul
from rosenpencil.sampling import random_rsmp


import oracles
from oracles import witness_sizes


class TestSeeds:
    def test_left_seed_consecution_display(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("CC")
        n0 = build_n_sequence(r, s)[0]
        n, p = 2, 3
        lam = np.zeros((2, 1, 1), dtype=complex)
        lam[1] = 1.0
        # blkdiag([[I,0],[lI,I]], [[I,0],[lI,I]]) with n- and p-sized blocks
        assert np.array_equal(n0.block(1, 1).coeffs, np.eye(n)[None])
        assert np.array_equal(n0.block(2, 1).coeffs[1], np.eye(n))
        assert np.array_equal(n0.block(3, 3).coeffs, np.eye(p)[None])
        assert np.array_equal(n0.block(4, 3).coeffs[1], np.eye(p))
        assert n0.block(2, 2).degree == 0

    def test_left_seed_inversion_carries_horner_shifts(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("IC")
        n0 = build_n_sequence(r, s)[0]
        pa = oracles.horner_shift(r.A, r.d_a - 1)
        qd = oracles.horner_shift(r.D, r.d_d - 1)
        assert np.array_equal(n0.block(2, 2).coeffs, pa.coeffs)
        assert np.array_equal(n0.block(4, 4).coeffs, qd.coeffs)
        assert np.array_equal(n0.block(1, 2).coeffs[0], -np.eye(2))

    def test_right_seed_consecution_display(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("CC")
        h0 = build_h_sequence(r, s)[0]
        pa = oracles.horner_shift(r.A, r.d_a - 1)
        qd = oracles.horner_shift(r.D, r.d_d - 1)
        assert np.array_equal(h0.block(2, 1).coeffs[0], -np.eye(2))
        assert np.array_equal(h0.block(2, 2).coeffs, pa.coeffs)
        assert np.array_equal(h0.block(4, 3).coeffs[0], -np.eye(3))
        assert np.array_equal(h0.block(4, 4).coeffs, qd.coeffs)

    def test_right_seed_inversion_display(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("IC")
        h0 = build_h_sequence(r, s)[0]
        n, m = 2, 1
        assert np.array_equal(h0.block(1, 1).coeffs, np.eye(n)[None])
        assert np.array_equal(h0.block(1, 2).coeffs[1], np.eye(n))
        assert np.array_equal(h0.block(3, 4).coeffs[1], np.eye(m))
        assert h0.block(2, 1).degree == 0


class TestConformability:
    def test_witness_partitions_align_with_recursion(self, rng):
        # left witness columns tile the recursion rows; recursion columns
        # tile the right witness rows
        for _ in range(15):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            da, dd = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            if max(da, dd) < 2:
                continue
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(max(da, dd)):
                ws = build_w_sequence(r, s)
                ns = build_n_sequence(r, s)
                hs = build_h_sequence(r, s)
                for w, nn, hh in zip(ws, ns, hs):
                    assert nn.col_sizes == w.row_sizes
                    assert hh.row_sizes == w.col_sizes

    def test_witness_sizes_closed_form(self, rng):
        for n in (1, 2):
            for p in (1, 3):
                for m in (2,):
                    for da in range(1, 6):
                        for dd in range(1, 6):
                            if max(da, dd) < 2:
                                continue
                            r = random_rsmp(rng, n, p, m, da, dd)
                            for s in all_decision_strings(max(da, dd)):
                                ns = build_n_sequence(r, s)
                                hs = build_h_sequence(r, s)
                                for i, (nn, hh) in enumerate(zip(ns, hs)):
                                    left, right = witness_sizes(n, p, m, da, dd, s, i)
                                    assert nn.shape == (left, left)
                                    assert hh.shape == (right, right)


class TestBlockDiagonal:
    def test_witnesses_do_not_couple_state_and_feedthrough(self, rng):
        # every N and H element, and the final U and V, is block diagonal
        # over the state side (the leading min(i + 2, d_A) n-blocks at step
        # i, d_A n-blocks at the end) and the feedthrough side; the N state
        # step relies on this and grows only the state rows
        # a fifth of the acceptance grid, every degree pair included
        shapes = [
            (n, p, m, da, dd)
            for n in (1, 2, 3)
            for p in (1, 2, 3)
            for m in (1, 2, 3)
            for da in range(1, 6)
            for dd in range(1, 6)
            if (n + p + m + da + dd) % 5 == 0 and max(da, dd) >= 2
        ]
        for n, p, m, da, dd in shapes:
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(max(da, dd)):
                split = [
                    (w, min(i + 2, da) * n)
                    for seq in (build_n_sequence(r, s), build_h_sequence(r, s))
                    for i, w in enumerate(seq)
                ]
                split += [(w, da * n) for w in unimodular_pair(r, s)]
                for w, k in split:
                    c = w.poly.coeffs
                    assert not np.any(c[:, :k, k:]), (n, p, m, da, dd, s.decisions, k)
                    assert not np.any(c[:, k:, :k]), (n, p, m, da, dd, s.decisions, k)


class TestUnimodularity:
    def test_final_pair_determinants(self, rng):
        for _ in range(8):
            n, p, m = (int(rng.integers(1, 3)) for _ in range(3))
            da, dd = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(max(da, dd)):
                u, v = unimodular_pair(r, s)
                for w in (u, v):
                    zs = 0.5 + 1.5 * rng.uniform(size=10)
                    dets = np.array([np.linalg.det(w.eval(z * np.exp(2j * np.pi * rng.uniform()))) for z in zs])
                    assert np.all(np.abs(np.abs(dets) - 1.0) <= 1e-8)
                    assert np.all(np.abs(dets - dets[0]) <= 1e-8)

    def test_degree_two_scalar_consecution_closed_form(self):
        from rosenpencil import Rsmp

        a = MatrixPolynomial([[[1.0]], [[2.0]], [[3.0]]])
        d = MatrixPolynomial([[[4.0]], [[5.0]], [[6.0]]])
        r = Rsmp(a, [[7.0]], [[8.0]], d, check_regular=False)
        u, _ = unimodular_pair(r, SigmaSeq("C"))
        # blkdiag([[1,0],[l,1]], [[1,0],[l,1]])
        want0 = np.eye(4, dtype=complex)
        want1 = np.zeros((4, 4), dtype=complex)
        want1[1, 0] = 1.0
        want1[3, 2] = 1.0
        assert np.array_equal(u.poly.coeffs[0], want0)
        assert np.array_equal(u.poly.coeffs[1], want1)

    def test_intermediates_unimodular(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 4, 3)
        for s in all_decision_strings(4):
            for seq in (build_n_sequence(r, s), build_h_sequence(r, s)):
                for w in seq:
                    dets = np.linalg.det(w.eval_stack(equivalence.sample_points(6, rng)))
                    assert abs(dets[0]) > 1e-8
                    assert np.all(np.abs(dets - dets[0]) <= 1e-8 * (1 + abs(dets[0])))

    def test_degree_one_rejected(self, rng):
        r = random_rsmp(rng, 1, 1, 1, 1, 1)
        with pytest.raises(DimensionError):
            unimodular_pair(r, SigmaSeq(""))


class TestVerify:
    def test_grid_passes(self, rng):
        for _ in range(10):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            da, dd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(max(da, dd)):
                pencil, u, v = linearization_with_witnesses(r, s)
                rep = verify_theorem(r, s, pencil, u, v, points=8, rng=rng)
                assert rep.verdict, (n, p, m, da, dd, s.decisions, rep.max_residual)

    def test_perturbed_pencil_fails(self, rng):
        r = random_rsmp(rng, 2, 1, 2, 3, 2)
        s = SigmaSeq("CI")
        pencil, u, v = linearization_with_witnesses(r, s)
        tail = pencil.tail.copy()
        tail[0, 0] += 1.0
        bad = Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes)
        rep = verify_theorem(r, s, bad, u, v, points=8, rng=rng)
        assert not rep.verdict
        assert rep.max_residual > 1e-3

    def test_base_step_identity(self, rng):
        # first-step witnesses already reduce a degree-two instance to the
        # four-block target [[I,0,0,0],[0,A,0,-B],[0,0,I,0],[0,C,0,D]]
        for dec in ("C", "I"):
            r = random_rsmp(rng, 2, 3, 2, 2, 2)
            s = SigmaSeq(dec)
            pencil, u, v = linearization_with_witnesses(r, s)
            n, p, m = 2, 3, 2
            beta = p if dec == "C" else m
            for z in (0.3, 1.7, 0.2 - 1.1j):
                t = u.eval(z) @ pencil.eval(z) @ v.eval(z)
                assert np.allclose(t[:n, :n], np.eye(n), atol=1e-9)
                assert np.allclose(t[n : 2 * n, n : 2 * n], r.A.eval(z), atol=1e-9)
                assert np.allclose(t[n : 2 * n, 2 * n + beta :], -r.B, atol=1e-9)
                assert np.allclose(t[2 * n : 2 * n + beta, 2 * n : 2 * n + beta], np.eye(beta), atol=1e-9)
                assert np.allclose(t[2 * n + beta :, n : 2 * n], r.C, atol=1e-9)
                assert np.allclose(t[2 * n + beta :, 2 * n + beta :], r.D.eval(z), atol=1e-9)

    def test_telescoping_intermediates(self, rng):
        # each intermediate triple reduces the step's shifted lead to a
        # matrix with exact identity corner blocks and the coupling columns
        for _ in range(6):
            n, p, m = (int(rng.integers(1, 3)) for _ in range(3))
            da = int(rng.integers(3, 5))
            dd = int(rng.integers(2, da + 1))
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(da):
                ws = build_w_sequence(r, s)
                ns = build_n_sequence(r, s)
                hs = build_h_sequence(r, s)
                for i in range(1, da - 1):
                    w, nn, hh = ws[i], ns[i], hs[i]
                    z = 0.4 + 0.9j
                    lead = np.zeros(w.shape, dtype=complex)
                    rc = np.concatenate(([0], np.cumsum(w.row_sizes)))
                    cc = np.concatenate(([0], np.cumsum(w.col_sizes)))
                    a_blocks = i + 2 if da >= dd else min(i + 2, da)
                    lead[: rc[1], : cc[1]] = oracles.horner_shift(r.A, max(0, da - i - 2)).eval(z)
                    for k in range(1, a_blocks):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    dpos = a_blocks  # 0-based mixed block position
                    qd_idx = max(0, dd - i - 2)
                    lead[rc[dpos] : rc[dpos + 1], cc[dpos] : cc[dpos + 1]] = oracles.horner_shift(r.D, qd_idx).eval(z)
                    for k in range(dpos + 1, len(w.row_sizes)):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    e = nn.eval(z) @ (z * lead - w.data) @ hh.eval(z)
                    scale = max(1.0, np.max(np.abs(e)))
                    # corner identity, zero first block row/col elsewhere
                    assert np.max(np.abs(e[:n, :n] - np.eye(n))) <= 1e-8 * scale
                    assert np.max(np.abs(e[:n, n:])) <= 1e-8 * scale
                    assert np.max(np.abs(e[n:, :n])) <= 1e-8 * scale

    def test_telescoping_intermediates_flipped_regime(self, rng):
        # when the feedthrough degree dominates, the growth steps leave the
        # state corner fully reduced (the shifted lead already holds its
        # terminal coefficient), stack identities for the processed
        # decisions, and keep the couplings pinned against the state block
        def mx(a):
            return float(np.max(np.abs(a))) if a.size else 0.0

        for _ in range(4):
            n, p, m = (int(rng.integers(1, 3)) for _ in range(3))
            dd = int(rng.integers(4, 6))
            da = int(rng.integers(1, dd - 1))
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(dd):
                ws = build_w_sequence(r, s)
                ns = build_n_sequence(r, s)
                hs = build_h_sequence(r, s)
                for i in range(max(1, da - 1), dd - 1):
                    w, nn, hh = ws[i], ns[i], hs[i]
                    z = complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
                    rc = np.concatenate(([0], np.cumsum(w.row_sizes)))
                    cc = np.concatenate(([0], np.cumsum(w.col_sizes)))
                    a_blocks = min(i + 2, da)
                    lead = np.zeros(w.shape, dtype=complex)
                    lead[: rc[1], : cc[1]] = oracles.horner_shift(r.A, max(0, da - i - 2)).eval(z)
                    for k in range(1, a_blocks):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    lead[rc[a_blocks] : rc[a_blocks + 1], cc[a_blocks] : cc[a_blocks + 1]] = (
                        oracles.horner_shift(r.D, max(0, dd - i - 2)).eval(z)
                    )
                    for k in range(a_blocks + 1, len(w.row_sizes)):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    e = nn.eval(z) @ (z * lead - w.data) @ hh.eval(z)
                    scale = max(1.0, mx(e))
                    k0 = da * n
                    alpha = p * s.c_count(0, i) + m * s.i_count(0, i)
                    apr = (da - 1) * n
                    corner = np.zeros((k0, k0), dtype=complex)
                    corner[:apr, :apr] = np.eye(apr)
                    corner[apr:, apr:] = r.A.eval(z)
                    tol = 1e-8 * scale
                    assert mx(e[:k0, :k0] - corner) <= tol
                    assert mx(e[k0 : k0 + alpha, k0 : k0 + alpha] - np.eye(alpha)) <= tol
                    assert mx(e[k0 : k0 + alpha, :k0]) <= tol
                    assert mx(e[:k0, k0 : k0 + alpha]) <= tol
                    assert mx(e[k0 : k0 + alpha, k0 + alpha :]) <= tol
                    assert mx(e[k0 + alpha :, k0 : k0 + alpha]) <= tol
                    assert mx(e[apr:k0, k0 + alpha :] + r.B) <= tol
                    assert mx(e[k0 + alpha :, apr:k0] - r.C) <= tol
                    assert mx(e[:apr, k0 + alpha :]) <= tol
                    assert mx(e[k0 + alpha :, :apr]) <= tol

    def test_entry_degrees_bounded(self, rng):
        # every witness entry is a polynomial of degree < pencil degree,
        # certified by interpolation plus a holdout point
        r = random_rsmp(rng, 2, 1, 2, 4, 2)
        d = 4
        for s in all_decision_strings(d):
            u, v = unimodular_pair(r, s)
            for w in (u, v):
                assert w.poly.degree <= d - 1
                nodes = np.exp(2j * np.pi * np.arange(d) / d) * 1.2
                vals = np.stack([w.eval(z) for z in nodes])
                vander = np.vander(nodes, d, increasing=True)
                coeffs = np.linalg.solve(vander, vals.reshape(d, -1))
                zh = 0.8 - 0.3j
                got = (np.vander([zh], d, increasing=True) @ coeffs).reshape(w.shape)
                assert np.max(np.abs(got - w.eval(zh))) <= 1e-8 * max(1.0, np.max(np.abs(got)))


def _scaled(w, c):
    """The witness ``w`` times the scalar ``c``."""
    return PolyBlockMatrix(MatrixPolynomial(w.poly.coeffs * c), w.row_sizes, w.col_sizes)


class TestBatchedVerify:
    """The certificate against the one-point-at-a-time sampled reference and the double-loop certificate."""

    @staticmethod
    def assert_same_report(got, want):
        assert got.verdict == want.verdict
        assert list(got.block_residuals) == list(want.block_residuals)
        pairs = [
            (got.max_residual, want.max_residual),
            (got.corollary_residual, want.corollary_residual),
            (got.u_unimodularity, want.u_unimodularity),
            (got.v_unimodularity, want.v_unimodularity),
        ] + [(got.block_residuals[k], want.block_residuals[k]) for k in want.block_residuals]
        for a, b in pairs:
            assert abs(a - b) <= 1e-15

    def test_matches_pointwise_reference_on_grid_sample(self, rng):
        shapes = [(1, 1, 1), (1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 2, 2)]
        degrees = [(1, 1), (1, 3), (3, 1), (2, 4), (4, 2), (3, 3)]
        for n, p, m in shapes:
            for d_a, d_d in degrees:
                r = random_rsmp(rng, n, p, m, d_a, d_d)
                for s in all_decision_strings(max(d_a, d_d)):
                    pencil, u, v = linearization_with_witnesses(r, s)
                    seed = int(rng.integers(2**32))
                    got = verify_theorem(r, s, pencil, u, v, rng=np.random.default_rng(seed))
                    want = oracles.verify_theorem_pointwise(r, s, pencil, u, v, rng=np.random.default_rng(seed))
                    self.assert_same_report(got, want)

    def test_stacks_match_scalar_eval(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 3, 2)
        s = SigmaSeq("CI")
        pencil, u, v = linearization_with_witnesses(r, s)
        zs = 2.0 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        for obj in (pencil, u, v):
            stack = obj.eval_stack(zs)
            assert stack.shape == (zs.size,) + obj.shape
            for k, z in enumerate(zs):
                assert np.array_equal(stack[k], obj.eval(z))

    def test_point_counts_across_chunk_boundaries(self, rng):
        # the point count, which now feeds only the determinant fallback, changes no figure
        r = random_rsmp(rng, 3, 2, 3, 4, 3)
        s = SigmaSeq("CIC")
        pencil, u, v = linearization_with_witnesses(r, s)
        for points in (1, 41, 7, 8, 9):
            got = verify_theorem(r, s, pencil, u, v, points=points, rng=np.random.default_rng(points))
            want = oracles.verify_theorem_pointwise(
                r, s, pencil, u, v, points=points, rng=np.random.default_rng(points)
            )
            assert got.verdict
            self.assert_same_report(got, want)

    def test_perturbed_pencil_fails_like_reference(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("IC")
        pencil, u, v = linearization_with_witnesses(r, s)
        tail = pencil.tail.copy()
        tail[-1, 0] += 1e-3
        bad = Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes)
        got = verify_theorem(r, s, bad, u, v, points=7, rng=np.random.default_rng(3))
        want = oracles.verify_theorem_pointwise(r, s, bad, u, v, points=7, rng=np.random.default_rng(3))
        assert not got.verdict and not want.verdict
        reference = oracles.certificate_residual(r, s, bad, u, v)
        assert reference > 1e-8
        assert abs(got.max_residual - reference) <= 1e-12 * reference
        assert got.corollary_residual == got.max_residual

    def test_noisy_witnesses_match_the_double_loop_reference(self, rng):
        # dense noise on U and V: U L V misses T everywhere, with and without cancellation
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        for s in all_decision_strings(r.degree):
            pencil, u, v = linearization_with_witnesses(r, s)
            u, v = (
                PolyBlockMatrix(MatrixPolynomial(w.poly.coeffs + 1e-3 * rng.standard_normal(w.poly.coeffs.shape)),
                                w.row_sizes, w.col_sizes)
                for w in (u, v)
            )
            got = verify_theorem(r, s, pencil, u, v)
            want = oracles.certificate_residual(r, s, pencil, u, v)
            assert want > 1e-8 and abs(got.max_residual - want) <= 1e-12 * want

    def test_no_points_rejected(self, rng):
        r = random_rsmp(rng, 1, 1, 1, 2, 2)
        s = SigmaSeq("C")
        pencil, u, v = linearization_with_witnesses(r, s)
        with pytest.raises(ValueError):
            verify_theorem(r, s, pencil, u, v, points=0)


class TestBatchedProduct:
    def test_matches_the_double_loop_bit_for_bit(self, rng):
        # degrees 0-6 on both sides; 1x1, vector-shaped and rectangular blocks;
        # zeros of either sign, as grid cells hold them
        for trial in range(600):
            dp, dq = (int(d) for d in rng.integers(0, 7, size=2))
            rows, inner, cols = (1, 1, 1) if trial % 4 == 0 else (int(k) for k in rng.integers(1, 6, size=3))
            p = rng.standard_normal((dp + 1, rows, inner)) + 1j * rng.standard_normal((dp + 1, rows, inner))
            q = rng.standard_normal((dq + 1, inner, cols)) + 1j * rng.standard_normal((dq + 1, inner, cols))
            if trial % 3 == 0:
                p[rng.random(p.shape) < 0.5] = 0.0
                q[rng.random(q.shape) < 0.5] = -0.0
            got, want = _mul(p, q), oracles.poly_matmul(p, q)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (dp, dq, rows, inner, cols)


class TestBlockResiduals:
    def test_only_verify_theorem_takes_them(self, rng):
        # the CLI's check skips the per-block maxima and leaves every other figure as it is
        r = random_rsmp(rng, 2, 1, 3, 5, 3)
        for s in all_decision_strings(r.degree):
            pencil, u, v = linearization_with_witnesses(r, s)
            seed = int(rng.integers(2**32))
            got = verify_theorem(r, s, pencil, u, v, rng=np.random.default_rng(seed))
            want = oracles.verify_theorem_pointwise(r, s, pencil, u, v, rng=np.random.default_rng(seed))
            TestBatchedVerify.assert_same_report(got, want)
            samples = equivalence._Samples(r, 20, np.random.default_rng(seed))
            bare = equivalence._certify(r, s, pencil, u.poly.coeffs, v.poly.coeffs, samples, 1e-8)
            assert bare.block_residuals == {}
            assert bare == EquivalenceReport(
                got.max_residual, got.corollary_residual, {}, got.u_unimodularity, got.v_unimodularity, got.tol
            )

    def test_worst_block_holds_the_figure(self, rng):
        # one lead entry off by 1e-6 relative errs only above degree 0
        r = random_rsmp(rng, 2, 1, 3, 4, 3)
        for s in all_decision_strings(r.degree):
            pencil, u, v = linearization_with_witnesses(r, s)
            lead = pencil.lead.copy()
            i, j = np.argwhere(lead != 0)[int(rng.integers(np.count_nonzero(lead)))]
            lead[i, j] *= 1 + 1e-6
            got = verify_theorem(r, s, Pencil(lead, pencil.tail, pencil.row_sizes, pencil.col_sizes), u, v)
            assert got.max_residual >= 1e-7
            assert max(got.block_residuals.values()) == got.max_residual

    def test_overflow_marks_every_block(self, rng):
        # witnesses whose products overflow: no residual can be certified, in any block
        r = random_rsmp(rng, 2, 1, 3, 3, 2)
        s = next(all_decision_strings(r.degree))
        pencil, u, v = linearization_with_witnesses(r, s)
        got = verify_theorem(r, s, pencil, _scaled(u, 1e200), _scaled(v, 1e200))
        assert got.block_residuals and all(x == np.inf for x in got.block_residuals.values())


class TestNonFiniteResiduals:
    def test_overflowing_instance_fails_every_string(self, rng):
        # witnesses scaled by 1e200: U L V overflows, so the residual is infinite and the verdict fails
        r = random_rsmp(rng, 1, 2, 2, 3, 3)
        for s in all_decision_strings(3):
            pencil, u, v = linearization_with_witnesses(r, s)
            rep = verify_theorem(r, s, pencil, _scaled(u, 1e200), _scaled(v, 1e200))
            assert not rep.verdict
            assert rep.max_residual == np.inf
            assert rep.corollary_residual == np.inf

    def test_overflowing_fixture_certifies_exactly(self, overflowing_example):
        # coefficients near 1e160: the certificate never multiplies two of them
        r = overflowing_example
        for s in all_decision_strings(3):
            pencil, u, v = linearization_with_witnesses(r, s)
            rep = verify_theorem(r, s, pencil, u, v)
            assert rep.verdict
            assert (rep.max_residual, rep.corollary_residual, rep.u_unimodularity, rep.v_unimodularity) == (0, 0, 0, 0)

    def test_non_finite_figure_fails_any_tolerance(self):
        for tol in (1e-8, np.inf):
            for bad in (np.nan, np.inf):
                assert not EquivalenceReport(max_residual=bad, corollary_residual=0.0, tol=tol).verdict
                assert not EquivalenceReport(0.0, 0.0, u_unimodularity=bad, tol=tol).verdict


def _cli_witnesses(r, s, memo):
    """U, V and the grids they come from, as ``verify --all`` certifies them: from the last prefix of its walk over ``memo``."""
    last = cli._walk(r, s, memo)[-1]
    return equivalence._witnesses(last.n, last.h)


def _real_pencil(pencil):
    """``pencil`` with float64 copies of the real parts of its lead and tail, as a real instance's walk builds it."""
    lead, tail = (np.ascontiguousarray(x.real) for x in (pencil.lead, pencil.tail))
    return Pencil(lead, tail, pencil.row_sizes, pencil.col_sizes)


def _stack(kind: str, k: int, points: int, rng) -> np.ndarray:
    """A ``(points, k, k)`` stack of one kind: dense, sparse, structurally singular, or permuted triangular with +-1 pivots."""
    values = rng.standard_normal((points, k, k)) + 1j * rng.standard_normal((points, k, k))
    if kind == "dense":
        return values
    if kind == "triangular":
        values = np.tril(values, -1) * (rng.random((k, k)) < 0.5)
        values[:, np.arange(k), np.arange(k)] = rng.choice([-1.0, 1.0], size=k)
        return values[:, rng.permutation(k)][:, :, rng.permutation(k)]
    # sparse: one pattern for the stack, and some of its entries zero in some matrices
    values *= (rng.random((k, k)) < rng.uniform(0.1, 0.7)) & (rng.random((points, k, k)) < 0.9)
    if kind == "singular":
        # two rows whose one nonzero is in the same column: structurally singular
        i1, i2 = rng.choice(k, size=2, replace=False)
        j = int(rng.integers(k))
        for i in (i1, i2):
            values[:, i] = 0.0
            values[:, i, j] = 1.0 + rng.random(points)
    return values


class TestLaplaceDeterminant:
    """``_dets`` expands along pattern-singleton rows and takes LU of the rest only."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.sampled_from(["dense", "sparse", "singular", "triangular"]),
        st.integers(1, 9),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_lu(self, kind, k, points, seed):
        if kind == "singular" and k < 2:
            k = 2
        values = _stack(kind, k, points, np.random.default_rng(seed))
        plan = equivalence._det_plan(values)
        got = equivalence._dets(values, plan)
        want = np.linalg.det(values)
        hadamard = np.prod(np.linalg.norm(values, axis=2), axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, hadamard))
        if kind == "singular":
            assert np.all(got == 0)
        if kind == "triangular":
            assert plan.core is None
            assert np.array_equal(got, np.round(want.real) + 0j)
        if k == 1:
            assert np.array_equal(got, values[:, 0, 0])

    def test_dense_stack_is_all_core(self, rng):
        values = _stack("dense", 6, 3, rng)
        plan = equivalence._det_plan(values)
        assert plan.pivots[0].size == 0 and plan.sign == 1
        assert np.array_equal(equivalence._dets(values, plan), np.linalg.det(values))

    @staticmethod
    def _witnesses(r):
        memo = {}
        for s in all_decision_strings(r.degree):
            yield s, *_cli_witnesses(r, s, memo)[:2]

    def test_recursion_witnesses_expand_to_empty_core(self):
        # a seeded sample of the acceptance grid and the degree-7 cells of the benchmark, integer and spread draws
        rng = np.random.default_rng(1405)
        grid = [(n, p, m, d_a, d_d) for n in (1, 2, 3) for p in (1, 2, 3) for m in (1, 2, 3)
                for d_a in range(1, 6) for d_d in range(1, 6) if max(d_a, d_d) >= 2]
        cells = [grid[k] for k in rng.choice(len(grid), size=40, replace=False)]
        cells += [(3, 3, 3, 7, 7), (2, 2, 2, 7, 7), (3, 2, 1, 7, 3), (3, 1, 2, 7, 5),
                  (1, 2, 3, 7, 1), (2, 3, 1, 2, 7), (2, 3, 3, 4, 7), (1, 3, 3, 1, 7)]
        zs = equivalence.sample_points(5, rng)
        for draw in (random_rsmp, oracles.spread_rsmp):
            for cell in cells:
                r = draw(rng, *cell)
                for s, u, v in self._witnesses(r):
                    for w in (u, v):
                        plan = equivalence._det_plan(w)
                        assert plan.core is None, (cell, s.decisions)
                        pivots = w[:, plan.pivots[0], plan.pivots[1]]
                        assert np.all(np.abs(pivots[0]) == 1) and not pivots[1:].any(), (cell, s.decisions)
                        dets = equivalence._dets(MatrixPolynomial(w).eval_stack(zs), plan)
                        assert np.all(dets == dets[0]) and abs(dets[0]) == 1, (cell, s.decisions)

    @staticmethod
    def _check(r, s, u, v):
        pencil = fiedler_pencil_rect(r, s)
        samples = equivalence._Samples(r, 20, np.random.default_rng(7))
        return equivalence._certify(r, s, pencil, u, v, samples, 1e-8)

    def test_figures_are_exactly_zero_on_recursion_witnesses(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        for s, u, v in self._witnesses(r):
            rep = self._check(r, s, u, v)
            assert rep.u_unimodularity == 0.0 and rep.v_unimodularity == 0.0 and rep.verdict

    def test_scaled_pivot_shows_in_the_figure(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("CIC")
        u, v, _ = _cli_witnesses(r, s, {})
        plan = equivalence._det_plan(u)
        bad = u.copy()
        bad[0, plan.pivots[0][3], plan.pivots[1][3]] *= 1 + 1e-9
        rep = self._check(r, s, bad, v)
        assert 0.9e-9 <= rep.u_unimodularity <= 1.1e-9
        assert rep.v_unimodularity == 0.0

    def test_varying_pivot_goes_to_the_points(self, rng):
        # a pivot of lambda-dependent value: det U is not constant, which the degree-0 product alone would miss
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("CIC")
        u, v, _ = _cli_witnesses(r, s, {})
        plan = equivalence._det_plan(u)
        bad = u.copy()
        bad[1, plan.pivots[0][0], plan.pivots[1][0]] = 0.5
        rep = self._check(r, s, bad, v)
        assert rep.u_unimodularity >= 0.2 and not rep.verdict

    def test_non_triangular_unimodular_witness_goes_through_the_core(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("ICI")
        u, v, _ = _cli_witnesses(r, s, {})
        k = u.shape[1]
        # a dense integer matrix of determinant 1: unit lower times unit upper triangular
        lower = np.tril(rng.integers(-2, 3, size=(k, k)), -1) + np.eye(k)
        mixed = u @ (lower @ lower.T).astype(complex)
        plan = equivalence._det_plan(mixed)
        assert plan.core is not None
        rep = self._check(r, s, mixed, v)
        assert 0.0 <= rep.u_unimodularity <= 1e-8

    def test_singular_witness_fails(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("CCI")
        u, v, _ = _cli_witnesses(r, s, {})
        no_column = u.copy()
        no_column[:, :, 2] = 0.0  # structurally singular
        repeated_row = u.copy()
        repeated_row[:, 1] = repeated_row[:, 0]  # singular only numerically
        for bad in (no_column, repeated_row):
            rep = self._check(r, s, bad, v)
            assert rep.u_unimodularity >= 0.5 and not rep.verdict

    def test_points_are_drawn_only_for_a_witness_with_a_core(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("ICI")
        pencil, u, v = linearization_with_witnesses(r, s)
        untouched = np.random.default_rng(5).bit_generator.state
        gen = np.random.default_rng(5)
        verify_theorem(r, s, pencil, u, v, rng=gen)
        assert gen.bit_generator.state == untouched
        k = u.shape[0]
        lower = np.tril(rng.integers(-2, 3, size=(k, k)), -1) + np.eye(k)
        mixed = PolyBlockMatrix(MatrixPolynomial(u.poly.coeffs @ (lower @ lower.T)), u.row_sizes, u.col_sizes)
        rep = verify_theorem(r, s, pencil, mixed, v, rng=gen)
        assert gen.bit_generator.state != untouched
        assert rep.u_unimodularity <= 1e-8 and rep.max_residual > 1e-8


class TestCarriedPivots:
    """The pivots the witness grids carry per decision prefix, against the ``_det_plan``/``_dets`` oracle."""

    _DEEP = [(3, 3, 3, 7, 7), (2, 2, 2, 7, 7), (3, 2, 1, 7, 3), (3, 1, 2, 7, 5),
             (1, 2, 3, 7, 1), (2, 3, 1, 2, 7), (2, 3, 3, 4, 7), (1, 3, 3, 1, 7)]

    def test_carried_figures_match_the_expansion_oracle(self, monkeypatch):
        # every witness of the acceptance grid under both draws and of the
        # eight deep cells: the carried pivots are the oracle's expansion
        # pivots, and the carried figure, taken with _det_plan forbidden, is
        # the oracle's
        rng = np.random.default_rng(1601)
        plan = equivalence._det_plan
        samples = equivalence._Samples(random_rsmp(rng, 1, 1, 1, 1, 1), 5, rng)
        checked = 0
        for draw in (random_rsmp, oracles.spread_rsmp):
            for cell in _GRID + self._DEEP:
                r = draw(rng, *cell)
                memo = {}
                for s in all_decision_strings(r.degree):
                    u, v, (gu, gv) = _cli_witnesses(r, s, memo)
                    for w, piv in zip((u, v), (pivot_indices(gu), pivot_indices(gv, transpose=True))):
                        monkeypatch.setattr(equivalence, "_det_plan", None)
                        carried = equivalence._unimodularity(w, samples, piv)
                        monkeypatch.setattr(equivalence, "_det_plan", plan)
                        assert carried == equivalence._unimodularity(w, samples) == 0.0, (cell, s.decisions)
                        want = plan(w).pivots
                        assert set(zip(*piv)) == set(zip(*want)), (cell, s.decisions)
                        checked += 1
        assert checked == 2 * 2 * (6129 + sum(2 ** (max(c[3:]) - 1) for c in self._DEEP))

    def test_pivot_scaled_after_assembly_falls_back(self, rng):
        # the stack no longer holds +-1 where its grid put the pivot: the check
        # takes the expansion from the stack, as verify_theorem does
        r = random_rsmp(rng, 2, 3, 1, 4, 3)
        s = SigmaSeq("ICC")
        memo = {}
        u, v, grids = _cli_witnesses(r, s, memo)
        piv_u, piv_v = pivot_indices(grids[0]), pivot_indices(grids[1], transpose=True)
        bad = u.copy()
        bad[0, piv_u[0][4], piv_u[1][4]] *= 1 + 1e-9
        pencil, pu, pv = linearization_with_witnesses(r, s)
        samples = equivalence._Samples(r, 20, np.random.default_rng(7))
        assert u.dtype == v.dtype == np.float64
        real = _real_pencil(pencil)
        got = equivalence._certify(r, s, real, bad, v, samples, 1e-8, grids=grids)
        wrapped = PolyBlockMatrix(MatrixPolynomial(bad), pu.row_sizes, pu.col_sizes)
        want = verify_theorem(r, s, pencil, wrapped, pv, rng=np.random.default_rng(7))
        assert 0.9e-9 <= got.u_unimodularity == want.u_unimodularity <= 1.1e-9
        assert got.v_unimodularity == want.v_unimodularity == 0.0
        assert got.max_residual == want.max_residual
        # a pivot that varies with lambda: det V is no constant, seen at the points
        varying = v.copy()
        varying[1, piv_v[0][2], piv_v[1][2]] = 0.5
        got = equivalence._certify(r, s, real, u, varying, samples, 1e-8, grids=grids)
        wrapped = PolyBlockMatrix(MatrixPolynomial(varying), pv.row_sizes, pv.col_sizes)
        want = verify_theorem(r, s, pencil, pu, wrapped, rng=np.random.default_rng(7))
        assert got.v_unimodularity == want.v_unimodularity >= 0.2 and not got.verdict

    def test_a_step_without_a_unit_pivot_row_drops_the_pivots(self, rng):
        # an inserted row whose one cell is not the shared +-I breaks the claim
        # for that grid and every grid grown from it
        r = random_rsmp(rng, 2, 1, 2, 3, 2)
        g = equivalence._n_base(r)
        assert g.piv == (0, 1)
        kept = insert(g, 0, 0, 2, [(0, 0, neg_eye(2), 0)], True)
        assert kept.piv == (0, 1, 2)
        for extra in ([(0, 0, eye(2) * 2.0, 0)], [(0, 1, eye(2), 0)], [(0, 0, eye(2), 0), (0, 1, eye(2), 0)],
                      [(0, 0, eye(2), 0), (1, 1, eye(2), 0)]):
            lost = insert(g, 0, 0, 2, extra, True)
            assert lost.piv is None and pivot_indices(lost) is None
            assert insert(lost, 0, 0, 2, [(0, 0, eye(2), 0)], True).piv is None
        # a block may span several block rows of the inserted column: below
        # the inserted row it keeps the claim, reaching into that row it breaks it
        below = insert(g, 0, 0, 2, [(0, 0, neg_eye(2), 0), (1, 0, np.ones((2, 3, 2)), 0)], True)
        assert below.piv == (0, 1, 2) and below.cdeg == (1, 0, 0)
        assert insert(g, 1, 0, 2, [(1, 0, neg_eye(2), 0), (0, 0, np.ones((1, 4, 2)), 0)], True).piv is None


class TestSharedIdentity:
    def test_one_identity_per_size_and_dtype(self):
        # the pivot claim tests the identity with ``is``, so every way of naming a dtype gives one object
        for make in (eye, neg_eye):
            assert make(3) is make(3, complex) is make(3, np.complex128) is make(3, np.dtype("complex128"))
            assert make(3, float) is make(3, np.float64) is make(3, np.dtype(float))
            assert make(3) is not make(3, float) and make(3) is not make(2)
            for dtype in (complex, float):
                x = make(3, dtype)
                assert x.dtype == dtype and x.shape == (1, 3, 3) and not x.flags.writeable
                assert np.array_equal(x[0], np.eye(3) * (1 if make is eye else -1))
        assert neg_eye(2).tobytes() == (-eye(2)).tobytes()

    def test_a_float64_grid_keeps_its_pivots_in_any_dtype(self, rng):
        r = random_rsmp(rng, 2, 1, 2, 3, 2)
        g = equivalence._n_base(r, np.float64)
        assert g.stack.dtype == np.float64 and g.piv == (0, 1)
        real = insert(g, 0, 0, 2, [(0, 0, neg_eye(2, g.stack.dtype), 0)], True)
        assert real.stack.dtype == np.float64 and real.piv == (0, 1, 2)
        # a complex block widens the grid rather than losing its imaginary part
        block = np.full((1, 3, 2), 1j)
        wide = insert(g, 0, 0, 2, [(0, 0, neg_eye(2), 0), (1, 0, block, 0)], True)
        assert wide.stack.dtype == np.complex128 and wide.piv == (0, 1, 2)
        assert np.array_equal(wide.stack[0, 2:, :2], block[0])
        assert insert(g, 0, 0, 2, [(0, 0, -np.eye(2)[None], 0)], True).piv is None


def _tail_mutated(pencil, rng, rel=1e-6):
    """``pencil`` with one nonzero tail entry, picked by ``rng``, raised by ``rel`` relative."""
    tail = pencil.tail.copy()
    nonzero = np.argwhere(tail != 0)
    i, j = nonzero[int(rng.integers(len(nonzero)))]
    tail[i, j] *= 1 + rel
    return Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes)


def _times(r, c):
    """The system with A, B, C and D all multiplied by ``c``."""
    return Rsmp(MatrixPolynomial(r.A.coeffs * c), r.B * c, r.C * c, MatrixPolynomial(r.D.coeffs * c), check_regular=False)


_GRID = [(n, p, m, d_a, d_d) for n in (1, 2, 3) for p in (1, 2, 3) for m in (1, 2, 3)
         for d_a in range(1, 6) for d_d in range(1, 6)]


class TestCertificate:
    """U L V = T coefficient by coefficient, against the componentwise scale |U| |L| |V|."""

    def test_products_equal_targets_exactly(self):
        # a seeded sample of the acceptance grid, integer and spread draws: the
        # pencils and witnesses are operation-free, and U L V is T bit for bit
        rng = np.random.default_rng(1501)
        cells = [_GRID[k] for k in rng.choice(len(_GRID), size=30, replace=False)]
        for draw in (random_rsmp, oracles.spread_rsmp):
            for cell in cells:
                r = draw(rng, *cell)
                for s in all_decision_strings(r.degree):
                    pencil, u, v = linearization_with_witnesses(r, s)
                    lp = np.stack([-pencil.tail, pencil.lead])
                    prod = oracles.poly_matmul(oracles.poly_matmul(u.poly.coeffs, lp), v.poly.coeffs)
                    target = oracles.target_coeffs(r, *equivalence._padding_sizes(r, s))
                    assert np.array_equal(prod[: len(target)], target), (cell, s.decisions)
                    assert not prod[len(target) :].any(), (cell, s.decisions)
                    rep = verify_theorem(r, s, pencil, u, v)
                    assert rep.max_residual == rep.corollary_residual == 0.0, (cell, s.decisions)

    def test_tail_mutation_fails_every_spread_instance(self):
        # one nonzero tail entry raised by 1e-6 relative on 40 spread instances,
        # an error far below what a normwise figure at sample points can see
        rng = np.random.default_rng(11)
        cells = [c for c in _GRID if max(c[3:]) >= 2]
        for k in rng.choice(len(cells), size=40, replace=False):
            r = oracles.spread_rsmp(rng, *cells[k])
            strings = list(all_decision_strings(r.degree))
            s = strings[int(rng.integers(len(strings)))]
            pencil, u, v = linearization_with_witnesses(r, s)
            rep = verify_theorem(r, s, _tail_mutated(pencil, rng), u, v)
            assert not rep.verdict and rep.max_residual >= 1e-7, (cells[k], s.decisions, rep.max_residual)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        st.lists(st.sampled_from("CI"), min_size=4, max_size=4),
        st.one_of(st.integers(-300, 300).map(lambda e: 10.0**e), st.sampled_from([1e307, 1.7e308])),
        st.integers(0, 2**32 - 1),
    )
    def test_passes_at_any_scale_and_catches_a_mutation(self, dims, degrees, decisions, scale, seed):
        # ``scale`` is the largest entry's magnitude; near the float maximum the
        # scale |U| |L| |V| overflows unless the factors are scaled down first
        rng = np.random.default_rng(seed)
        r = random_rsmp(rng, *dims, *degrees)
        largest = max(np.abs(x).max() for x in (r.A.coeffs, r.B, r.C, r.D.coeffs))
        r = _times(r, scale / largest)
        s = SigmaSeq("".join(decisions[: r.degree - 1]))
        pencil, u, v = linearization_with_witnesses(r, s)
        rep = verify_theorem(r, s, pencil, u, v)
        assert rep.verdict and rep.max_residual <= 1e-15 and rep.corollary_residual == rep.max_residual
        bad = verify_theorem(r, s, _tail_mutated(pencil, rng), u, v)
        assert not bad.verdict and bad.max_residual >= 1e-7

    @pytest.mark.parametrize("where", ["B", "A0", "D0"])
    def test_one_huge_entry_leaves_the_tiny_ones_checked(self, where):
        # every entry near 1e-300 but one at 1.7e308 that only the pencil holds:
        # only L is shifted down, so U L V keeps its tiny terms in the normal
        # range and a 1e-6 relative error in a tiny tail entry still shows
        rng = np.random.default_rng(1701)
        for _ in range(2):
            r = random_rsmp(rng, 2, 2, 2, 3, 3)
            r = _times(r, 1e-300 / max(np.abs(x).max() for x in (r.A.coeffs, r.B, r.C, r.D.coeffs)))
            a, b, d = r.A.coeffs.copy(), r.B.copy(), r.D.coeffs.copy()
            {"B": b, "A0": a[0], "D0": d[0]}[where][0, 0] = 1.7e308
            r = Rsmp(MatrixPolynomial(a), b, r.C, MatrixPolynomial(d), check_regular=False)
            for s in all_decision_strings(r.degree):
                pencil, u, v = linearization_with_witnesses(r, s)
                rep = verify_theorem(r, s, pencil, u, v)
                assert rep.verdict and rep.max_residual == 0.0, s.decisions
                tail = pencil.tail.copy()
                tiny = np.argwhere((tail != 0) & (np.abs(tail) < 1e-200))
                i, j = tiny[int(rng.integers(len(tiny)))]
                tail[i, j] *= 1 + 1e-6
                bad = verify_theorem(r, s, Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes), u, v)
                assert not bad.verdict and bad.max_residual >= 1e-7, (s.decisions, bad.max_residual)

    def test_imaginary_part_of_a_foreign_factor_is_seen(self, rng):
        # a real instance whose pencil or witness gains a small imaginary part:
        # verify_theorem must not take the real path, which would drop it
        r = random_rsmp(rng, 2, 2, 1, 3, 2)
        for s in all_decision_strings(r.degree):
            pencil, u, v = linearization_with_witnesses(r, s)
            tail = pencil.tail.copy()
            i, j = np.argwhere(tail != 0)[0]
            tail[i, j] += 1e-6j * tail[i, j]
            coeffs = u.poly.coeffs.copy()
            i, j = np.argwhere(coeffs[0] != 0)[-1]
            coeffs[0, i, j] += 1e-6j * coeffs[0, i, j]
            for args in (
                (Pencil(pencil.lead, tail, pencil.row_sizes, pencil.col_sizes), u, v),
                (pencil, PolyBlockMatrix(MatrixPolynomial(coeffs), u.row_sizes, u.col_sizes), v),
            ):
                rep = verify_theorem(r, s, *args)
                assert not rep.verdict and rep.max_residual >= 1e-7, s.decisions

    def test_assemble_s_is_the_permuted_middle_of_the_target(self, rng):
        # the corollary form: T with the feedthrough padding's rows and columns
        # moved last is blkdiag(I, S, I), coefficient by coefficient
        for cell in [(2, 1, 3, 3, 2), (1, 2, 2, 2, 4), (3, 2, 1, 1, 1), (2, 2, 2, 4, 4)]:
            r = random_rsmp(rng, *cell)
            n, p, m = cell[:3]
            for s in all_decision_strings(r.degree):
                ap, al = equivalence._padding_sizes(r, s)
                t = oracles.target_coeffs(r, ap, al)
                rows = np.r_[0 : ap + n, ap + n + al : ap + n + al + p, ap + n : ap + n + al]
                cols = np.r_[0 : ap + n, ap + n + al : ap + n + al + m, ap + n : ap + n + al]
                want = np.zeros_like(t)
                want[0, :ap, :ap] = np.eye(ap)
                want[:, ap : ap + n + p, ap : ap + n + m] = r.assemble_s().coeffs
                want[0, ap + n + p :, ap + n + m :] = np.eye(al)
                assert np.array_equal(t[:, rows][:, :, cols], want), (cell, s.decisions)

    def test_witnesses_short_of_the_target_degree_fail(self, rng):
        # identity witnesses leave U L V of degree 1 under a degree-3 target: the
        # coefficients of A and D above degree 1 sit over a zero scale
        r = random_rsmp(rng, 2, 1, 2, 3, 3)
        s = SigmaSeq("CI")
        pencil = fiedler_pencil_rect(r, s)
        u = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[0]), pencil.row_sizes, pencil.row_sizes)
        v = PolyBlockMatrix(MatrixPolynomial.identity(pencil.shape[1]), pencil.col_sizes, pencil.col_sizes)
        rep = verify_theorem(r, s, pencil, u, v)
        assert rep.max_residual == np.inf and not rep.verdict
        assert rep.u_unimodularity == rep.v_unimodularity == 0.0


def _full_scale(monkeypatch):
    """Make ``_certify`` form the scale |U| |L| |V| on every call, as it did before the scale became on demand."""
    monkeypatch.setattr(equivalence, "_scale_is_finite", lambda *args: False)


class TestOnDemandScale:
    """The scale is formed only where it can change a figure; the reports stay those of the full check."""

    def test_full_and_on_demand_agree_on_a_third_of_the_grid(self, monkeypatch):
        # every string of 75 cells, integer and spread draws, certified as the
        # CLI does (witness stacks with their pivots) but with the block
        # residuals; per instance one string with a mutated pencil, which forms
        # the scale on both sides
        rng = np.random.default_rng(1702)
        cells = [_GRID[k] for k in rng.choice(len(_GRID), size=len(_GRID) // 3, replace=False)]
        cases = []
        for draw in (random_rsmp, oracles.spread_rsmp):
            for cell in cells:
                r, memo = draw(rng, *cell), {}
                samples = equivalence._Samples(r, 20, np.random.default_rng(0))
                strings = list(all_decision_strings(r.degree))
                for s in strings:
                    u, v, grids = _cli_witnesses(r, s, memo)
                    w = ((u, v), grids)
                    pencil = fiedler_pencil_rect(r, s)
                    cases.append((r, s, _real_pencil(pencil) if r.real else pencil, w, samples))
                r, s, pencil, w, samples = cases[-1 - int(rng.integers(len(strings)))]
                cases.append((r, s, _tail_mutated(pencil, rng), w, samples))

        def reports():
            return [
                equivalence._certify(r, s, pencil, *w[0], samples, 1e-8, blocks=True, grids=w[1])
                for r, s, pencil, w, samples in cases
            ]

        on_demand = reports()
        with monkeypatch.context() as m:
            _full_scale(m)
            full = reports()
        assert repr(on_demand) == repr(full)
        assert sum(rep.max_residual > 0 for rep in full) == 2 * len(cells)
        assert all(rep.block_residuals for rep in full)

    def test_full_and_on_demand_agree_where_the_scale_overflows(self, monkeypatch, overflowing_example):
        # witnesses times 1e200 (U L V overflows), the 1e160 fixture, and
        # instances whose largest entry is 1e307 or 1.7e308
        rng = np.random.default_rng(1703)
        cases = []
        r = random_rsmp(rng, 2, 1, 3, 3, 2)
        for s in all_decision_strings(r.degree):
            pencil, u, v = linearization_with_witnesses(r, s)
            cases.append((r, s, pencil, _scaled(u, 1e200), _scaled(v, 1e200)))
        for s in all_decision_strings(overflowing_example.degree):
            cases.append((overflowing_example, s, *linearization_with_witnesses(overflowing_example, s)))
        for scale in (1e307, 1.7e308):
            for cell in [(2, 2, 2, 3, 3), (3, 1, 2, 4, 2), (1, 3, 3, 2, 4)]:
                r = random_rsmp(rng, *cell)
                r = _times(r, scale / max(np.abs(x).max() for x in (r.A.coeffs, r.B, r.C, r.D.coeffs)))
                for s in all_decision_strings(r.degree):
                    pencil, u, v = linearization_with_witnesses(r, s)
                    cases += [(r, s, pencil, u, v), (r, s, _tail_mutated(pencil, rng), u, v)]
        on_demand = [verify_theorem(*case) for case in cases]
        with monkeypatch.context() as m:
            _full_scale(m)
            full = [verify_theorem(*case) for case in cases]
        # repr tells every figure exactly, NaN included
        assert repr(on_demand) == repr(full)
        assert any(rep.max_residual == np.inf for rep in full)

    def test_scale_bound(self):
        # 2**1000 * 2**20 * 1 over one term is provably finite; one more bit is not
        assert equivalence._scale_is_finite([2.0**999, 2.0**19, 0.5], [0, 0, 0], 1)
        assert not equivalence._scale_is_finite([2.0**999, 2.0**19, 0.5], [0, 0, 0], 2)
        assert not equivalence._scale_is_finite([2.0**1000, 2.0**19, 0.5], [0, 0, 0], 1)
        # the bound reads the shifted maxima, and a maximum below 1 counts as 1
        assert equivalence._scale_is_finite([2.0**1023, 1.0, 2.0**-900], [24, 0, 0], 2**10)
        assert not equivalence._scale_is_finite([2.0**1023, 1.0, 2.0**-900], [0, 0, 0], 2**10)
        assert equivalence._scale_is_finite([0.0, 2.0**-1000, 1.0], [0, 0, 0], 2**60)
        for bad in (np.inf, np.nan):
            assert not equivalence._scale_is_finite([1.0, bad, 1.0], [0, 0, 0], 1)

    def test_nan_in_the_product_forms_the_scale(self, rng):
        # a NaN entry is not a zero difference: the figure is infinite, not 0
        r = random_rsmp(rng, 2, 1, 2, 2, 2)
        s = SigmaSeq("C")
        pencil, u, v = linearization_with_witnesses(r, s)
        lead = pencil.lead.copy()
        lead[0, 0] = np.nan
        for blocks in (False, True):
            samples = equivalence._Samples(r, 20, np.random.default_rng(0))
            rep = equivalence._certify(r, s, Pencil(lead, pencil.tail, pencil.row_sizes, pencil.col_sizes),
                                       u.poly.coeffs, v.poly.coeffs, samples, 1e-8, blocks=blocks)
            assert rep.max_residual == np.inf and not rep.verdict
