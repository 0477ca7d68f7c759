import numpy as np
import pytest

from rosenpencil import (
    DimensionError,
    EquivalenceReport,
    MatrixPolynomial,
    SigmaSeq,
    all_decision_strings,
    build_h_sequence,
    build_n_sequence,
    build_w_sequence,
    fiedler_pencil_rect,
    is_unimodular,
    linearization_with_witnesses,
    system_equivalence_check,
    unimodular_pair,
    verify_theorem,
)
from rosenpencil.blocks import Pencil, PolyBlockMatrix
from rosenpencil.equivalence import _chunk_points
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
        pa = r.A.horner_shift(r.d_a - 1)
        qd = r.D.horner_shift(r.d_d - 1)
        assert np.array_equal(n0.block(2, 2).coeffs, pa.coeffs)
        assert np.array_equal(n0.block(4, 4).coeffs, qd.coeffs)
        assert np.array_equal(n0.block(1, 2).coeffs[0], -np.eye(2))

    def test_right_seed_consecution_display(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        s = SigmaSeq("CC")
        h0 = build_h_sequence(r, s)[0]
        pa = r.A.horner_shift(r.d_a - 1)
        qd = r.D.horner_shift(r.d_d - 1)
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
                    assert is_unimodular(w, points=6, rng=rng)

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
                    lead[: rc[1], : cc[1]] = r.A.horner_shift(max(0, da - i - 2)).eval(z)
                    for k in range(1, a_blocks):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    dpos = a_blocks  # 0-based mixed block position
                    qd_idx = max(0, dd - i - 2)
                    lead[rc[dpos] : rc[dpos + 1], cc[dpos] : cc[dpos + 1]] = r.D.horner_shift(qd_idx).eval(z)
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
                    lead[: rc[1], : cc[1]] = r.A.horner_shift(max(0, da - i - 2)).eval(z)
                    for k in range(1, a_blocks):
                        lead[rc[k] : rc[k + 1], cc[k] : cc[k + 1]] = np.eye(w.row_sizes[k])
                    lead[rc[a_blocks] : rc[a_blocks + 1], cc[a_blocks] : cc[a_blocks + 1]] = (
                        r.D.horner_shift(max(0, dd - i - 2)).eval(z)
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


class TestSystemEquivalence:
    def test_identity_transforms(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 2, 2)
        s_poly = r.assemble_s()
        eye_n = PolyBlockMatrix(MatrixPolynomial.identity(2), (2,), (2,))
        eye_p = PolyBlockMatrix(MatrixPolynomial.identity(1), (1,), (1,))
        eye_m = PolyBlockMatrix(MatrixPolynomial.identity(3), (3,), (3,))
        assert system_equivalence_check(s_poly, s_poly, (eye_n, eye_p, eye_n, eye_m), rng=rng)

    def test_witness_data_recast_blockwise(self, rng):
        # the final witnesses are block diagonal over (state, feedthrough)
        # parts, so the equivalence is expressible in the two-by-two form
        r = random_rsmp(rng, 2, 2, 1, 3, 2)
        s = SigmaSeq("CI")
        pencil, u, v = linearization_with_witnesses(r, s)
        n_top = 3 * 2  # state side of the witnesses
        rows, cols = pencil.shape

        def cut(pbm, k):
            top = PolyBlockMatrix(
                MatrixPolynomial(pbm.poly.coeffs[:, :k, :k].copy()), (k,), (k,)
            )
            bot = PolyBlockMatrix(
                MatrixPolynomial(pbm.poly.coeffs[:, k:, k:].copy()),
                (pbm.shape[0] - k,),
                (pbm.shape[1] - k,),
            )
            off1 = pbm.poly.coeffs[:, :k, k:]
            off2 = pbm.poly.coeffs[:, k:, :k]
            assert not np.any(off1) and not np.any(off2)
            return top, bot

        u1, u2 = cut(u, n_top)
        v1, v2 = cut(v, n_top)
        # target: the four-block reduced form, built coefficientwise
        from rosenpencil.equivalence import _padding_sizes

        ap, al = _padding_sizes(r, s)
        deg = r.degree
        n = r.n
        coeffs = np.zeros((deg + 1, rows, cols), dtype=complex)
        coeffs[0] = oracles.target_at(r, ap, al, 0.0)
        for k in range(1, deg + 1):
            coeffs[k][ap : ap + n, ap : ap + n] = r.A.coeff(k)
            coeffs[k][ap + n + al :, ap + n + al :] = r.D.coeff(k)
        target = MatrixPolynomial(coeffs)
        assert system_equivalence_check(
            pencil.as_matrix_polynomial(), target, (u1, u2, v1, v2), rng=rng
        )

    def test_non_unimodular_transform_fails_precheck(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 2, 2)
        s_poly = r.assemble_s()
        lam_eye = MatrixPolynomial(np.stack([np.zeros((2, 2)), np.eye(2)]))  # det = l^2
        bad = PolyBlockMatrix(lam_eye, (2,), (2,))
        eye_p = PolyBlockMatrix(MatrixPolynomial.identity(1), (1,), (1,))
        eye_n = PolyBlockMatrix(MatrixPolynomial.identity(2), (2,), (2,))
        eye_m = PolyBlockMatrix(MatrixPolynomial.identity(3), (3,), (3,))
        assert not system_equivalence_check(s_poly, s_poly, (bad, eye_p, eye_n, eye_m), rng=rng)

    def test_partition_mismatch(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 2, 2)
        s_poly = r.assemble_s()
        eye3 = PolyBlockMatrix(MatrixPolynomial.identity(3), (3,), (3,))
        with pytest.raises(DimensionError):
            system_equivalence_check(s_poly, s_poly, (eye3, eye3, eye3, eye3), rng=rng)


class TestBatchedVerify:
    """The chunked, stacked engine against the one-point-at-a-time reference."""

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
        r = random_rsmp(rng, 3, 2, 3, 4, 3)
        s = SigmaSeq("CIC")
        pencil, u, v = linearization_with_witnesses(r, s)
        chunk = _chunk_points(*pencil.shape)
        assert 1 < chunk < 41  # so that the counts below straddle chunk boundaries
        for points in (1, 41, chunk - 1, chunk, chunk + 1):
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
        assert not got.verdict
        self.assert_same_report(got, want)

    def test_no_points_rejected(self, rng):
        r = random_rsmp(rng, 1, 1, 1, 2, 2)
        s = SigmaSeq("C")
        pencil, u, v = linearization_with_witnesses(r, s)
        with pytest.raises(ValueError):
            verify_theorem(r, s, pencil, u, v, points=0)


class TestNonFiniteResiduals:
    def test_overflowing_instance_fails_every_string(self, overflowing_example):
        r = overflowing_example
        for s in all_decision_strings(3):
            pencil, u, v = linearization_with_witnesses(r, s)
            rep = verify_theorem(r, s, pencil, u, v)
            assert not rep.verdict
            assert rep.max_residual == np.inf
            assert rep.corollary_residual == np.inf

    def test_non_finite_figure_fails_any_tolerance(self):
        for tol in (1e-8, np.inf):
            for bad in (np.nan, np.inf):
                assert not EquivalenceReport(max_residual=bad, corollary_residual=0.0, tol=tol).verdict
                assert not EquivalenceReport(0.0, 0.0, u_unimodularity=bad, tol=tol).verdict
