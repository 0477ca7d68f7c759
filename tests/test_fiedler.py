import numpy as np
import pytest

import oracles
from rosenpencil import (
    DimensionError,
    MatrixPolynomial,
    Rsmp,
    SigmaSeq,
    all_decision_strings,
    build_w_sequence,
    check_block_structure,
    companion_first,
    companion_second,
    eigenvalues_square,
    expected_size,
    fiedler_pencil_rect,
    square_fiedler_matrix,
    square_fiedler_pencil,
)
from rosenpencil.blocks import BlockMatrix
from rosenpencil.sampling import random_bijection, random_rsmp


def scalar_instance(a_coeffs, d_coeffs, b, c):
    a = MatrixPolynomial([[[x]] for x in a_coeffs])
    d = MatrixPolynomial([[[x]] for x in d_coeffs])
    return Rsmp(a, [[b]], [[c]], d, check_regular=False)


def det_roots_oracle(mp):
    """Roots of the exact cofactor determinant, via the numpy companion solver."""
    det = oracles.det_cofactor(oracles.entry_polys(mp))
    det = np.asarray(det)
    nz = np.nonzero(np.abs(det) > 1e-9 * max(1.0, np.abs(det).max()))[0]
    if nz.size == 0 or nz.max() == 0:
        return []
    det = det[: nz.max() + 1]
    return list(np.roots(det[::-1]))


class TestCompanionForms:
    def test_degree_one_is_the_system_matrix(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 1, 1)
        s = r.assemble_s()
        for pencil in (companion_first(r), companion_second(r)):
            for z in (0.0, 1.3, -0.4 + 0.2j):
                assert np.allclose(pencil.eval(z), s.eval(z))

    def test_worked_example_eigenvalue(self, worked_example):
        for pencil in (companion_first(worked_example), companion_second(worked_example)):
            spec = eigenvalues_square(pencil)
            assert len(spec.eigenvalues) == 1
            z, k = spec.eigenvalues[0]
            assert abs(z - 1.0) < 1e-8 and k == 1

    def test_shapes_rectangular(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 4, 2)
        c1 = companion_first(r)
        c2 = companion_second(r)
        n, p, m, da, dd = 2, 1, 3, 4, 2
        assert c1.shape == (da * n + p + (dd - 1) * m, da * n + dd * m)
        assert c2.shape == (da * n + dd * p, da * n + m + (dd - 1) * p)

    def test_eigenvalues_match_determinant_roots(self, rng):
        for _ in range(12):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            want = det_roots_oracle(r.assemble_s())
            for pencil in (companion_first(r), companion_second(r)):
                got = eigenvalues_square(pencil).values()
                assert oracles.multisets_match(got, want, 1e-6)


class TestSquareFactors:
    def test_coupled_zero_factor_display(self):
        # cubic state, linear feedthrough, scalars: the coupled factor is
        # diag(1, 1, [-A0, B; -C, -D0])
        r = scalar_instance([10, 11, 12, 13], [20, 21], 30, 40)
        m0 = square_fiedler_matrix(r, 0).data.real
        want = np.array(
            [
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, -10, 30],
                [0, 0, -40, -20],
            ],
            dtype=float,
        )
        assert np.array_equal(m0, want)

    def test_decoupled_is_block_diagonal(self, rng):
        r = random_rsmp(rng, 2, 2, 2, 3, 2)
        r0 = Rsmp(r.A, np.zeros((2, 2)), np.zeros((2, 2)), r.D, check_regular=False)
        for i in range(1, 4):
            mi = square_fiedler_matrix(r0, i).data
            assert not np.any(mi[: 3 * 2, 3 * 2 :])
            assert not np.any(mi[3 * 2 :, : 3 * 2])

    def test_factor_commutation_exact(self, rng):
        # factors used in products (lead excluded) commute at distance > 1
        for _ in range(6):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            d = max(da, dd)
            for i in range(d):
                for j in range(i + 2, d):
                    mi = square_fiedler_matrix(r, i).data
                    mj = square_fiedler_matrix(r, j).data
                    assert np.array_equal(mi @ mj, mj @ mi)

    def test_rectangular_rejected(self, rng):
        r = random_rsmp(rng, 1, 2, 1, 2, 2)
        with pytest.raises(DimensionError):
            square_fiedler_matrix(r, 0)


class TestSquarePencil:
    def test_orderings_with_equal_decisions_coincide(self):
        r = scalar_instance([1, 2, 3, 4], [7, 8], 5, 6)
        p1 = square_fiedler_pencil(r, (1, 3, 2))
        p2 = square_fiedler_pencil(r, (2, 3, 1))
        assert np.array_equal(p1.tail, p2.tail)
        assert np.array_equal(p1.lead, p2.lead)

    def test_degree_one_single_factor(self, rng):
        r = random_rsmp(rng, 2, 2, 2, 1, 1)
        pencil = square_fiedler_pencil(r, (1,))
        assert np.array_equal(pencil.tail, square_fiedler_matrix(r, 0).data)
        assert np.array_equal(pencil.lead, square_fiedler_matrix(r, 1).data)

    def test_eigenvalues_match_determinant_roots(self, rng):
        for _ in range(8):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            perm = random_bijection(rng, max(da, dd))
            got = eigenvalues_square(square_fiedler_pencil(r, perm)).values()
            want = det_roots_oracle(r.assemble_s())
            assert oracles.multisets_match(got, want, 1e-6)


class TestWSequence:
    def test_degree_six_layout(self):
        # linear feedthrough, degree-six state, decisions CCICI: the final
        # recursion matrix has the documented seven-block layout with
        # n-sized identities in the state rows
        r = scalar_instance([10, 11, 12, 13, 14, 15, 16], [20, 21], 30, 40)
        s = SigmaSeq.from_bijection((1, 2, 4, 3, 6, 5))
        assert s.decisions == "CCICI"
        tail = build_w_sequence(r, s)[-1].data.real
        want = np.array(
            [
                [-15, -14, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0, 0],
                [0, -13, 0, -12, 1, 0, 0],
                [0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, -11, 0, 1, 0],
                [0, 0, 0, -10, 0, 0, 30],
                [0, 0, 0, -40, 0, 0, -20],
            ],
            dtype=float,
        )
        assert np.array_equal(tail, want)

    def test_cubic_example_matches_factor_product(self):
        r = scalar_instance([1, 2, 3, 4], [7, 8], 5, 6)
        s = SigmaSeq.from_bijection((1, 3, 2))
        recursion = build_w_sequence(r, s)[-1].data
        product = square_fiedler_pencil(r, (1, 3, 2)).tail
        assert np.array_equal(recursion, product)

    @pytest.mark.parametrize(
        "d_a, d_d, decision",
        [(2, 2, "C"), (2, 2, "I"), (2, 1, "C"), (2, 1, "I"), (1, 2, "C"), (1, 2, "I")],
    )
    def test_step_zero_layouts_rectangular(self, d_a, d_d, decision):
        # p != m, so every block is told apart by its shape: the four-block
        # seeds, and the reduced three-block seeds of d_D = 1 and d_A = 1
        n, p, m = 2, 3, 1
        r = random_rsmp(np.random.default_rng(6), n, p, m, d_a, d_d)
        a0, a1 = r.A.coeff(0), r.A.coeff(1)
        d0, d1 = r.D.coeff(0), r.D.coeff(1)
        b, c = r.B, r.C

        def z(rows, cols):
            return np.zeros((rows, cols))

        i_n, i_p, i_m = np.eye(n), np.eye(p), np.eye(m)
        layouts = {
            (2, 2, "C"): (
                [[-a1, i_n, z(n, m), z(n, p)],
                 [-a0, z(n, n), b, z(n, p)],
                 [z(p, n), z(p, n), -d1, i_p],
                 [-c, z(p, n), -d0, z(p, p)]],
                (n, n, p, p), (n, n, m, p),
            ),
            (2, 2, "I"): (
                [[-a1, -a0, z(n, m), b],
                 [i_n, z(n, n), z(n, m), z(n, m)],
                 [z(p, n), -c, -d1, -d0],
                 [z(m, n), z(m, n), i_m, z(m, m)]],
                (n, n, p, m), (n, n, m, m),
            ),
            (2, 1, "C"): (
                [[-a1, i_n, z(n, m)],
                 [-a0, z(n, n), b],
                 [-c, z(p, n), -d0]],
                (n, n, p), (n, n, m),
            ),
            (2, 1, "I"): (
                [[-a1, -a0, b],
                 [i_n, z(n, n), z(n, m)],
                 [z(p, n), -c, -d0]],
                (n, n, p), (n, n, m),
            ),
            (1, 2, "C"): (
                [[-a0, b, z(n, p)],
                 [z(p, n), -d1, i_p],
                 [-c, -d0, z(p, p)]],
                (n, p, p), (n, m, p),
            ),
            (1, 2, "I"): (
                [[-a0, z(n, m), b],
                 [-c, -d1, -d0],
                 [z(m, n), i_m, z(m, m)]],
                (n, p, m), (n, m, m),
            ),
        }
        blocks, row_sizes, col_sizes = layouts[d_a, d_d, decision]
        w0 = build_w_sequence(r, SigmaSeq(decision))[0]
        assert (w0.row_sizes, w0.col_sizes) == (row_sizes, col_sizes)
        assert np.array_equal(w0.data, np.block(blocks))

    def test_matches_square_product_all_regimes(self, rng):
        for _ in range(20):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            if max(da, dd) < 2:
                continue
            r = random_rsmp(rng, n, pm, pm, da, dd)
            perm = random_bijection(rng, max(da, dd))
            s = SigmaSeq.from_bijection(perm)
            rec = build_w_sequence(r, s)[-1].data
            prod = square_fiedler_pencil(r, perm).tail
            assert np.array_equal(rec, prod)

    def test_decision_length_mismatch(self, rng):
        r = random_rsmp(rng, 1, 1, 1, 3, 1)
        with pytest.raises(DimensionError):
            build_w_sequence(r, SigmaSeq("C"))


def _grid_sample():
    """Every fifth cell of the acceptance grid with pencil degree >= 2."""
    cells = [
        (n, p, m, da, dd)
        for n in (1, 2, 3)
        for p in (1, 2, 3)
        for m in (1, 2, 3)
        for da in range(1, 6)
        for dd in range(1, 6)
        if max(da, dd) >= 2
    ]
    return cells[::5]


class TestTransposeDuality:
    @pytest.mark.parametrize("data", ["integer", "spread"])
    def test_w_sequence_is_self_dual(self, data):
        # W(r, s) is W(r^T, s with C and I swapped) transposed, bit for bit:
        # this ties each written-out inversion branch to its consecution twin
        rng = np.random.default_rng(20240917)
        draw = random_rsmp if data == "integer" else oracles.spread_rsmp
        for cell in _grid_sample():
            r = draw(rng, *cell)
            rt = r.transpose()
            for s in all_decision_strings(r.degree):
                ws = build_w_sequence(r, s)
                wts = build_w_sequence(rt, s.flipped())
                assert len(ws) == len(wts)
                for w, wt in zip(ws, wts):
                    assert wt.row_sizes == w.col_sizes and wt.col_sizes == w.row_sizes
                    assert np.ascontiguousarray(wt.data.T).tobytes() == w.data.tobytes(), (cell, s.decisions)


class TestRectPencil:
    def test_size_formula_example(self):
        # n=2, p=1, m=3, all-consecution decisions, state degree 4:
        # (p + p*3 + 8) x (m + p*3 + 8) = 12 x 14
        rng = np.random.default_rng(0)
        r = random_rsmp(rng, 2, 1, 3, 4, 4)
        pencil = fiedler_pencil_rect(r, SigmaSeq("CCC"))
        assert pencil.shape == (12, 14)

    def test_degree_one_is_system_matrix(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 1, 1)
        pencil = fiedler_pencil_rect(r, SigmaSeq(""))
        s = r.assemble_s()
        for z in (0.0, -1.1, 0.5 + 0.5j):
            assert np.allclose(pencil.eval(z), s.eval(z))

    def test_square_case_eigenvalues(self, rng):
        for _ in range(6):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            perm = random_bijection(rng, max(da, dd))
            pencil = fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm))
            got = eigenvalues_square(pencil).values()
            want = det_roots_oracle(r.assemble_s())
            assert oracles.multisets_match(got, want, 1e-6)

    def test_zero_leading_block_forces_the_degree(self, rng):
        # declared degrees drive the construction even when the leading
        # coefficient is the zero matrix
        a = MatrixPolynomial(
            [rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3)]
            + [np.zeros((2, 2))]
        )
        d = MatrixPolynomial([rng.integers(-3, 4, size=(1, 2)).astype(complex), np.zeros((1, 2))])
        r = Rsmp(a, rng.integers(-3, 4, size=(2, 2)).astype(complex),
                 rng.integers(-3, 4, size=(1, 2)).astype(complex), d)
        assert r.d_a == 3 and r.d_d == 1
        s = SigmaSeq("IC")
        pencil = fiedler_pencil_rect(r, s)
        assert pencil.shape == expected_size(2, 1, 2, 3, 1, s, 1)
        from rosenpencil import linearization_with_witnesses, verify_theorem

        _, u, v = linearization_with_witnesses(r, s)
        assert verify_theorem(r, s, pencil, u, v, points=6).verdict

    def test_bit_identical_for_equal_decisions(self, rng):
        r = random_rsmp(rng, 2, 1, 2, 4, 2)
        s1 = SigmaSeq.from_bijection((1, 2, 4, 3))
        s2 = SigmaSeq.from_bijection((2, 3, 4, 1))
        assert s1.decisions == s2.decisions == "CCI"
        p1 = fiedler_pencil_rect(r, s1)
        p2 = fiedler_pencil_rect(r, s2)
        assert np.array_equal(p1.tail, p2.tail) and np.array_equal(p1.lead, p2.lead)


class TestDeterminantIdentity:
    def test_pencil_determinants_equal_system_determinant(self, rng):
        # stronger than root agreement: the determinant polynomials of the
        # square pencils coincide with det S up to a unimodular constant
        def trim(c):
            c = np.asarray(c)
            idx = np.nonzero(np.abs(c) > 1e-9 * max(1.0, np.abs(c).max()))[0]
            return c[: idx.max() + 1] if idx.size else c[:1]

        for _ in range(6):
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            det_s = trim(oracles.det_cofactor(oracles.entry_polys(r.assemble_s())))
            perm = random_bijection(rng, max(da, dd))
            pencils = (
                companion_first(r),
                companion_second(r),
                fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm)),
            )
            for pencil in pencils:
                det_l = trim(
                    oracles.det_cofactor(oracles.entry_polys(pencil.as_matrix_polynomial()))
                )
                assert det_l.size == det_s.size
                ratio = det_l[-1] / det_s[-1]
                assert abs(abs(ratio) - 1.0) < 1e-9
                assert np.allclose(det_l, ratio * det_s, atol=1e-6 * max(1.0, np.abs(det_s).max()))


class TestExpectedSize:
    def test_seed_consecution(self):
        n, p, m = 2, 3, 1
        s = SigmaSeq("C" * 3)
        assert expected_size(n, p, m, 4, 3, s, 0) == (2 * n + 2 * p, 2 * n + m + p)

    def test_seed_inversion(self):
        n, p, m = 2, 3, 1
        s = SigmaSeq("I" + "C" * 2)
        assert expected_size(n, p, m, 4, 3, s, 0) == (2 * n + p + m, 2 * n + 2 * m)

    def test_matches_construction_over_grid(self, rng):
        for n in (1, 2):
            for p in (1, 3):
                for m in (1, 2):
                    for da in range(1, 6):
                        for dd in range(1, 6):
                            d = max(da, dd)
                            if d < 2:
                                continue
                            r = random_rsmp(rng, n, p, m, da, dd)
                            for s in all_decision_strings(d):
                                ws = build_w_sequence(r, s)
                                for i, w in enumerate(ws):
                                    assert w.shape == expected_size(n, p, m, da, dd, s, i)


class TestBlockStructure:
    def test_all_pass_on_random_instances(self, rng):
        for _ in range(25):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            da, dd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            if max(da, dd) < 2:
                continue
            r = random_rsmp(rng, n, p, m, da, dd)
            for s in all_decision_strings(max(da, dd)):
                for i, w in enumerate(build_w_sequence(r, s)):
                    rep = check_block_structure(w, i, r, s)
                    assert rep.passed, rep.failures()

    def test_mutated_anchor_block_fails(self, rng):
        r = random_rsmp(rng, 2, 1, 2, 3, 2)
        s = SigmaSeq("CI")
        w = build_w_sequence(r, s)[-1]
        data = w.data.copy()
        data[0, 0] += 1.0
        bad = BlockMatrix(data, w.row_sizes, w.col_sizes)
        rep = check_block_structure(bad, 1, r, s)
        assert not rep.passed
        assert any("(1,1)" in f for f in rep.failures())

    def test_equal_degree_feedthrough_anchor(self, rng):
        # cubic on both sides: the mixed diagonal block of step i holds the
        # (i+1)-st feedthrough coefficient
        r = random_rsmp(rng, 1, 2, 2, 3, 3)
        s = SigmaSeq("CI")
        ws = build_w_sequence(r, s)
        assert np.array_equal(ws[0].block(3, 3), -r.D.coeff(1))
        assert np.array_equal(ws[1].block(4, 4), -r.D.coeff(2))
