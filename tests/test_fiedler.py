import gc
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from rosenpencil import (
    DimensionError,
    MatrixPolynomial,
    Rsmp,
    SigmaSeq,
    all_decision_strings,
    build_h_sequence,
    build_n_sequence,
    build_w_sequence,
    check_block_structure,
    companion_first,
    companion_second,
    eigenvalues_square,
    emit_rsmp,
    equivalence,
    expected_size,
    fiedler,
    fiedler_pencil_rect,
    square_fiedler_matrix,
    square_fiedler_pencil,
    unimodular_pair,
)
from rosenpencil import cli
from rosenpencil.blocks import BlockMatrix, Pencil
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

    def test_literal_layouts_rectangular(self):
        # p != m in both degree orders, so every block is told apart by its
        # shape; A = 2 + 3l + 5l^2 (+ 7l^3), D_k and B, C all distinct
        # (1, 2, 1, 3, 2): A cubic, D quadratic 2x1, B 1x1, C 2x1
        a = MatrixPolynomial([[[2]], [[3]], [[5]], [[7]]])
        d = MatrixPolynomial([[[19], [23]], [[29], [31]], [[37], [41]]])
        r = Rsmp(a, [[11]], [[13], [17]], d, check_regular=False)
        first = companion_first(r)
        assert np.array_equal(
            first.tail,
            np.block([
                [-5, -3, -2, 0, 11],
                [1, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [np.array([[0, 0, -13, -29, -19], [0, 0, -17, -31, -23]])],
                [0, 0, 0, 1, 0],
            ]),
        )
        assert np.array_equal(
            first.lead,
            np.block([
                [7, 0, 0, 0, 0],
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [np.array([[0, 0, 0, 37, 0], [0, 0, 0, 41, 0]])],
                [0, 0, 0, 0, 1],
            ]),
        )
        assert (first.row_sizes, first.col_sizes) == ((1, 1, 1, 2, 1), (1, 1, 1, 1, 1))
        second = companion_second(r)
        assert np.array_equal(
            second.tail,
            np.block([
                [-5, 1, 0, 0, 0, 0],
                [-3, 0, 1, 0, 0, 0],
                [-2, 0, 0, 11, 0, 0],
                [np.array([[0, 0, 0, -29, 1, 0], [0, 0, 0, -31, 0, 1]])],
                [np.array([[-13, 0, 0, -19, 0, 0], [-17, 0, 0, -23, 0, 0]])],
            ]),
        )
        assert np.array_equal(
            second.lead,
            np.block([
                [7, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [np.array([[0, 0, 0, 37, 0, 0], [0, 0, 0, 41, 0, 0]])],
                [np.array([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])],
            ]),
        )
        assert (second.row_sizes, second.col_sizes) == ((1, 1, 1, 2, 2), (1, 1, 1, 1, 2))

        # (1, 1, 2, 2, 3): A quadratic, D cubic 1x2, B 1x2, C 1x1
        a = MatrixPolynomial([[[2]], [[3]], [[5]]])
        d = MatrixPolynomial([[[17, 19]], [[23, 29]], [[31, 37]], [[41, 43]]])
        r = Rsmp(a, [[7, 11]], [[13]], d, check_regular=False)
        first = companion_first(r)
        assert np.array_equal(
            first.tail,
            np.block([
                [-3, -2, 0, 0, 0, 0, 7, 11],
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, -13, -31, -37, -23, -29, -17, -19],
                [np.array([[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]])],
                [np.array([[0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]])],
            ]),
        )
        assert np.array_equal(
            first.lead,
            np.block([
                [5, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 41, 43, 0, 0, 0, 0],
                [np.array([[0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]])],
                [np.array([[0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]])],
            ]),
        )
        assert (first.row_sizes, first.col_sizes) == ((1, 1, 1, 2, 2), (1, 1, 2, 2, 2))
        second = companion_second(r)
        assert np.array_equal(
            second.tail,
            np.block([
                [-3, 1, 0, 0, 0, 0],
                [-2, 0, 7, 11, 0, 0],
                [0, 0, -31, -37, 1, 0],
                [0, 0, -23, -29, 0, 1],
                [-13, 0, -17, -19, 0, 0],
            ]),
        )
        assert np.array_equal(
            second.lead,
            np.block([
                [5, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 41, 43, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1],
            ]),
        )
        assert (second.row_sizes, second.col_sizes) == ((1, 1, 1, 1, 1), (1, 1, 2, 1, 1))

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


def _grid_record(g, to_matrix):
    """A grid's coefficients as bytes, its partitions and its state-block count."""
    mat = to_matrix(g)
    data = mat.data if isinstance(mat, BlockMatrix) else mat.poly.coeffs
    return data.shape, data.tobytes(), mat.row_sizes, mat.col_sizes, g.a


def _recursions(r, s):
    """The three recursions of one string: W of ``r`` (walked on ``r``, as the plan walks its probe), N of ``r`` and of its transpose."""
    rt = r.transpose()
    return [
        (oracles.w_grids, r, s, oracles.grid_matrix),
        (oracles.n_grids, r, s, equivalence._grid_to_pbm),
        (oracles.n_grids, rt, s.flipped(), equivalence._grid_to_pbm),
    ]


def _assert_path_memo(memo, r):
    """One entry per recursion, each the last string walked and at most ``degree`` grids, the base grid first."""
    assert len(memo) == 3
    for walked, grids in memo.values():
        assert len(walked) == r.degree - 1 and len(grids) == r.degree


class TestPrefixMemo:
    def test_shared_memo_gives_the_fresh_grids(self):
        # one memo serves W, N and H of an instance, as in verify --all; every
        # string must get the grids a fresh build gives it, and every
        # recursion must keep one path of grids, the base grid and one per step
        rng = np.random.default_rng(20261018)
        for cell in _grid_sample()[::2]:
            r = random_rsmp(rng, *cell)
            memo = {}
            for s in all_decision_strings(r.degree):
                for grids, system, seq, to_matrix in _recursions(r, s):
                    shared, fresh = grids(system, seq, memo), grids(system, seq, {})
                    assert [_grid_record(g, to_matrix) for g in shared] == [
                        _grid_record(g, to_matrix) for g in fresh
                    ], (cell, s.decisions)
                _assert_path_memo(memo, r)

    @pytest.mark.parametrize("order", ["shuffled", "reversed"])
    def test_any_string_order_gives_the_fresh_grids(self, order):
        # the path memo shares only the prefix a string has in common with the
        # last one walked; out of lexicographic order it builds more, never other grids
        rng = np.random.default_rng(20261019)
        for cell in _grid_sample()[1::4] + [(2, 2, 1, 5, 3), (1, 2, 2, 2, 5)]:
            r = random_rsmp(rng, *cell)
            sigmas = list(all_decision_strings(r.degree))
            sigmas = [sigmas[k] for k in rng.permutation(len(sigmas))] if order == "shuffled" else sigmas[::-1]
            memo = {}
            for s in sigmas:
                for grids, system, seq, to_matrix in _recursions(r, s):
                    shared, fresh = grids(system, seq, memo), grids(system, seq, {})
                    assert [_grid_record(g, to_matrix) for g in shared] == [
                        _grid_record(g, to_matrix) for g in fresh
                    ], (cell, order, s.decisions)
                _assert_path_memo(memo, r)

    @pytest.mark.parametrize("cell", [(2, 1, 3, 4, 2), (1, 2, 1, 2, 5)])
    def test_memoised_grids_are_read_only(self, rng, cell):
        # the walk of verify --all: one path memo grows N and H of every
        # string together, and one grows W (on a plan's probe, here on the
        # instance); a shared stack written in place would change every
        # string built on it
        r = random_rsmp(rng, *cell)
        memo, w_memo, seen = {}, {}, {}
        for s in all_decision_strings(r.degree):
            equivalence._walk(r, s, memo, r.dtype)
            oracles.w_walk(r, s, w_memo)
            for kinds, entry in (("nh", memo), ("w", w_memo)):
                ((walked, path),) = entry.values()  # one entry: the last string and its prefixes, the base first
                assert walked == s.decisions and len(path) == r.degree
                for node in path:
                    for kind, g in zip(kinds, node):
                        seen[id(g)] = (kind, g)
        assert len(seen) == 3 * (2 ** r.degree - 1)  # every prefix, and the base grid, built once
        for kind, g in seen.values():
            assert g.stack.ndim == 3 and not g.stack.flags.writeable
            assert len(g.stack) == max(g.cdeg) + 1 and len(g.cdeg) == len(g.csz)
            with pytest.raises(ValueError, match="read-only"):
                g.stack[0, 0, 0] += 1.0
            # the N and H grids carry their expansion pivots, one block column
            # per block row, as tuples, which cannot be written either; W carries none
            if kind == "w":
                assert g.piv is None
            else:
                assert isinstance(g.piv, tuple) and len(g.piv) == len(g.rsz)
                with pytest.raises(TypeError):
                    g.piv[0] = 0

    @pytest.mark.parametrize("cell", [(2, 2, 1, 5, 3), (1, 2, 3, 2, 5), (2, 1, 2, 4, 4), (1, 1, 1, 1, 3)])
    def test_verify_all_builds_each_prefix_once(self, tmp_path, monkeypatch, capsys, fresh_plans, cell):
        # as many inserts as one per prefix and side of each of the three
        # recursions the first time the shape is seen (W on the plan's
        # probe), and of the two witness recursions after that: each prefix
        # grows the state side while i < d_A - 1 and the feedthrough side
        # while i < d_D - 1
        r = random_rsmp(np.random.default_rng(20261020), *cell)
        path = tmp_path / "inst.json"
        path.write_text(emit_rsmp(r))
        calls = []

        def spy(*args):
            calls.append(args[1:4])
            return insert(*args)

        insert = fiedler.insert
        monkeypatch.setattr(fiedler, "insert", spy)
        monkeypatch.setattr(equivalence, "insert", spy)
        assert cli.main(["verify", str(path), "--all"]) == 0
        per_prefix = sum(2 ** (i + 1) * ((i < r.d_a - 1) + (i < r.d_d - 1)) for i in range(r.degree - 1))
        assert len(calls) == 3 * per_prefix
        first = capsys.readouterr().out
        assert first.count("\n") == 2 ** (r.degree - 1)
        calls.clear()
        assert cli.main(["verify", str(path), "--all"]) == 0
        assert len(calls) == 2 * per_prefix and capsys.readouterr().out == first

    def test_public_outputs_are_writable_copies(self, rng, monkeypatch, fresh_plans):
        # what the builders return is the caller's: BlockMatrix and Pencil
        # arrays are writable as before (a view of a read-only grid stack
        # would not be), and no output shares memory with a grid stack of the
        # recursions behind it
        stacks = []

        def keep(schedule):
            def spy(*args):
                grids = schedule(*args)
                # the witness walk keeps an N and an H grid per prefix; a walk of the block layout holds no stack
                nodes = (g for x in grids for g in (x if isinstance(x, equivalence._Prefix) else (x,)))
                stacks.extend(g.stack for g in nodes if hasattr(g, "stack"))
                return grids

            return spy

        monkeypatch.setattr(fiedler, "schedule", keep(fiedler.schedule))
        monkeypatch.setattr(equivalence, "schedule", keep(equivalence.schedule))
        builders = [build_w_sequence, build_n_sequence, build_h_sequence, unimodular_pair, fiedler_pencil_rect,
                    equivalence.linearization_with_witnesses]
        for cell in [(2, 1, 3, 4, 2), (1, 2, 2, 2, 3), (2, 2, 1, 1, 1)]:
            r = random_rsmp(rng, *cell)
            outs = [companion_first(r), companion_second(r)]
            for s in all_decision_strings(r.degree):
                outs += [build(r, s) for build in builders if r.degree >= 2 or build in
                         (fiedler_pencil_rect, equivalence.linearization_with_witnesses)]
            arrays = []
            for out in outs:
                for x in out if isinstance(out, (list, tuple)) else [out]:
                    if isinstance(x, BlockMatrix):
                        arrays.append((x.data, True))
                    elif isinstance(x, Pencil):
                        arrays += [(x.lead, True), (x.tail, True)]
                    else:  # a PolyBlockMatrix: MatrixPolynomial coefficients are read-only by contract
                        arrays.append((x.poly.coeffs, False))
            assert arrays and (stacks or r.degree == 1)
            for data, writable in arrays:
                assert data.flags.writeable == writable
                assert not any(np.shares_memory(data, stack) for stack in stacks)
            stacks.clear()

    @pytest.mark.parametrize(
        "build", [build_w_sequence, build_n_sequence, build_h_sequence, unimodular_pair, fiedler_pencil_rect]
    )
    def test_builders_keep_their_errors(self, rng, build):
        with pytest.raises(DimensionError, match=r"^need 2 decisions for degree 3, got 1$"):
            build(random_rsmp(rng, 1, 2, 1, 3, 1), SigmaSeq("C"))
        if build is not fiedler_pencil_rect:  # degree 1 needs no recursion there
            with pytest.raises(DimensionError, match=r"^the recursions need pencil degree >= 2$"):
                build(random_rsmp(rng, 1, 2, 1, 1, 1), SigmaSeq(""))


class TestRectPencil:
    def test_size_formula_example(self):
        # n=2, p=1, m=3, all-consecution decisions, state degree 4:
        # (p + p*3 + 8) x (m + p*3 + 8) = 12 x 14
        rng = np.random.default_rng(0)
        r = random_rsmp(rng, 2, 1, 3, 4, 4)
        pencil = fiedler_pencil_rect(r, SigmaSeq("CCC"))
        assert pencil.shape == (12, 14)

    def test_tail_with_non_square_trailing_block_rejected(self, rng):
        # the leading matrix puts an identity on every trailing diagonal block
        r = random_rsmp(rng, 1, 1, 1, 1, 2)
        with pytest.raises(DimensionError):
            fiedler.pencil_from_tail(r, fiedler.Tail(np.zeros((4, 5)), [1, 1, 2], [1, 1, 3]))

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


class TestBlockDtype:
    def test_float64_stays_anything_else_is_complex(self):
        # a real instance's walk hands float64 tails and leads over; every other input is held as complex128
        real = np.arange(6.0).reshape(2, 3)
        assert BlockMatrix(real, [1, 1], [2, 1]).data is real
        p = Pencil(real, -real, [2], [3])
        assert p.lead is real and p.tail.dtype == np.float64
        for other in (real.astype(np.float32), real.astype(int), real.tolist(), real.astype(np.complex64)):
            assert BlockMatrix(other, [1, 1], [2, 1]).data.dtype == np.complex128
            assert Pencil(other, other, [2], [3]).tail.dtype == np.complex128
        assert Pencil(real, real.astype(complex), [2], [3]).tail.dtype == np.complex128


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

    def test_decisions_that_do_not_reach_the_step_are_an_error(self):
        # the feedthrough side counts decisions 0..min(i, d_D - 2); a string
        # shorter than that, or d_D = 0, is the caller's error, not a size
        with pytest.raises(IndexError):
            expected_size(2, 3, 1, 4, 4, SigmaSeq("C"), 2)
        with pytest.raises(IndexError):
            expected_size(2, 3, 1, 4, 0, SigmaSeq("CCC"), 1)
        assert expected_size(2, 3, 1, 4, 1, SigmaSeq(""), 0) == (2 * 2 + 3, 2 * 2 + 1)

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

    # Every claim of the last step (i = 2) of a degree-4 recursion, with the
    # 1-based block it reads, for both degree orders and both decisions at i.
    # With d_A > d_D the step grew the state side, so the coupling zero meets
    # the fresh state block 2; with d_A < d_D it meets the state anchor block 1.
    @pytest.mark.parametrize(
        "d_a, d_d, decisions, claims",
        [
            (4, 2, "CIC", {"(1,1) block is -A_{i+1}": (1, 1), "mixed diagonal block is -D_k": (5, 5),
                           "state diagonal block 2 is 0_n": (2, 2), "state diagonal block 3 is 0_n": (3, 3),
                           "state diagonal block 4 is 0_n": (4, 4),
                           "feedthrough diagonal block 6 is 0 of decision size (j=0)": (6, 6),
                           "consecution coupling zero is 0_{p x n}": (5, 2)}),
            (4, 2, "CII", {"(1,1) block is -A_{i+1}": (1, 1), "mixed diagonal block is -D_k": (5, 5),
                           "state diagonal block 2 is 0_n": (2, 2), "state diagonal block 3 is 0_n": (3, 3),
                           "state diagonal block 4 is 0_n": (4, 4),
                           "feedthrough diagonal block 6 is 0 of decision size (j=0)": (6, 6),
                           "inversion coupling zero is 0_{n x m}": (2, 5)}),
            (2, 4, "CIC", {"(1,1) block is -A_{i+1}": (1, 1), "mixed diagonal block is -D_k": (3, 3),
                           "state diagonal block 2 is 0_n": (2, 2),
                           "feedthrough diagonal block 6 is 0 of decision size (j=0)": (6, 6),
                           "feedthrough diagonal block 5 is 0 of decision size (j=1)": (5, 5),
                           "feedthrough diagonal block 4 is 0 of decision size (j=2)": (4, 4),
                           "consecution coupling zero is 0_{p x n}": (3, 1)}),
            (2, 4, "CII", {"(1,1) block is -A_{i+1}": (1, 1), "mixed diagonal block is -D_k": (3, 3),
                           "state diagonal block 2 is 0_n": (2, 2),
                           "feedthrough diagonal block 6 is 0 of decision size (j=0)": (6, 6),
                           "feedthrough diagonal block 5 is 0 of decision size (j=1)": (5, 5),
                           "feedthrough diagonal block 4 is 0 of decision size (j=2)": (4, 4),
                           "inversion coupling zero is 0_{n x m}": (1, 3)}),
        ],
    )
    def test_each_claim_fails_alone_when_its_block_is_mutated(self, rng, d_a, d_d, decisions, claims):
        r = random_rsmp(rng, 2, 1, 3, d_a, d_d)
        s = SigmaSeq(decisions)
        w = build_w_sequence(r, s)[2]
        clean = check_block_structure(w, 2, r, s)
        assert clean.passed, clean.failures()
        assert [name for name, _ in clean.checks] == list(claims)
        for name, (bi, bj) in claims.items():
            data = w.data.copy()
            data[w.row_cuts[bi - 1] : w.row_cuts[bi], w.col_cuts[bj - 1] : w.col_cuts[bj]] += 1.0
            bad = BlockMatrix(data, w.row_sizes, w.col_sizes)
            assert check_block_structure(bad, 2, r, s).failures() == [name]

    def test_equal_degree_feedthrough_anchor(self, rng):
        # cubic on both sides: the mixed diagonal block of step i holds the
        # (i+1)-st feedthrough coefficient
        r = random_rsmp(rng, 1, 2, 2, 3, 3)
        s = SigmaSeq("CI")
        ws = build_w_sequence(r, s)
        assert np.array_equal(ws[0].block(3, 3), -r.D.coeff(1))
        assert np.array_equal(ws[1].block(4, 4), -r.D.coeff(2))


# the acceptance grid, and the cells of the grid_verify and deep_verify workloads
_GRID_CELLS = [(n, p, m, d_a, d_d) for n in (1, 2, 3) for p in (1, 2, 3) for m in (1, 2, 3)
               for d_a in range(1, 6) for d_d in range(1, 6)]
_PAIRS = [(d_a, d_d) for d_a in range(1, 6) for d_d in range(1, 6)]
_SHAPES = [(n, p, m) for n in (1, 2, 3) for p in (1, 2, 3) for m in (1, 2, 3)]
_GRID_VERIFY_CELLS = [_SHAPES[(b + j) % 27] + pair for b in range(0, 27, 3) for j, pair in enumerate(_PAIRS)]
_DEEP_VERIFY_CELLS = [(3, 3, 3, 7, 7), (2, 2, 2, 7, 7), (3, 2, 1, 7, 3), (3, 1, 2, 7, 5),
                      (1, 2, 3, 7, 1), (2, 3, 1, 2, 7), (2, 3, 3, 4, 7), (1, 3, 3, 1, 7)]


def _same_pencil(got, want):
    assert got.tail.tobytes() == want.tail.tobytes() and got.lead.tobytes() == want.lead.tobytes()
    assert (got.shape, got.row_sizes, got.col_sizes) == (want.shape, want.row_sizes, want.col_sizes)


class TestPlan:
    """W of a cell shape, walked once on a labelled probe, against the walk of W on each instance (``oracles``)."""

    @pytest.mark.parametrize("draw", [random_rsmp, oracles.spread_rsmp], ids=["integer", "spread"])
    def test_tails_are_the_per_instance_walks(self, draw, fresh_plans):
        # every string of the acceptance grid, once while each plan is being
        # walked and once after it is packed: the tail, byte for byte, in
        # the instance's dtype and in complex128, its partition and the two
        # verdicts are the per-instance walk's; the public builders' outputs
        # are the per-instance builders' byte for byte
        rng = np.random.default_rng(2401)
        strings = 0
        for cell in _GRID_CELLS:
            r = draw(rng, *cell)
            plan = fiedler._plan_of(r)
            dtypes = (np.float64, np.complex128) if r.real else (np.complex128,)
            sources = [fiedler._source(r, dtype) for dtype in dtypes]
            for packed in (False, True):
                memo = {}
                for s in all_decision_strings(r.degree):
                    path = oracles.w_walk(r, s, memo)
                    want = (all(g.size_ok for g in path), all(g.structure_ok for g in path))
                    complex_grid = fiedler._w_base(r) if r.degree == 1 else oracles.w_grids(r, s, {})[-1]
                    for dtype, source in zip(dtypes, sources):
                        tail, *verdicts = plan.tail(s, source)
                        grid = path[-1].w if dtype == r.dtype else complex_grid
                        assert grid.stack.dtype == tail.matrix.dtype == dtype
                        assert tail.matrix.tobytes() == grid.stack[0].tobytes(), (cell, s.decisions)
                        assert (tail.matrix.shape, tail.rsz, tail.csz) == (grid.stack.shape[1:], grid.rsz, grid.csz)
                        assert tuple(verdicts) == want == (True, True)
                    _same_pencil(fiedler_pencil_rect(r, s), oracles.fiedler_pencil_rect(r, s))
                    if r.degree >= 2:
                        got, exp = build_w_sequence(r, s), oracles.build_w_sequence(r, s)
                        assert len(got) == len(exp) == r.degree - 1
                        for x, y in zip(got, exp):
                            assert x.data.tobytes() == y.data.tobytes() and x.data.flags.writeable
                            assert (x.row_sizes, x.col_sizes) == (y.row_sizes, y.col_sizes)
                    strings += not packed
                assert plan._open is None  # every string walked: packed
        assert strings == 6129

    def test_the_probe_is_stronger_than_a_value_check(self, tmp_path, capsys, monkeypatch, fresh_plans):
        # a defect that writes -P_i where -P_{i+1} belongs, on an instance
        # whose A coefficients are all equal and whose D coefficients are
        # too: the claims taken on the instance's values pass, the claims
        # taken on the probe's distinct labels fail, and so does verify
        step = fiedler._w_step
        monkeypatch.setattr(fiedler, "_w_step", lambda g, consec, r, i, state: step(g, consec, r, i - 1, state))
        rng = np.random.default_rng(2402)
        n, p, m, d_a, d_d = 2, 2, 1, 4, 3
        a0, d0 = rng.integers(-3, 4, size=(n, n)), rng.integers(-3, 4, size=(p, m))
        r = Rsmp(MatrixPolynomial([a0 + 5 * np.eye(n)] * (d_a + 1)), rng.integers(-3, 4, size=(n, m)),
                 rng.integers(-3, 4, size=(p, n)), MatrixPolynomial([d0] * (d_d + 1)))
        strings = list(all_decision_strings(r.degree))
        memo = {}
        for s in strings:
            assert all(g.size_ok and g.structure_ok for g in oracles.w_walk(r, s, memo)), s.decisions
        plan, source = fiedler._plan_of(r), fiedler._source(r, r.dtype)
        assert all(plan.tail(s, source)[1:] == (True, False) for s in strings)
        path = tmp_path / "equal.json"
        path.write_text(emit_rsmp(r))
        assert cli.main(["verify", str(path), "--all"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == len(strings)
        assert all(rec["sizes_ok"] and not rec["structure_ok"] and rec["verdict"] == "fail" for rec in records)

    def test_one_plan_per_cell_and_no_float_in_it(self, fresh_plans):
        # two instances of one cell share one plan object and get their own
        # values; once every string is walked the plan holds integers only
        rng = np.random.default_rng(2403)
        cell = (2, 3, 1, 4, 3)
        r1, r2 = random_rsmp(rng, *cell), oracles.spread_rsmp(rng, *cell)
        plan = fiedler._plan_of(r1)
        assert fiedler._plan_of(r2) is plan and fiedler._plan(*cell) is plan
        for s in all_decision_strings(4):
            t1 = plan.tail(s, fiedler._source(r1, np.float64))[0]
            t2 = plan.tail(s, fiedler._source(r2, np.complex128))[0]
            assert np.array_equal(t1.matrix, fiedler_pencil_rect(r1, s).tail.real)
            assert t2.matrix.tobytes() == fiedler_pencil_rect(r2, s).tail.tobytes()
            assert (t1.rsz, t1.csz) == (t2.rsz, t2.csz) and not np.array_equal(t1.matrix, t2.matrix)
        held = [getattr(plan, name) for name in type(plan).__slots__]
        assert all(x is None or isinstance(x, int) or x.dtype.kind in "iu" for x in held), held
        assert sum(isinstance(x, np.ndarray) for x in held) == 4

    @pytest.mark.parametrize("cells", [_GRID_VERIFY_CELLS, _DEEP_VERIFY_CELLS], ids=["grid_verify", "deep_verify"])
    def test_plans_hold_at_most_half_a_mebibyte(self, cells, fresh_plans):
        # the plans of one round of a workload's cells, every string walked,
        # under tracemalloc: a first round fills the interpreter's caches, a
        # second, after the plans are dropped, is measured
        sources = {cell: fiedler._source(random_rsmp(np.random.default_rng(7), *cell), np.float64) for cell in cells}
        strings = {d: list(all_decision_strings(d)) for d in range(1, 8)}

        def one_round():
            for cell in cells:
                plan = fiedler._plan(*cell)
                for s in strings[max(cell[3:])]:
                    plan.tail(s, sources[cell])

        tracemalloc.start()
        try:
            one_round()
            fiedler._plan.cache_clear()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            one_round()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert fiedler._plan.cache_info().currsize == len(set(cells))
        assert 0 < held <= 2**19, held

    def test_the_lru_holds_the_acceptance_grid(self, fresh_plans):
        first = fiedler._plan(*_GRID_CELLS[0])
        for cell in _GRID_CELLS + _DEEP_VERIFY_CELLS:
            fiedler._plan(*cell)
        assert fiedler._plan(*_GRID_CELLS[0]) is first
        assert fiedler._plan.cache_info().currsize == len(_GRID_CELLS) + len(_DEEP_VERIFY_CELLS)
