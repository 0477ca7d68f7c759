import warnings

import numpy as np
import pytest

from rosenpencil import DimensionError, IrregularWarning, MatrixPolynomial, Rsmp, emit_rsmp, is_regular, parse_rsmp
from rosenpencil.equivalence import sample_points

from oracles import horner_shift


def naive_eval(p, z):
    return sum(z**k * p.coeffs[k] for k in range(p.degree + 1))


class TestEval:
    def test_linear_scalar_root(self):
        p = MatrixPolynomial([[[-1.0]], [[1.0]]])  # lambda - 1
        assert p.eval(1.0) == np.array([[0.0]])

    def test_at_zero_returns_constant_term(self, rng):
        p = MatrixPolynomial(rng.standard_normal((4, 2, 3)) + 0j)
        assert np.array_equal(p.eval(0.0), p.coeffs[0])

    def test_matches_naive_power_sum(self, rng):
        p = MatrixPolynomial(rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
        z = 0.7 + 0.3j
        got = p.eval(z)
        want = naive_eval(p, z)
        assert np.max(np.abs(got - want)) <= 1e-14 * (1 + np.max(np.abs(want)))

    def test_horner_vs_naive_200_random(self, rng):
        for _ in range(200):
            deg = int(rng.integers(1, 6))
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 4))
            p = MatrixPolynomial(
                rng.standard_normal((deg + 1, rows, cols))
                + 1j * rng.standard_normal((deg + 1, rows, cols))
            )
            z = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
            tol = 1e-12 * (1 + p.norm_inf() * max(1.0, abs(z)) ** p.degree)
            assert np.max(np.abs(p.eval(z) - naive_eval(p, z))) <= tol


class TestEvalStack:
    def test_each_slice_is_scalar_eval_bit_for_bit(self, rng):
        for trial in range(800):
            points = trial % 8 + 1
            deg = int(rng.integers(0, 6))
            # one polynomial in four is 1x1, where one-point stacks once rounded differently
            rows, cols = (1, 1) if trial % 32 < 8 else (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            p = MatrixPolynomial(
                rng.standard_normal((deg + 1, rows, cols))
                + 1j * rng.standard_normal((deg + 1, rows, cols))
            )
            zs = 2.0 * (rng.standard_normal(points) + 1j * rng.standard_normal(points))
            stack = p.eval_stack(zs)
            assert stack.shape == (points, rows, cols)
            for k, z in enumerate(zs):
                assert np.array_equal(stack[k], p.eval(z))
                assert np.array_equal(stack[k], p.eval(complex(z)))
                assert np.array_equal(stack[k], p.eval_stack(zs[k : k + 1])[0])

    @staticmethod
    def _witness_like(rng, deg, rows, cols):
        """Coefficients with constant, zero (either sign) and polynomial entries, as in U and V."""
        c = rng.standard_normal((deg + 1, rows, cols)) + 1j * rng.standard_normal((deg + 1, rows, cols))
        kind = rng.integers(0, 4, size=(rows, cols))
        c[1:, kind == 0] = 0.0  # constant
        c[:, kind == 1] = 0.0  # zero
        c[:, kind == 2] = -0.0  # zero with negative zero parts
        return c

    def _assert_each_slice_is_eval(self, p, zs):
        stack = p.eval_stack(zs)
        assert stack.shape == (len(zs), p.rows, p.cols)
        for k, z in enumerate(zs):
            # a zero part may differ in sign from eval's, so not tobytes
            assert np.array_equal(stack[k], p.eval(z))

    def test_witness_like_entries(self, rng):
        for trial in range(400):
            deg = int(rng.integers(1, 7))
            rows, cols = (1, 1) if trial % 8 == 0 else (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            p = MatrixPolynomial(self._witness_like(rng, deg, rows, cols))
            zs = sample_points(trial % 9 + 1, rng)
            self._assert_each_slice_is_eval(p, zs)
            # the cached entries serve a second call alike
            self._assert_each_slice_is_eval(p, zs[::-1])

    def test_degree_zero(self, rng):
        for rows, cols in ((1, 1), (3, 2)):
            p = MatrixPolynomial(self._witness_like(rng, 0, rows, cols))
            for points in (1, 2, 5):
                self._assert_each_slice_is_eval(p, sample_points(points, rng))

    def test_one_by_one(self, rng):
        for c in ([[[2.0 - 1j]], [[0.0]], [[0.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]], [[3.0j]]]):
            p = MatrixPolynomial(c)
            for points in (1, 2, 7):
                self._assert_each_slice_is_eval(p, sample_points(points, rng))

    def test_all_entries_polynomial(self, rng):
        for deg, rows, cols in ((1, 4, 4), (3, 2, 5), (6, 1, 3)):
            c = rng.standard_normal((deg + 1, rows, cols)) + 1j * rng.standard_normal((deg + 1, rows, cols))
            c[-1] += 1.0  # a nonzero leading coefficient in every entry
            p = MatrixPolynomial(c)
            for points in (1, 2, 9):
                self._assert_each_slice_is_eval(p, sample_points(points, rng))

    def test_one_point_stacks(self, rng):
        for trial in range(100):
            deg = int(rng.integers(0, 5))
            p = MatrixPolynomial(self._witness_like(rng, deg, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            z = sample_points(1, rng)
            # a one-point stack is eval itself, zero signs included
            assert p.eval_stack(z)[0].tobytes() == p.eval(z[0]).tobytes()

    def test_single_point_and_real_points(self):
        p = MatrixPolynomial([[[-1.0]], [[1.0]]])  # lambda - 1
        assert p.eval_stack([1.0]).shape == (1, 1, 1)
        assert np.array_equal(p.eval_stack([1.0, 3.0])[:, 0, 0], [0.0, 2.0])


class TestHornerShift:
    """The Horner-shift reference that the witness tests lean on."""

    def test_shift_zero_is_leading_coefficient(self, rng):
        p = MatrixPolynomial(rng.standard_normal((5, 2, 2)) + 0j)
        s0 = horner_shift(p, 0)
        assert s0.degree == 0
        assert np.array_equal(s0.coeffs[0], p.coeffs[-1])

    def test_full_shift_is_identity(self, rng):
        p = MatrixPolynomial(rng.standard_normal((4, 3, 2)) + 0j)
        assert np.array_equal(horner_shift(p, p.degree).coeffs, p.coeffs)

    def test_scalar_example(self):
        p = MatrixPolynomial([[[1.0]], [[2.0]], [[3.0]]])  # 1 + 2l + 3l^2
        s1 = horner_shift(p, 1)  # 2 + 3l
        assert np.array_equal(s1.coeffs[:, 0, 0], [2.0, 3.0])

    def test_recurrence_exact_on_integers(self, rng):
        p = MatrixPolynomial(rng.integers(-5, 6, size=(5, 2, 2)).astype(complex))
        d = p.degree
        for k in range(d):
            z = complex(int(rng.integers(-3, 4)))
            lhs = horner_shift(p, k + 1).eval(z)
            rhs = z * horner_shift(p, k).eval(z) + p.coeffs[d - k - 1]
            assert np.array_equal(lhs, rhs)

    def test_recurrence_float(self, rng):
        p = MatrixPolynomial(rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)))
        d = p.degree
        for k in range(d):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            lhs = horner_shift(p, k + 1).eval(z)
            rhs = z * horner_shift(p, k).eval(z) + p.coeffs[d - k - 1]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + p.norm_inf())

    def test_out_of_range(self):
        p = MatrixPolynomial([[[1.0]], [[2.0]]])
        with pytest.raises(ValueError):
            horner_shift(p, 2)


class TestRegularity:
    def test_linear_regular(self):
        assert is_regular(MatrixPolynomial([[[-1.0]], [[1.0]]]))

    def test_zero_polynomial_singular_every_seed(self):
        z = MatrixPolynomial(np.zeros((3, 2, 2)))
        for seed in range(6):
            assert not is_regular(z, rng_seed=seed)

    def test_rank_one_everywhere_singular(self):
        # [[l, l], [l, l]] has rank one at every point
        c1 = np.ones((2, 2), dtype=complex)
        p = MatrixPolynomial([np.zeros((2, 2)), c1])
        for seed in range(6):
            assert not is_regular(p, rng_seed=seed)

    def test_nonsquare_rejected(self):
        p = MatrixPolynomial(np.ones((2, 2, 3)))
        with pytest.raises(DimensionError):
            is_regular(p)

    def test_huge_leading_entry_is_regular_without_overflow(self):
        # integer coefficients scaled so that the leading coefficient holds
        # 1.7e308: p(z) and its 1-norm overflow unless the test scales first
        c = np.array([[[6.0, -8.0], [-6.0, -5.0]], [[9.0, 6.0], [7.0, 2.0]]]) * (1.7e308 / 9.0)
        p = MatrixPolynomial(c)
        d = MatrixPolynomial([[[1.0]], [[2.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(6):
                assert is_regular(p, rng_seed=seed)
            r = parse_rsmp(emit_rsmp(Rsmp(p, [[1.0], [0.0]], [[0.0, 1.0]], d)))
        assert r.a_regular

    def test_huge_irregular_polynomial_stays_irregular(self):
        # equal rows at every lambda, with the largest entry at 1.7e308
        c = np.array([[[1.0, 2.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]]) * (1.7e308 / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(6):
                assert not is_regular(MatrixPolynomial(c), rng_seed=seed)

    @pytest.mark.parametrize("big", [1e12, 1.7e308])
    def test_badly_scaled_column_is_regular(self, big):
        # det = (1 + big z)(4 + z) - 6: regular, with one column far larger than the other
        c = np.array([[[1.0, 2.0], [3.0, 4.0]], [[big, 0.0], [0.0, 1.0]]])
        p = MatrixPolynomial(c)
        d = MatrixPolynomial([[[1.0]], [[2.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(4):
                assert is_regular(p, rng_seed=seed)
            r = Rsmp(p, [[1.0], [0.0]], [[0.0, 1.0]], d)
        assert r.a_regular

    @pytest.mark.parametrize("transpose", [False, True], ids=["rows", "columns"])
    def test_badly_scaled_row_is_regular(self, transpose):
        # det [[1e12 z, 1e12], [1, 2]] = 1e12 (2z - 1): regular, with one row,
        # or in the transpose one column, far larger than the other
        c = np.array([[[0.0, 1e12], [1.0, 2.0]], [[1e12, 0.0], [0.0, 0.0]]])
        p = MatrixPolynomial(c.transpose(0, 2, 1) if transpose else c)
        for seed in range(4):
            assert is_regular(p, rng_seed=seed)

    def test_badly_scaled_singular_polynomial_stays_singular(self):
        # the second column is twice the first at every lambda, and the first holds 1 + 1e12 z
        c = np.array([[[1.0, 2.0], [1.0, 2.0]], [[1e12, 2e12], [0.0, 0.0]]])
        p = MatrixPolynomial(c)
        for seed in range(6):
            assert not is_regular(p, rng_seed=seed)
        with pytest.warns(IrregularWarning):
            r = Rsmp(p, [[1.0], [0.0]], [[0.0, 1.0]], MatrixPolynomial([[[1.0]], [[2.0]]]))
        assert not r.a_regular


class TestInvariants:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            MatrixPolynomial([[[np.nan]]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            MatrixPolynomial([np.eye(2), np.eye(3)])

    def test_declared_vs_effective_degree(self):
        p = MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
        assert p.degree == 1
        assert p.effective_degree() == 0

    def test_coefficients_read_only(self):
        p = MatrixPolynomial([np.eye(2)])
        with pytest.raises(ValueError):
            p.coeffs[0, 0, 0] = 5.0

    def test_coefficients_cannot_be_replaced(self):
        # replacing the array would get round the finiteness check
        p = MatrixPolynomial([np.eye(2)])
        with pytest.raises(AttributeError):
            p.coeffs = np.full((1, 2, 2), np.nan, dtype=complex)
        assert np.array_equal(p.coeffs[0], np.eye(2))
