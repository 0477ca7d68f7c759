import warnings

import numpy as np
import pytest

from rosenpencil import (
    InterpolationResidual,
    IrregularWarning,
    MatrixPolynomial,
    PoleError,
    Rsmp,
    SingularInput,
    assemble_s,
    clear_denominator,
    eigenvalues_square,
    transfer_eval,
    transfer_eval_stack,
)
from rosenpencil.sampling import random_rsmp

import oracles


class TestAssemble:
    def test_worked_example_matches_display(self, worked_example):
        s = assemble_s(worked_example)
        want0 = np.array([[-1, 1, 0], [-1, -2, 1], [0, 1, 0]], dtype=complex)
        want1 = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=complex)
        assert np.array_equal(s.coeffs[0], want0)
        assert np.array_equal(s.coeffs[1], want1)

    def test_decoupled_is_block_diagonal(self, rng):
        a = MatrixPolynomial(rng.integers(-3, 4, size=(3, 2, 2)).astype(complex))
        d = MatrixPolynomial(rng.integers(-3, 4, size=(2, 3, 1)).astype(complex))
        r = Rsmp(a, np.zeros((2, 1)), np.zeros((3, 2)), d, check_regular=False)
        s = assemble_s(r)
        for k in range(s.degree + 1):
            assert not np.any(s.coeffs[k][:2, 2:])
            assert not np.any(s.coeffs[k][2:, :2])

    def test_blockwise_evaluation_oracle(self, rng):
        for _ in range(100):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            da, dd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r = random_rsmp(rng, n, p, m, da, dd)
            z = rng.standard_normal() + 1j * rng.standard_normal()
            sz = assemble_s(r).eval(z)
            assert np.allclose(sz[:n, :n], r.A.eval(z))
            assert np.allclose(sz[:n, n:], -r.B)
            assert np.allclose(sz[n:, :n], r.C)
            assert np.allclose(sz[n:, n:], r.D.eval(z))

    def test_block_extraction_round_trips(self, rng):
        r = random_rsmp(rng, 2, 3, 2, 3, 2)
        s = assemble_s(r)
        n = r.n
        assert np.array_equal(s.coeffs[0][:n, n:], -r.B)
        assert np.array_equal(s.coeffs[0][n:, :n], r.C)
        for k in range(r.d_a + 1):
            assert np.array_equal(s.coeffs[k][:n, :n], r.A.coeff(k))
        for k in range(r.d_d + 1):
            assert np.array_equal(s.coeffs[k][n:, n:], r.D.coeff(k))

    def test_method_form_is_kept(self, rng):
        # instances are immutable, so the method assembles S once
        r = random_rsmp(rng, 2, 3, 1, 2, 3)
        s = r.assemble_s()
        assert r.assemble_s() is s
        assert not s.coeffs.flags.writeable
        assert s.coeffs.tobytes() == assemble_s(r).coeffs.tobytes()
        assert r.transpose().assemble_s() is not s


    def test_attributes_cannot_be_set(self, rng):
        # a changed A would leave the kept S stale, and verify checks against S
        r = random_rsmp(rng, 2, 1, 1, 2, 1)
        s = r.assemble_s()
        for name in ("A", "B", "C", "D", "a_regular", "_s", "_transposed"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        assert r.assemble_s() is s
        assert r.transpose().transpose() is r


class TestTranspose:
    @pytest.mark.parametrize("data", ["integer", "spread"])
    def test_system_matrix_is_transposed(self, rng, data):
        draw = random_rsmp if data == "integer" else oracles.spread_rsmp
        for n, p, m, da, dd in [(2, 3, 1, 3, 2), (1, 2, 3, 1, 4), (3, 1, 2, 2, 2)]:
            r = draw(rng, n, p, m, da, dd)
            rt = r.transpose()
            assert (rt.n, rt.p, rt.m, rt.d_a, rt.d_d) == (n, m, p, da, dd)
            want = assemble_s(r).coeffs.transpose(0, 2, 1)
            got = assemble_s(rt).coeffs
            assert np.ascontiguousarray(want).tobytes() == got.tobytes()

    def test_kept_and_involutive(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        assert r.transpose() is r.transpose()
        assert r.transpose().transpose() is r

    def test_carries_regularity_flag(self):
        a = MatrixPolynomial(np.zeros((2, 2, 2)))
        d = MatrixPolynomial(np.ones((2, 1, 1)))
        with pytest.warns(IrregularWarning):
            r = Rsmp(a, np.zeros((2, 1)), np.zeros((1, 2)), d)
        assert not r.transpose().a_regular


class TestCoefficients:
    def test_float64_copy_of_a_real_instance(self, rng):
        r = random_rsmp(rng, 2, 3, 1, 3, 2)
        assert r.real and r.dtype == np.float64
        own = r.coefficients(np.complex128)
        assert own == (r.A.coeffs, r.B, r.C, r.D.coeffs)
        assert all(x is y for x, y in zip(own, (r.A.coeffs, r.B, r.C, r.D.coeffs)))
        real = r.coefficients(np.float64)
        assert real is r.coefficients(np.dtype(float)) is r.coefficients(float)
        for x, y in zip(real, own):
            assert x.dtype == np.float64 and x.flags.c_contiguous and not x.flags.writeable
            assert np.array_equal(x, y.real) and not y.imag.any()
        t = r.transpose()
        assert t.dtype == np.float64 and t.coefficients(np.float64) is not real
        assert np.array_equal(t.coefficients(np.float64).B, -real.C.T)

    def test_complex_instance_has_no_float64_copy(self, rng):
        r = oracles.spread_rsmp(rng, 2, 1, 2, 2, 3)
        assert not r.real and r.dtype == np.complex128
        assert r.coefficients(complex).A is r.A.coeffs
        for dtype in (np.float64, np.float32, np.int64):
            with pytest.raises(ValueError):
                r.coefficients(dtype)


class TestTransfer:
    def test_worked_example_at_two(self, worked_example):
        got = transfer_eval(worked_example, 2.0)
        assert np.allclose(got, [[1.0, 1.0], [1.0, 0.0]], atol=1e-13)

    def test_worked_example_pole(self, worked_example):
        with pytest.raises(PoleError):
            transfer_eval(worked_example, 1.0)
        values, poles = transfer_eval_stack(worked_example, [2.0, 1.0])
        assert poles.tolist() == [False, True]
        assert np.all(np.isnan(values[1]))

    @pytest.mark.parametrize(
        "shape", [(n, pm, pm) for n in (1, 2, 3) for pm in (1, 2, 3)] + [(2, 1, 3), (3, 2, 1), (1, 3, 2)]
    )
    def test_one_point_is_the_slice_of_the_stack(self, shape):
        rng = np.random.default_rng(list(shape))
        for d_a, d_d in ((1, 1), (2, 3), (3, 1), (3, 3)):
            r = random_rsmp(rng, *shape, d_a, d_d)
            # random points, then the state polynomial's eigenvalues, which are poles
            zs = np.concatenate(
                [2.0 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)), eigenvalues_square(r.A).values()]
            )
            values, poles = transfer_eval_stack(r, zs)
            assert values.shape == (zs.size, r.p, r.m)
            assert not poles[:5].any() and poles[5:].any()
            for k, z in enumerate(zs):
                if poles[k]:
                    assert np.all(np.isnan(values[k]))
                    with pytest.raises(PoleError):
                        transfer_eval(r, z)
                else:
                    assert np.array_equal(transfer_eval(r, z), values[k])

    def test_empty_stack(self, worked_example):
        values, poles = transfer_eval_stack(worked_example, [])
        assert values.shape == (0, 2, 2) and poles.shape == (0,)

    def test_vanishing_coupling_gives_feedthrough(self, rng):
        a = MatrixPolynomial(rng.integers(-3, 4, size=(3, 2, 2)).astype(complex) + np.stack([np.eye(2)] * 3))
        d = MatrixPolynomial(rng.integers(-3, 4, size=(2, 2, 3)).astype(complex))
        r = Rsmp(a, rng.integers(-3, 4, size=(2, 3)).astype(complex), np.zeros((2, 2)), d)
        z = 0.7 + 0.2j
        assert np.allclose(transfer_eval(r, z), r.D.eval(z))

    def test_state_elimination_agrees(self, rng):
        # solving the coupled linear system and using the transfer function
        # give the same output for matched inputs
        for _ in range(100):
            n, p, m = (int(rng.integers(1, 4)) for _ in range(3))
            r = random_rsmp(rng, n, p, m, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            z = rng.uniform(0.6, 1.8) * np.exp(2j * np.pi * rng.uniform())
            eta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            try:
                y1 = transfer_eval(r, z) @ eta
            except PoleError:
                continue
            xi = np.linalg.solve(r.A.eval(z), r.B @ eta)
            y2 = r.C @ xi + r.D.eval(z) @ eta
            assert np.max(np.abs(y1 - y2)) <= 1e-10 * (1 + np.max(np.abs(y1)))


class TestIrregular:
    def test_construction_warns_then_refuses(self):
        a = MatrixPolynomial(np.zeros((2, 2, 2)))  # identically singular state
        d = MatrixPolynomial(np.ones((2, 1, 1)))
        with pytest.warns(IrregularWarning):
            r = Rsmp(a, np.zeros((2, 1)), np.zeros((1, 2)), d)
        assert not r.a_regular
        with pytest.raises(SingularInput):
            transfer_eval(r, 0.5)
        with pytest.raises(SingularInput):
            clear_denominator(r, [1.0])

    def test_large_coefficients_are_regular(self):
        # a 2x2 state of degree 3 with coefficients near 1e160: det A(z) and
        # (1-norm)^2 both overflow unless A(z) is scaled before the determinant
        big = 1e160
        a = MatrixPolynomial(
            big * np.array([[[2, 1], [0, -1]], [[1, 0], [3, 1]], [[0, 2], [1, 0]], [[1, 0], [0, 1]]])
        )
        d = MatrixPolynomial(big * np.ones((4, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = Rsmp(a, big * np.eye(2), -big * np.eye(2), d)
        assert r.a_regular


class TestClearDenominator:
    def test_worked_example_clears_to_quadratic(self, worked_example):
        p = clear_denominator(worked_example, [-1.0, 1.0])  # lambda - 1
        assert p.degree == 2
        # [[ (l-1)(l-2)+1, l-1 ], [ l-1, 0 ]]
        for z in (0.0, 2.5, 1.0 + 1.0j):
            want = np.array(
                [[(z - 1) * (z - 2) + 1, z - 1], [z - 1, 0.0]], dtype=complex
            )
            assert np.max(np.abs(p.eval(z) - want)) <= 1e-9 * (1 + abs(z)) ** 2

    def test_trivial_scalar_when_already_polynomial(self, rng):
        a = MatrixPolynomial(np.stack([np.eye(2), np.eye(2)]).astype(complex))
        d = MatrixPolynomial(rng.integers(-3, 4, size=(3, 2, 2)).astype(complex))
        r = Rsmp(a, rng.integers(-3, 4, size=(2, 2)).astype(complex), np.zeros((2, 2)), d)
        p = clear_denominator(r, [1.0])
        for z in (0.3, -1.2 + 0.4j):
            assert np.allclose(p.eval(z), r.D.eval(z), atol=1e-10)

    def test_uncleared_pole_raises(self, worked_example):
        with pytest.raises(InterpolationResidual):
            clear_denominator(worked_example, [1.0])

    def test_zero_polynomial_rejected(self, worked_example):
        with pytest.raises(ValueError):
            clear_denominator(worked_example, [0.0])
