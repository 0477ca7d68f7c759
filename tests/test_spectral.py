import numpy as np
import pytest

import oracles
from rosenpencil import (
    AllSamplesSingular,
    DimensionError,
    HoldoutResidual,
    MatrixPolynomial,
    PoleError,
    Rsmp,
    SigmaSeq,
    SingularInput,
    assemble_s,
    companion_first,
    companion_second,
    det_poly,
    discrepancy_report,
    eigenvalues_square,
    fiedler_pencil_rect,
    is_eigenvalue,
    normal_rank,
    poly_roots,
    rank_at,
    transfer_eval,
)
from rosenpencil.polycore import scalar_poly_trim
from rosenpencil.sampling import random_bijection, random_rsmp
from rosenpencil.spectral import cluster_roots


class TestDetPoly:
    def test_worked_example_linear_determinant(self, worked_example):
        c = scalar_poly_trim(det_poly(assemble_s(worked_example)), rel_tol=1e-9)
        # +-(lambda - 1)
        assert c.size == 2
        ratio = c / c[1]
        assert np.allclose(ratio, [-1.0, 1.0], atol=1e-9)

    def test_diagonal_product(self):
        # diag(l - 2, l + 3) -> (l-2)(l+3) = -6 + l + l^2
        p = MatrixPolynomial(
            [np.diag([-2.0, 3.0]).astype(complex), np.eye(2).astype(complex)]
        )
        c = scalar_poly_trim(det_poly(p), rel_tol=1e-9)
        assert np.allclose(c, [-6.0, 1.0, 1.0], atol=1e-9)

    def test_matches_exact_cofactor_oracle(self, rng):
        for _ in range(10):
            p = MatrixPolynomial(rng.integers(-4, 5, size=(3, 3, 3)).astype(complex))
            got = det_poly(p)
            want = np.array(oracles.det_cofactor(oracles.entry_polys(p)))
            got = got[: want.size]
            assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))

    def test_desk_scale_guard(self):
        p = MatrixPolynomial(np.ones((10, 9, 9)).astype(complex))
        with pytest.raises(DimensionError):
            det_poly(p)

    def test_overflowing_determinant_fails_the_holdout(self, overflowing_example):
        # the node determinants overflow and the coefficients come out NaN,
        # which no holdout check may certify
        with pytest.raises(HoldoutResidual):
            det_poly(assemble_s(overflowing_example))


class TestPolyRoots:
    def test_linear(self):
        roots = poly_roots([-1.0, 1.0])
        assert len(roots) == 1
        z, k = roots[0]
        assert abs(z - 1.0) < 1e-12 and k == 1

    def test_double_root_clusters(self):
        # (l-1)^2 = 1 - 2l + l^2
        roots = poly_roots([1.0, -2.0, 1.0])
        assert len(roots) == 1
        z, k = roots[0]
        assert abs(z - 1.0) < 1e-6 and k == 2

    def test_factored_degree_six(self, rng):
        want = np.array([1.0, -2.0, 0.5 + 1.0j, 0.5 - 1.0j, 3.0, -0.25])
        coeffs = np.array([1.0 + 0.0j])
        for w in want:
            coeffs = np.convolve(coeffs, [-w, 1.0])
        got = [z for z, k in poly_roots(coeffs) for _ in range(k)]
        assert oracles.multisets_match(got, list(want), 1e-8)

    def test_known_gaussian_integer_roots(self, rng):
        # products of (x - r) over integer and Gaussian-integer roots, some
        # doubled; a double root splits by about sqrt(eps * condition), up to
        # ~2e-6 on such products, so the tolerance is 1e-5
        grid = np.array([complex(a, b) for a in range(-3, 4) for b in range(-2, 3)])
        for deg in (1, 2, 3, 5, 8, 12, 17, 23, 30):
            for _ in range(3):
                doubles = int(rng.integers(0, min(3, deg // 2) + 1))
                distinct = rng.choice(grid, size=deg - doubles, replace=False)
                want = list(distinct) + list(distinct[:doubles])
                coeffs = np.array([1.0 + 0.0j])
                for w in want:
                    coeffs = np.convolve(coeffs, [-w, 1.0])
                got = [z for z, k in poly_roots(coeffs) for _ in range(k)]
                assert oracles.multisets_match(got, want, 1e-5), (deg, want)

    def test_agrees_with_aberth_iteration(self, rng):
        # random integer polynomials can carry multiple roots, where both
        # methods are limited to ~1e-6; the clustering radius reflects that
        for _ in range(20):
            deg = int(rng.integers(1, 7))
            c = rng.integers(-4, 5, size=deg + 1).astype(complex)
            c[-1] = c[-1] if c[-1] != 0 else 1.0
            got = [z for z, k in poly_roots(c) for _ in range(k)]
            want = [z for z, k in oracles.poly_roots_aberth(c) for _ in range(k)]
            assert oracles.multisets_match(got, want, 2e-6)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots([3.0])


class TestClusterRoots:
    def test_multiplicities_match_the_mean_rule(self, rng):
        # near-duplicates straddle the radius, so the greedy order matters
        radius = 1e-6
        for _ in range(300):
            centers = rng.integers(-2, 3, size=int(rng.integers(1, 6))) + 1j * rng.integers(-2, 3, size=1)
            pts = np.repeat(centers, rng.integers(1, 5, size=centers.size))
            pts = pts + radius * rng.uniform(-1.2, 1.2, size=pts.size) * np.exp(2j * np.pi * rng.uniform(size=pts.size))
            got = cluster_roots(pts, radius)
            want = oracles.cluster_roots_mean(pts, radius)
            assert [k for _, k in got] == [k for _, k in want]
            assert np.allclose([z for z, _ in got], [z for z, _ in want], rtol=0.0, atol=1e-15)

    def test_single_points_and_empty(self):
        assert cluster_roots([]) == []
        assert cluster_roots([2.0, 1.0]) == [(1.0, 1), (2.0, 1)]


class TestEigenvaluesSquare:
    def test_worked_example_state_poles(self, worked_example):
        spec = eigenvalues_square(worked_example.A)
        assert len(spec.eigenvalues) == 1
        z, k = spec.eigenvalues[0]
        assert abs(z - 1.0) < 1e-10 and k == 1

    def test_worked_example_system(self, worked_example):
        spec = eigenvalues_square(assemble_s(worked_example))
        assert len(spec.eigenvalues) == 1
        assert abs(spec.eigenvalues[0][0] - 1.0) < 1e-10

    def test_companions_agree_with_system_matrix(self, rng):
        done = 0
        while done < 50:
            n, pm = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            da, dd = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            try:
                want = eigenvalues_square(assemble_s(r)).values()
                got = eigenvalues_square(companion_first(r)).values()
            except SingularInput:
                continue
            done += 1
            assert oracles.multisets_match(got, want, 1e-6)

    def test_singular_input(self):
        p = MatrixPolynomial(np.zeros((2, 2, 2)))
        with pytest.raises(SingularInput):
            eigenvalues_square(p)


class TestRank:
    def test_identity(self):
        assert rank_at(np.eye(3)) == 3

    def test_outer_product(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert rank_at(np.outer(u, v.conj())) == 1

    def test_constructed_rank(self, rng):
        for k in (1, 2, 3):
            a = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
            b = rng.standard_normal((k, 5)) + 1j * rng.standard_normal((k, 5))
            assert rank_at(a @ b) == k

    def test_unitary_invariance(self, rng):
        m = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert rank_at(q1 @ m @ q2) == rank_at(m) == 3

    def test_zero_matrix(self):
        assert rank_at(np.zeros((3, 2))) == 0


class TestNormalRank:
    def test_worked_example_transfer(self, worked_example):
        assert normal_rank(lambda z: transfer_eval(worked_example, z)) == 2

    def test_zero_function_is_rank_zero(self):
        assert normal_rank(lambda z: np.zeros((2, 3))) == 0

    def test_all_samples_singular(self):
        def boom(z):
            raise PoleError("everywhere")

        with pytest.raises(AllSamplesSingular):
            normal_rank(boom)

    def test_rect_pencil_full_rank_generically(self, rng):
        r = random_rsmp(rng, 2, 1, 3, 3, 2)
        pencil = fiedler_pencil_rect(r, SigmaSeq("CI"))
        assert normal_rank(pencil) == min(pencil.shape)


class TestIsEigenvalue:
    def test_worked_example_trio(self, worked_example):
        r = worked_example
        nr = normal_rank(lambda z: transfer_eval(r, z))
        with pytest.raises(PoleError):
            is_eigenvalue(lambda z: transfer_eval(r, z), 1.0, nr)
        s_poly = assemble_s(r)
        assert is_eigenvalue(s_poly, 1.0, normal_rank(s_poly))
        from rosenpencil import clear_denominator

        cleared = clear_denominator(r, [-1.0, 1.0])
        assert is_eigenvalue(cleared, 1.0, normal_rank(cleared))


class TestDiscrepancy:
    def test_worked_example_narrative(self, worked_example):
        rep = discrepancy_report(worked_example)
        assert len(rep.s_eigenvalues) == 1
        assert abs(rep.s_eigenvalues[0][0] - 1.0) < 1e-10
        assert rep.transfer_tests == [(pytest.approx(1.0, abs=1e-8), "pole")]
        assert len(rep.cleared_eigenvalues) == 1
        z, k = rep.cleared_eigenvalues[0]
        assert abs(z - 1.0) < 1e-6 and k == 2
        assert len(rep.cleared_minus_s) == 1 and abs(rep.cleared_minus_s[0] - 1.0) < 1e-6
        assert rep.s_minus_cleared == []

    def test_decoupled_case(self, rng):
        # B = C = 0: system eigenvalues are the union of the two sides,
        # transfer eigenvalues are the feedthrough's
        a = MatrixPolynomial([np.diag([-1.0, -2.0]).astype(complex), np.eye(2).astype(complex)])
        d = MatrixPolynomial([np.diag([-3.0, -4.0]).astype(complex), np.eye(2).astype(complex)])
        r = Rsmp(a, np.zeros((2, 2)), np.zeros((2, 2)), d)
        rep = discrepancy_report(r)
        s_vals = rep.s_eigenvalues
        got = [z for z, k in s_vals for _ in range(k)]
        assert oracles.multisets_match(got, [1.0, 2.0, 3.0, 4.0], 1e-7)
        statuses = dict(
            (round(z.real, 6), status) for z, status in rep.transfer_tests
        )
        assert statuses[1.0] == "pole" and statuses[2.0] == "pole"
        assert statuses[3.0] == "eigenvalue" and statuses[4.0] == "eigenvalue"

    def test_random_instance_consistency(self, rng):
        done = 0
        while done < 10:
            r = random_rsmp(rng, int(rng.integers(1, 3)), 2, 2, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            try:
                rep = discrepancy_report(r)
            except SingularInput:
                continue
            done += 1
            # every reported transfer eigenvalue really drops the rank
            nr = normal_rank(lambda z: transfer_eval(r, z))
            for z, status in rep.transfer_tests:
                if status == "eigenvalue":
                    assert rank_at(transfer_eval(r, z)) < nr

    def test_rectangular_rejected(self, rng):
        r = random_rsmp(rng, 1, 2, 1, 1, 1)
        with pytest.raises(DimensionError):
            discrepancy_report(r)


class TestOracleChain:
    def test_all_routes_agree(self, rng):
        # system matrix, both companions, and decision pencils share spectra
        done = 0
        while done < 12:
            n, pm = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            da, dd = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            r = random_rsmp(rng, n, pm, pm, da, dd)
            try:
                want = eigenvalues_square(assemble_s(r)).values()
                routes = [
                    eigenvalues_square(companion_first(r)).values(),
                    eigenvalues_square(companion_second(r)).values(),
                ]
                for _ in range(2):
                    perm = random_bijection(rng, max(da, dd))
                    pencil = fiedler_pencil_rect(r, SigmaSeq.from_bijection(perm))
                    routes.append(eigenvalues_square(pencil).values())
            except SingularInput:
                continue
            done += 1
            for got in routes:
                assert oracles.multisets_match(got, want, 1e-6)
