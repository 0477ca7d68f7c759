import itertools

import numpy as np
import pytest

import oracles
from rosenpencil import (
    AllSamplesSingular,
    DimensionError,
    HoldoutResidual,
    InterpolationResidual,
    MatrixPolynomial,
    PoleError,
    Rsmp,
    SigmaSeq,
    SingularInput,
    assemble_s,
    clear_denominator,
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
from rosenpencil import spectral
from rosenpencil.spectral import _ranks, cluster_roots


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


# every square cell of the eig benchmark workload's grid, the cells it leaves out included
SQUARE_CELLS = [(n, p, p, d_a, d_d) for n in (1, 2, 3) for p in (1, 2, 3) for d_a in range(1, 6) for d_d in range(1, 6)]


def _outcome(fn, *args):
    """A call's coefficient stack, or the type and text of the interpolation error it raised."""
    try:
        out = fn(*args)
    except (HoldoutResidual, InterpolationResidual) as exc:
        return type(exc), str(exc)
    return getattr(out, "coeffs", out)


def _assert_same(new, old):
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and new.dtype == old.dtype and np.array_equal(new, old)
    else:
        assert new == old


def _nan_on_call(real, k):
    """``real``, except that its k-th call returns NaN in place of its result."""
    calls = []

    def wrapped(*args):
        calls.append(1)
        out = real(*args)
        return out * np.nan if len(calls) == k else out

    return wrapped


class TestStackedAgainstPointwise:
    """det_poly and clear_denominator against their pointwise references, bit for bit."""

    @pytest.mark.parametrize("seed", [2201, 2202])
    def test_the_square_cells(self, seed):
        rng = np.random.default_rng(seed)
        for cell in SQUARE_CELLS:
            for r in (random_rsmp(rng, *cell), oracles.spread_rsmp(rng, *cell)):
                for x in (assemble_s(r), r.A):
                    _assert_same(_outcome(det_poly, x), _outcome(oracles.det_poly_pointwise, x))
                det_a = scalar_poly_trim(det_poly(r.A), rel_tol=1e-9)
                cleared = _outcome(clear_denominator, r, det_a)
                _assert_same(cleared, _outcome(oracles.clear_denominator_pointwise, r, det_a))
                if isinstance(cleared, np.ndarray):
                    x = MatrixPolynomial(cleared)
                    _assert_same(_outcome(det_poly, x), _outcome(oracles.det_poly_pointwise, x))

    @pytest.mark.parametrize(
        "target, k",
        [("scalar_poly_eval", 1), ("scalar_poly_eval", 2), ("det", 1)],
        ids=["first holdout", "second holdout", "non-finite nodes"],
    )
    def test_a_failed_attempt_takes_the_draws_it_reached(self, monkeypatch, target, k):
        # the first attempt fails at its first holdout, at its second, or
        # before its holdouts; the retry's phase is the next draw after those
        p = assemble_s(random_rsmp(np.random.default_rng(3), 2, 2, 2, 2, 3))
        clean = det_poly(p)
        got = []
        for fn, module in ((det_poly, spectral), (oracles.det_poly_pointwise, oracles)):
            where = np.linalg if target == "det" else module
            monkeypatch.setattr(where, target, _nan_on_call(getattr(where, target), k))
            got.append(fn(p))
            monkeypatch.undo()
        _assert_same(got[0], got[1])
        assert not np.array_equal(got[0], clean)


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

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2), (2, 5)])
    def test_rank_at_is_each_slice_of_the_batched_rule(self, rng, shape):
        rows, cols = shape
        mats = []
        for k in range(min(shape) + 1):
            a = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
            a = a @ rng.standard_normal((k, cols))
            noise = rng.standard_normal(shape)
            # exact rank k, then perturbed below and above the 1e-10 threshold
            mats += [a, a + 1e-13 * noise, a + 1e-8 * noise]
        stack = np.stack(mats)
        ranks = _ranks(stack, 1e-10)
        assert ranks.tolist() == [rank_at(m) for m in stack]
        assert ranks.tolist()[::3] == list(range(min(shape) + 1))


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
        assert normal_rank(pencil.eval) == min(pencil.shape)

    def test_stacked_and_pointwise_agree(self, rng):
        for shape in [(1, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3), (1, 2, 3), (3, 1, 2)]:
            r = random_rsmp(rng, *shape, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            assert normal_rank(r) == normal_rank(lambda z: transfer_eval(r, z))
            s = assemble_s(r)
            assert normal_rank(s) == normal_rank(s.eval)

    def test_poles_are_resampled_in_draw_order(self):
        rng = np.random.default_rng(3)
        drawn = [rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()) for _ in range(30)]
        seen = []

        def every_third_a_pole(z):
            seen.append(z)
            if len(seen) % 3 == 0:
                raise PoleError("pole")
            return np.array([[z]])

        assert normal_rank(every_third_a_pole, trials=12) == 1
        assert seen == drawn[:17]  # 12 points that are not poles, 5 that are


class TestNormalRankOfSquareSystems:
    @pytest.mark.parametrize("n, p", list(itertools.product((1, 2, 3), repeat=2)))
    def test_the_transfer_function_has_full_normal_rank(self, n, p):
        # det S = det A det R: where S and A pass their rank prechecks, R has
        # normal rank p, which discrepancy_report takes without sampling it
        rng = np.random.default_rng([11, n, p])
        checked = 0
        for d_a, d_d in itertools.product(range(1, 6), repeat=2):
            for draw in (random_rsmp,) * 3 + (oracles.spread_rsmp,) * 3:
                r = draw(rng, n, p, p, d_a, d_d)
                try:
                    tests = discrepancy_report(r).transfer_tests
                except SingularInput:
                    # a precheck failed, and the report reaches no verdict: here one
                    # spread draw of (1,2,2,1,1), whose s R has sigma_min/sigma_max
                    # below 1e-10 at every precheck point, as R does at normal_rank's
                    continue
                checked += 1
                nr = normal_rank(r)
                assert nr == p
                # the verdicts of the sampled normal rank, point by point
                sampled = []
                for z, _verdict in tests:
                    try:
                        sampled.append((z, "eigenvalue" if is_eigenvalue(r.transfer_eval, z, nr) else "regular"))
                    except PoleError:
                        sampled.append((z, "pole"))
                assert tests == sampled
        assert checked >= 149


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


# Zeros of R about 2e-4 and 2e-6 from the pole near 55.2 of one instance:
# there the evaluated R(z) is too inaccurate for the fixed 1e-10 rank
# threshold; its rank ratio at the root route's eigenvalue is 6.6e-9 and 1.8e-6.
KNOWN_MISJUDGED = {((3, 2, 2, 3, 1), 4), ((3, 2, 2, 3, 2), 4)}


def _misjudged(r) -> list[str]:
    """Transfer verdicts that contradict their candidate's origin.

    A candidate that is an eigenvalue of A must be a pole; an eigenvalue of
    S farther than 1e-6 from every eigenvalue of A must be an eigenvalue of
    the transfer function.  Returns "pole" or "eigenvalue" for each miss.
    """
    rep = discrepancy_report(r)
    poles = [w for w, _k in rep.pole_points]
    wrong = []
    for z, verdict in rep.transfer_tests:
        if z in poles:
            if verdict != "pole":
                wrong.append("pole")
        elif min((abs(z - w) for w in poles), default=np.inf) > 1e-6 and verdict != "eigenvalue":
            wrong.append("eigenvalue")
    return wrong


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

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3)])
    def test_transfer_verdicts_follow_the_candidates(self, shape):
        # An LU pivot test for poles and a pivoted-QR rank test misjudged
        # (3,2,2,3,3) seeds 6 and 7 and (2,3,3,3,3) seed 5 ("regular" at S
        # eigenvalues, where |r_nn / r_11| sat just above 1e-10).
        wrong = {
            (shape + (d_a, d_d), seed)
            for d_a in (1, 2, 3)
            for d_d in (1, 2, 3)
            for seed in range(10)
            if _misjudged(random_rsmp(np.random.default_rng(seed), *shape, d_a, d_d))
        }
        assert wrong <= KNOWN_MISJUDGED

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3)])
    def test_state_eigenvalues_are_poles(self, shape):
        # LU pivots passed the pole test at eigenvalues of A, where
        # sigma_min(A(z)) / sigma_max is about 3e-15: at (3,2,2,4,d_D) seeds
        # 10 and 17 and at (3,2,2,5,d_D) seed 10, for every d_D.
        wrong = {
            (shape + (d_a, d_d), seed)
            for d_a in (4, 5)
            for d_d in (1, 2, 3, 4, 5)
            for seed in range(20)
            if "pole" in _misjudged(random_rsmp(np.random.default_rng(seed), *shape, d_a, d_d))
        }
        assert wrong == set()

    def test_det_a_interpolated_once(self, rng, monkeypatch):
        # the report once interpolated det A again, with the same seed, to clear the denominator
        r = random_rsmp(rng, 2, 2, 2, 2, 2)
        want = discrepancy_report(r)
        calls = []

        def counted(x, tol=1e-8):
            calls.append(x)
            return det_poly(x, tol=tol)

        monkeypatch.setattr(spectral, "det_poly", counted)
        assert discrepancy_report(r) == want
        assert sum(x is r.A for x in calls) == 1
        assert len(calls) == 3  # S, A and the cleared polynomial

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
