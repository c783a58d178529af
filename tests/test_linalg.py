import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    CoefficientVector,
    DirectionPair,
    EstimatorMode,
    SourceSet,
    build_lp_system,
    solve_coeffs,
    svd,
    synthesize,
    truncated_pseudoinverse,
)
from laoa.errors import RankDeficiencyWarning, RankOutOfRange
from laoa.synthesis import LpSystem


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def eig_singular_values(A):
    """Independent oracle: singular values via eigendecomposition of A^H A."""
    w = np.linalg.eigvalsh(A.conj().T @ A)
    return np.sqrt(np.clip(w[::-1], 0.0, None))


class TestSvd:
    def test_diagonal(self):
        r = svd(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(r.sigma, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(r.U), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(r.V), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        r = svd(np.zeros((3, 2), dtype=complex))
        np.testing.assert_array_equal(r.sigma, [0.0, 0.0])
        np.testing.assert_allclose(r.U.conj().T @ r.U, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5), (12, 8), (3, 1)])
    def test_against_gram_eigendecomposition(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            A = random_complex(rng, *shape)
            r = svd(A)
            ref = eig_singular_values(A)[: len(r.sigma)]
            np.testing.assert_allclose(r.sigma, ref, rtol=1e-8, atol=1e-10)

    def test_invariants(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            A = random_complex(rng, int(rng.integers(2, 13)), int(rng.integers(2, 9)))
            r = svd(A)
            assert np.all(np.diff(r.sigma) <= 1e-15)
            assert np.all(r.sigma >= 0)
            k = len(r.sigma)
            assert np.linalg.norm(r.U.conj().T @ r.U - np.eye(k), 2) < 1e-10
            assert np.linalg.norm(r.V.conj().T @ r.V - np.eye(k), 2) < 1e-10
            rec = r.U @ np.diag(r.sigma) @ r.V.conj().T
            assert np.linalg.norm(rec - A) < 1e-10 * np.linalg.norm(A)

    def test_deterministic(self):
        A = random_complex(np.random.default_rng(21), 7, 5)
        r1, r2 = svd(A), svd(A)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.V, r2.V)


class TestTruncatedPseudoinverse:
    def test_diagonal_rank_one(self):
        out = truncated_pseudoinverse(np.diag([2.0, 1.0]).astype(complex), rank=1)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        out = truncated_pseudoinverse(np.eye(3, dtype=complex), rank=3)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-14)

    def test_full_rank_matches_normal_equations(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            A = random_complex(rng, 8, 3)
            out = truncated_pseudoinverse(A, rank=3)
            ref = np.linalg.inv(A.conj().T @ A) @ A.conj().T
            np.testing.assert_allclose(out, ref, rtol=1e-8, atol=1e-10)

    def test_rank_out_of_range(self):
        A = np.eye(3, dtype=complex)
        for bad in (0, 4):
            with pytest.raises(RankOutOfRange):
                truncated_pseudoinverse(A, rank=bad)

    def test_projection_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            A = random_complex(rng, 9, 4)
            r = int(rng.integers(1, 5))
            Ainv = truncated_pseudoinverse(A, r)
            res = svd(A)
            # vectors in the span of the kept left singular vectors invert exactly
            b = res.U[:, :r] @ random_complex(rng, r, 1)[:, 0]
            np.testing.assert_allclose(A @ (Ainv @ b), b, rtol=1e-8, atol=1e-10)

    def test_sandwich_identity_at_numerical_rank(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            A = random_complex(rng, 7, 4)
            Ainv = truncated_pseudoinverse(A, 4)
            err = np.linalg.norm(A @ Ainv @ A - A)
            assert err <= 1e-8 * np.linalg.norm(A)


class TestSolveCoeffs:
    def test_single_source_coefficient(self):
        src = SourceSet(directions=(DirectionPair(60, 90),))
        cfg = ArrayConfig(m=2, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 5, 0.0, np.random.default_rng(26))
        c = solve_coeffs(build_lp_system(Z), 1, EstimatorMode.TRUNCATED_SVD)
        np.testing.assert_allclose(c.c, [1j], atol=1e-12)

    def test_identity_system(self):
        rng = np.random.default_rng(27)
        P1 = random_complex(rng, 4, 1)[:, 0]
        sys_ = LpSystem(P=np.eye(4, dtype=complex), P1=P1)
        c = solve_coeffs(sys_, 4, EstimatorMode.TRUNCATED_SVD)
        np.testing.assert_allclose(c.c, P1, atol=1e-12)

    def test_noiseless_polynomial_annihilates_roots(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=6, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(28))
        c = solve_coeffs(build_lp_system(Z), 2, EstimatorMode.TRUNCATED_SVD)
        from laoa.synthesis import electrical_angle_sets

        psis, _ = electrical_angle_sets(src, cfg)
        poly = np.concatenate(([1.0], c.c))
        for psi in psis:
            y = np.exp(1j * psi)
            val = np.polyval(poly[::-1], y)
            assert abs(val) < 1e-8

    def test_modes_agree_on_full_rank_noiseless_data(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=4, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(29))
        sys_ = build_lp_system(Z)
        a = solve_coeffs(sys_, 2, EstimatorMode.TRUNCATED_SVD)
        b = solve_coeffs(sys_, 2, EstimatorMode.NOISELESS)
        # q = 2 equals the rank of the noiseless system here
        np.testing.assert_allclose(a.c, b.c, rtol=1e-8, atol=1e-10)

    def test_rank_deficiency_warning(self):
        src = SourceSet(directions=(DirectionPair(40, 30),))
        cfg = ArrayConfig(m=5, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 30, 0.0, np.random.default_rng(30))
        sys_ = build_lp_system(Z)
        # noiseless single source: rank 1, requesting q=3 must warn and reduce
        with pytest.warns(RankDeficiencyWarning):
            solve_coeffs(sys_, 3, EstimatorMode.TRUNCATED_SVD)

    def test_q_out_of_range(self):
        sys_ = LpSystem(P=np.eye(3, dtype=complex), P1=np.ones(3, dtype=complex))
        with pytest.raises(RankOutOfRange):
            solve_coeffs(sys_, 4, EstimatorMode.TRUNCATED_SVD)

    def test_solution_ignores_singular_vector_phases(self, monkeypatch):
        src = SourceSet(directions=(DirectionPair(30, 40), DirectionPair(70, 120)))
        cfg = ArrayConfig(m=8, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 200, 0.1, np.random.default_rng(35))
        sys_ = build_lp_system(Z)
        modes = (EstimatorMode.TRUNCATED_SVD, EstimatorMode.NOISELESS)
        expected = [solve_coeffs(sys_, 2, mode).c for mode in modes]

        lapack_svd = np.linalg.svd
        rng = np.random.default_rng(36)

        def rotated_svd(A, *args, **kwargs):
            U, s, Vh = lapack_svd(A, *args, **kwargs)
            # u_k -> u_k e^{jt}, v_k -> v_k e^{jt} leaves each u_k sigma_k v_k^H unchanged
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, s.size))
            return U * phase, s, Vh * phase.conj()[:, None]

        monkeypatch.setattr(np.linalg, "svd", rotated_svd)
        for mode, c in zip(modes, expected):
            np.testing.assert_allclose(solve_coeffs(sys_, 2, mode).c, c, rtol=1e-12, atol=0)
