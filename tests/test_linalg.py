import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    SourceSet,
    build_lp_system,
    solve_coeffs,
    svd,
    synthesize,
)
from laoa.errors import ConvergenceFailure, RankDeficiencyWarning, UnsupportedScenario


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def eig_singular_values(A):
    """Independent oracle: singular values via eigendecomposition of A^H A."""
    w = np.linalg.eigvalsh(A.conj().T @ A)
    return np.sqrt(np.clip(w[::-1], 0.0, None))


class TestSvd:
    def test_diagonal(self):
        U, sigma, V = svd(np.diag([3.0, 1.0]).astype(complex))
        np.testing.assert_allclose(sigma, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(U), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        U, sigma, _ = svd(np.zeros((3, 2), dtype=complex))
        np.testing.assert_array_equal(sigma, [0.0, 0.0])
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5), (12, 8), (3, 1)])
    def test_against_gram_eigendecomposition(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            A = random_complex(rng, *shape)
            _, sigma, _ = svd(A)
            ref = eig_singular_values(A)[: len(sigma)]
            np.testing.assert_allclose(sigma, ref, rtol=1e-8, atol=1e-10)

    def test_invariants(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            A = random_complex(rng, int(rng.integers(2, 13)), int(rng.integers(2, 9)))
            U, sigma, V = svd(A)
            assert np.all(np.diff(sigma) <= 1e-15)
            assert np.all(sigma >= 0)
            k = len(sigma)
            assert np.linalg.norm(U.conj().T @ U - np.eye(k), 2) < 1e-10
            assert np.linalg.norm(V.conj().T @ V - np.eye(k), 2) < 1e-10
            rec = U @ np.diag(sigma) @ V.conj().T
            assert np.linalg.norm(rec - A) < 1e-10 * np.linalg.norm(A)

    def test_deterministic(self):
        A = random_complex(np.random.default_rng(21), 7, 5)
        for f1, f2 in zip(svd(A), svd(A)):
            assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_never_reaches_lapack(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        A = np.eye(3, dtype=complex)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svd(A)
        assert calls == []


class TestPaperOperator:
    """solve_coeffs against the paper's V_r Sigma_r^{-1} U_r^H, built from numpy's SVD."""

    def test_truncated_svd_applies_the_rank_r_pseudoinverse(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            P = random_complex(rng, 9, 4)
            P1 = random_complex(rng, 9, 1)[:, 0]
            U, sigma, Vh = np.linalg.svd(P, full_matrices=False)
            for r in range(1, 5):
                expected = Vh[:r].conj().T @ np.diag(1.0 / sigma[:r]) @ U[:, :r].conj().T @ P1
                got = solve_coeffs(P, P1, r, EstimatorMode.TRUNCATED_SVD)
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_noiseless_at_full_rank_is_least_squares(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            P = random_complex(rng, 9, 4)
            P1 = random_complex(rng, 9, 1)[:, 0]
            expected = np.linalg.lstsq(P, P1, rcond=None)[0]
            got = solve_coeffs(P, P1, 4, EstimatorMode.NOISELESS)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestSolveCoeffs:
    def test_single_source_coefficient(self):
        src = SourceSet(directions=(DirectionPair(60, 90),))
        cfg = ArrayConfig(m=2, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 5, 0.0, np.random.default_rng(26))
        c = solve_coeffs(*build_lp_system(Z.data.T), 1, EstimatorMode.TRUNCATED_SVD)
        np.testing.assert_allclose(c, [1j], atol=1e-12)

    def test_identity_system(self):
        rng = np.random.default_rng(27)
        P1 = random_complex(rng, 4, 1)[:, 0]
        c = solve_coeffs(np.eye(4, dtype=complex), P1, 4, EstimatorMode.TRUNCATED_SVD)
        np.testing.assert_allclose(c, P1, atol=1e-12)

    def test_noiseless_polynomial_annihilates_roots(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=6, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(28))
        c = solve_coeffs(*build_lp_system(Z.data.T), 2, EstimatorMode.TRUNCATED_SVD)
        from laoa.synthesis import electrical_angle_sets

        psis, _ = electrical_angle_sets(src, cfg)
        poly = np.concatenate(([1.0], c))
        for psi in psis:
            y = np.exp(1j * psi)
            val = np.polyval(poly[::-1], y)
            assert abs(val) < 1e-8

    def test_modes_agree_on_full_rank_noiseless_data(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=4, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(29))
        P, P1 = build_lp_system(Z.data.T)
        a = solve_coeffs(P, P1, 2, EstimatorMode.TRUNCATED_SVD)
        b = solve_coeffs(P, P1, 2, EstimatorMode.NOISELESS)
        # q = 2 equals the rank of the noiseless system here
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_rank_deficiency_warning(self):
        src = SourceSet(directions=(DirectionPair(40, 30),))
        cfg = ArrayConfig(m=5, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 30, 0.0, np.random.default_rng(30))
        P, P1 = build_lp_system(Z.data.T)
        # noiseless single source: rank 1, requesting q=3 must warn and reduce
        with pytest.warns(RankDeficiencyWarning):
            solve_coeffs(P, P1, 3, EstimatorMode.TRUNCATED_SVD)

    def test_q_out_of_range(self):
        with pytest.raises(UnsupportedScenario, match=r"q must be in \[1, 3\]"):
            solve_coeffs(np.eye(3, dtype=complex), np.ones(3, dtype=complex), 4, EstimatorMode.TRUNCATED_SVD)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_coefficients_are_a_convergence_failure(self):
        # finite data whose solve overflows: sigma ~ 1e-300 inverted against P1 ~ 1e300
        P = np.array([[1e-300], [0.0]], dtype=complex)
        P1 = np.array([1e300, 0.0], dtype=complex)
        with pytest.raises(ConvergenceFailure, match="non-finite coefficients"):
            solve_coeffs(P, P1, 1, EstimatorMode.TRUNCATED_SVD)

    def test_solution_ignores_singular_vector_phases(self, monkeypatch):
        src = SourceSet(directions=(DirectionPair(30, 40), DirectionPair(70, 120)))
        cfg = ArrayConfig(m=8, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 200, 0.1, np.random.default_rng(35))
        P, P1 = build_lp_system(Z.data.T)
        modes = (EstimatorMode.TRUNCATED_SVD, EstimatorMode.NOISELESS)
        expected = [solve_coeffs(P, P1, 2, mode) for mode in modes]

        lapack_svd = np.linalg.svd
        rng = np.random.default_rng(36)

        def rotated_svd(A, *args, **kwargs):
            U, s, Vh = lapack_svd(A, *args, **kwargs)
            # u_k -> u_k e^{jt}, v_k -> v_k e^{jt} leaves each u_k sigma_k v_k^H unchanged
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, s.size))
            return U * phase, s, Vh * phase.conj()[:, None]

        monkeypatch.setattr(np.linalg, "svd", rotated_svd)
        for mode, c in zip(modes, expected):
            np.testing.assert_allclose(solve_coeffs(P, P1, 2, mode), c, rtol=1e-12, atol=0)
