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
from laoa.errors import ConvergenceFailure, NotEnoughRoots, UnsupportedScenario
from laoa.linalg import REL_RANK_TOL, lapack_stack


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def eig_singular_values(A):
    """Independent oracle: singular values via eigendecomposition of A^H A."""
    w = np.linalg.eigvalsh(A.conj().T @ A)
    return np.sqrt(np.clip(w[::-1], 0.0, None))


class TestSvd:
    @pytest.mark.parametrize(
        "A, fragment",
        [
            (np.zeros((0, 3, 2)), "svd expects a nonempty stack of matrices"),
            (np.zeros((2, 0, 2)), "svd expects a nonempty stack of matrices"),
            (np.eye(3), "svd expects a nonempty stack of matrices"),
            (np.ones(4), "svd expects a nonempty stack of matrices"),
            (np.full((1, 2, 2), np.inf), "svd input contains non-finite entries"),
        ],
        ids=["no_items", "empty_items", "one_matrix", "vector", "non_finite"],
    )
    def test_input_checks(self, A, fragment):
        with pytest.raises(ValueError) as info:
            svd(A, [None] * max(1, len(A)))
        assert fragment in str(info.value)

    def test_diagonal(self):
        errors = [None]
        U, sigma, V = (f[0] for f in svd(np.diag([3.0, 1.0]).astype(complex)[None], errors))
        assert errors == [None]
        np.testing.assert_allclose(sigma, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(U), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        errors = [None]
        U, sigma, _ = (f[0] for f in svd(np.zeros((1, 3, 2), dtype=complex), errors))
        assert errors == [None]
        np.testing.assert_array_equal(sigma, [0.0, 0.0])
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5), (12, 8), (3, 1)])
    def test_against_gram_eigendecomposition(self, shape):
        rng = np.random.default_rng(sum(shape))
        A = np.stack([random_complex(rng, *shape) for _ in range(10)])
        errors = [None] * len(A)
        _, sigma, _ = svd(A, errors)
        assert errors == [None] * len(A)
        for a, s in zip(A, sigma):
            ref = eig_singular_values(a)[: len(s)]
            np.testing.assert_allclose(s, ref, rtol=1e-8, atol=1e-10)

    def test_invariants(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            A = random_complex(rng, int(rng.integers(2, 13)), int(rng.integers(2, 9)))
            errors = [None]
            U, sigma, V = (f[0] for f in svd(A[None], errors))
            assert errors == [None]
            assert np.all(np.diff(sigma) <= 1e-15)
            assert np.all(sigma >= 0)
            k = len(sigma)
            assert np.linalg.norm(U.conj().T @ U - np.eye(k), 2) < 1e-10
            assert np.linalg.norm(V.conj().T @ V - np.eye(k), 2) < 1e-10
            rec = U @ np.diag(sigma) @ V.conj().T
            assert np.linalg.norm(rec - A) < 1e-10 * np.linalg.norm(A)

    def test_deterministic(self):
        A = random_complex(np.random.default_rng(21), 7, 5)[None]
        for f1, f2 in zip(svd(A, [None]), svd(A, [None])):
            assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_never_reaches_lapack(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
        A = np.stack([np.eye(3, dtype=complex)] * 2)
        A[1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svd(A, [None, None])
        assert calls == []


def _marked(ids):
    # 2 x 2 items; a negative id marks an item that _fails_on_marked fails on
    items = np.stack([np.eye(2)] * len(ids))
    items[:, 0, 1] = ids
    return items


def _fails_on_marked(a):
    # a stand-in LAPACK routine: fails the whole call if any item is marked, naming the first
    marked = a[:, 0, 1] < 0
    if marked.any():
        raise np.linalg.LinAlgError(f"item {a[np.argmax(marked), 0, 1]}")
    return 2.0 * a


class TestLapackStack:
    """Each item's failure goes to its trial's slot, given by the slot map."""

    def test_a_failing_item_keeps_a_preset_slot(self):
        preset = NotEnoughRoots("set by an earlier layer")
        errors = [preset, None]
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        G = np.stack([singular, 3.0 * np.eye(2)])
        b = np.ones((2, 2, 1))
        x = lapack_stack(np.linalg.solve, (G, b), errors, [0, 1], "solve")
        assert errors[0] is preset and errors[1] is None
        np.testing.assert_array_equal(x[1], np.linalg.solve(G[1:], b[1:])[0])

    def test_the_first_failing_item_of_a_slot_wins(self):
        errors = [None, None]
        a = _marked([-1.0, -2.0, 5.0])
        out = lapack_stack(_fails_on_marked, (a,), errors, np.array([0, 0, 1]), "stand-in")
        assert isinstance(errors[0], ConvergenceFailure)
        assert str(errors[0]) == "stand-in: item -1.0"
        assert errors[1] is None
        np.testing.assert_array_equal(out[2], _fails_on_marked(a[2:])[0])

    def test_every_item_failing_returns_the_identity_stack_call_and_sets_every_unset_slot(self):
        # the one rule holds when no item survives: each failed item is an identity in the
        # returned call, so the stand-in gives 2 I per item
        preset = NotEnoughRoots("set by an earlier layer")
        errors = [None, preset, None]
        out = lapack_stack(_fails_on_marked, (_marked([-1.0, -2.0, -3.0, -4.0]),), errors, [2, 1, 0, 2], "stand-in")
        np.testing.assert_array_equal(out, _fails_on_marked(np.stack([np.eye(2)] * 4)))
        assert str(errors[0]) == "stand-in: item -3.0"
        assert errors[1] is preset
        assert str(errors[2]) == "stand-in: item -1.0"
        assert all(isinstance(errors[i], ConvergenceFailure) for i in (0, 2))


class TestPaperOperator:
    """solve_coeffs against the paper's V_r Sigma_r^{-1} U_r^H, built from numpy's SVD."""

    def test_truncated_svd_applies_the_rank_r_pseudoinverse(self):
        rng = np.random.default_rng(23)
        P, P1 = zip(*((random_complex(rng, 9, 4), random_complex(rng, 9, 1)[:, 0]) for _ in range(20)))
        P, P1 = np.stack(P), np.stack(P1)
        U, sigma, Vh = np.linalg.svd(P, full_matrices=False)
        for r in range(1, 5):
            errors = [None] * len(P)
            got, reduced = solve_coeffs(P, P1, r, EstimatorMode.TRUNCATED_SVD, errors)
            assert errors == [None] * len(P)
            assert reduced.tolist() == [-1] * len(P)
            for t in range(len(P)):
                expected = Vh[t, :r].conj().T @ np.diag(1.0 / sigma[t, :r]) @ U[t, :, :r].conj().T @ P1[t]
                np.testing.assert_allclose(got[t], expected, rtol=1e-12, atol=0)

    def test_noiseless_at_full_rank_is_least_squares(self):
        rng = np.random.default_rng(24)
        P, P1 = zip(*((random_complex(rng, 9, 4), random_complex(rng, 9, 1)[:, 0]) for _ in range(20)))
        P, P1 = np.stack(P), np.stack(P1)
        errors = [None] * len(P)
        got, reduced = solve_coeffs(P, P1, 4, EstimatorMode.NOISELESS, errors)
        assert errors == [None] * len(P)
        assert reduced.tolist() == [-1] * len(P)
        for t in range(len(P)):
            expected = np.linalg.lstsq(P[t], P1[t], rcond=None)[0]
            np.testing.assert_allclose(got[t], expected, rtol=1e-12, atol=0)


class TestSolveCoeffs:
    def test_single_source_coefficient(self):
        src = SourceSet(directions=(DirectionPair(60, 90),))
        cfg = ArrayConfig(m=2, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 5, 0.0, np.random.default_rng(26))
        errors = [None]
        c, reduced = solve_coeffs(*build_lp_system(Z.data.T[None]), 1, EstimatorMode.TRUNCATED_SVD, errors)
        assert errors == [None] and reduced.tolist() == [-1]
        np.testing.assert_allclose(c[0], [1j], atol=1e-12)

    def test_identity_system(self):
        rng = np.random.default_rng(27)
        P1 = random_complex(rng, 4, 1)[:, 0]
        errors = [None]
        c, reduced = solve_coeffs(np.eye(4, dtype=complex)[None], P1[None], 4, EstimatorMode.TRUNCATED_SVD, errors)
        assert errors == [None] and reduced.tolist() == [-1]
        np.testing.assert_allclose(c[0], P1, atol=1e-12)

    def test_noiseless_polynomial_annihilates_roots(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=6, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(28))
        errors = [None]
        c, reduced = solve_coeffs(*build_lp_system(Z.data.T[None]), 2, EstimatorMode.TRUNCATED_SVD, errors)
        assert errors == [None] and reduced.tolist() == [-1]
        from laoa.array_model import electrical_angles

        psis, _ = electrical_angles(src.directions, cfg)
        poly = np.concatenate(([1.0], c[0]))
        for psi in psis:
            y = np.exp(1j * psi)
            val = np.polyval(poly[::-1], y)
            assert abs(val) < 1e-8

    def test_modes_agree_on_full_rank_noiseless_data(self):
        src = SourceSet(directions=(DirectionPair(40, 30), DirectionPair(110, 100)))
        cfg = ArrayConfig(m=4, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 40, 0.0, np.random.default_rng(29))
        P, P1 = build_lp_system(Z.data.T[None])
        errors = [None]
        a, reduced_a = solve_coeffs(P, P1, 2, EstimatorMode.TRUNCATED_SVD, errors)
        b, reduced_b = solve_coeffs(P, P1, 2, EstimatorMode.NOISELESS, errors)
        assert errors == [None] and reduced_a.tolist() == reduced_b.tolist() == [-1]
        # q = 2 equals the rank of the noiseless system here
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_rank_deficiency_is_returned(self):
        src = SourceSet(directions=(DirectionPair(40, 30),))
        cfg = ArrayConfig(m=5, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 30, 0.0, np.random.default_rng(30))
        P, P1 = build_lp_system(Z.data.T[None])
        errors = [None]
        # noiseless single source: rank 1, requesting q=3 must reduce to rank 1 and report it
        _, reduced = solve_coeffs(P, P1, 3, EstimatorMode.TRUNCATED_SVD, errors)
        assert errors == [None] and reduced.tolist() == [1]

    def test_q_out_of_range(self):
        with pytest.raises(UnsupportedScenario, match=r"q must be in \[1, 3\]"):
            solve_coeffs(np.eye(3, dtype=complex)[None], np.ones((1, 3), dtype=complex), 4, EstimatorMode.TRUNCATED_SVD,
                         [None])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_coefficients_are_a_convergence_failure(self):
        # finite data whose solve overflows: sigma ~ 1e-300 inverted against P1 ~ 1e300
        P = np.array([[[1e-300], [0.0]]], dtype=complex)
        P1 = np.array([[1e300, 0.0]], dtype=complex)
        errors = [None]
        _, reduced = solve_coeffs(P, P1, 1, EstimatorMode.TRUNCATED_SVD, errors)
        assert isinstance(errors[0], ConvergenceFailure) and reduced.tolist() == [-1]
        assert "non-finite coefficients" in str(errors[0])

    @staticmethod
    def loop_solve_coeffs(P, P1, q, mode, errors):
        # the per-item rank loop the one vectorized rank replaced, as the reference
        U, sigma, V = svd(P, errors)
        s1 = sigma[:, 0]
        for i in np.flatnonzero(~np.isfinite(s1)):
            if errors[i] is None:
                errors[i] = ConvergenceFailure("coefficient solve overflowed: the largest singular value of P is not finite")
        cutoff = np.where(s1 > 0, REL_RANK_TOL * s1, 0.0)
        reduced = np.full(len(P), -1)
        if mode is EstimatorMode.TRUNCATED_SVD:
            rank = np.full(len(P), q)
            for i in np.flatnonzero(sigma[:, q - 1] <= cutoff):
                rank[i] = np.sum(sigma[i, :q] > cutoff[i])
                if errors[i] is None:
                    reduced[i] = rank[i]
        else:
            rank = np.sum(sigma > cutoff[:, None], axis=1)
        inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=np.arange(sigma.shape[1]) < rank[:, None])
        c = ((V * inv[:, None, :]) @ (U.conj().swapaxes(1, 2) @ P1[:, :, None]))[:, :, 0]
        for i in np.flatnonzero(~np.all(np.isfinite(c), axis=1)):
            if errors[i] is None:
                errors[i] = ConvergenceFailure("coefficient solve gave non-finite coefficients")
        return c, reduced

    @staticmethod
    def rank_edge_stack(rng, n, k, q):
        # one n x k system per kind: full rank, all zero, zero columns from the q-th on (an exact
        # zero q-th singular value), a product of rank q - 1, the q-th singular value just above or
        # below REL_RANK_TOL * sigma_1, and a diagonal whose q-th value is that cutoff exactly.  At
        # q = 1 the cutoff scales with the q-th value itself, so only the all-zero items fall short
        def with_sigma(s):
            W = np.linalg.qr(random_complex(rng, n, k))[0]
            Vh = np.linalg.qr(random_complex(rng, k, k))[0]
            return (W * s) @ Vh
        s = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
        edge = []
        for factor in (1.001, 0.999):
            t = s.copy()
            t[q - 1:] = REL_RANK_TOL * s[0] * factor * np.linspace(1.0, 0.5, k - q + 1)
            edge.append(with_sigma(t))
        zero_cols = random_complex(rng, n, k)
        zero_cols[:, q - 1:] = 0
        diagonal = np.zeros((n, k), dtype=complex)
        diagonal[np.arange(k), np.arange(k)] = np.concatenate((s[:q - 1], [REL_RANK_TOL * s[0]], np.zeros(k - q)))
        low = random_complex(rng, n, q - 1) @ random_complex(rng, q - 1, k) if q > 1 else np.zeros((n, k))
        return np.stack([random_complex(rng, n, k), np.zeros((n, k)), zero_cols, low, *edge, diagonal]).astype(complex)

    @pytest.mark.parametrize("mode", list(EstimatorMode))
    def test_one_rank_rule_gives_the_loops_bits(self, mode):
        rng = np.random.default_rng(37)
        outcomes = set()
        for m in range(3, 9):
            k = m - 1
            for q in range(1, m - 1):
                n = int(rng.integers(k, 3 * k + 1))
                P = np.concatenate([self.rank_edge_stack(rng, n, k, q) for _ in range(3)])
                P1 = random_complex(rng, len(P), n)
                preset = rng.random(len(P)) < 0.25
                errors = [ConvergenceFailure("preset") if p else None for p in preset]
                want_errors = list(errors)
                c, reduced = solve_coeffs(P, P1, q, mode, errors)
                want_c, want_reduced = self.loop_solve_coeffs(P, P1, q, mode, want_errors)
                assert c.tobytes() == want_c.tobytes()
                assert reduced.tolist() == want_reduced.tolist()
                assert [repr(e) for e in errors] == [repr(e) for e in want_errors]
                outcomes.update(reduced.tolist())
        if mode is EstimatorMode.TRUNCATED_SVD:
            assert {-1, 0, 1, 2}.issubset(outcomes)
        else:
            assert outcomes == {-1}

    def test_solution_ignores_singular_vector_phases(self, monkeypatch):
        src = SourceSet(directions=(DirectionPair(30, 40), DirectionPair(70, 120)))
        cfg = ArrayConfig(m=8, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 200, 0.1, np.random.default_rng(35))
        P, P1 = build_lp_system(Z.data.T[None])
        modes = (EstimatorMode.TRUNCATED_SVD, EstimatorMode.NOISELESS)
        errors = [None]
        expected = [solve_coeffs(P, P1, 2, mode, errors)[0] for mode in modes]

        lapack_svd = np.linalg.svd
        rng = np.random.default_rng(36)

        def rotated_svd(A, *args, **kwargs):
            U, s, Vh = lapack_svd(A, *args, **kwargs)
            # u_k -> u_k e^{jt}, v_k -> v_k e^{jt} leaves each u_k sigma_k v_k^H unchanged
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, s.size))
            return U * phase, s, Vh * phase.conj()[:, None]

        monkeypatch.setattr(np.linalg, "svd", rotated_svd)
        for mode, c in zip(modes, expected):
            np.testing.assert_allclose(solve_coeffs(P, P1, 2, mode, errors)[0], c, rtol=1e-12, atol=0)
        assert errors == [None]
