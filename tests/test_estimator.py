import math
import warnings
from itertools import permutations

import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    SnapshotMatrix,
    SourceSet,
    estimate_2d_aoa,
    estimate_electrical,
    pair_and_recover,
    synthesize,
)
from laoa.array_model import steering_vector
from laoa.errors import ConvergenceFailure, PairingAmbiguousWarning, UnsupportedScenario
from laoa.estimator import PAIRING_AMBIGUITY_REL_TOL, permutation_table
from laoa.synthesis import Subarray, electrical_angle_sets


def _setup(pairs, m=8, M=50, sigma2=0.0, seed=0, spacing=0.5):
    cfg = ArrayConfig(m=m, spacing_ratio=spacing)
    src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))
    Z, X, S = synthesize(src, cfg, M, sigma2, np.random.default_rng(seed))
    return cfg, src, Z, X


def _stacked_residual(psis, xis, Z, X, cfg):
    A = np.vstack(
        [
            np.column_stack([steering_vector(p, cfg.m) for p in psis]),
            np.column_stack([steering_vector(x, cfg.m) for x in xis]),
        ]
    )
    Y = np.vstack([Z.data, X.data])
    S, *_ = np.linalg.lstsq(A, Y, rcond=None)
    return float(np.linalg.norm(Y - A @ S))


class TestEstimateElectrical:
    def test_single_source(self):
        cfg, src, Z, _ = _setup([(60, 90)], m=4, M=10)
        angles, mags = estimate_electrical(Z, 1, EstimatorMode.NOISELESS)
        assert angles[0] == pytest.approx(np.pi / 2, abs=1e-9)
        assert mags[0] == pytest.approx(1.0, abs=1e-9)

    def test_three_sources(self):
        # pick directions whose psi values are well separated
        thetas = [np.rad2deg(np.arccos(p / np.pi)) for p in (-1.2, 0.3, 2.0)]
        cfg2, src, Z, _ = _setup(list(zip(thetas, (150.0, 100.0, 40.0))), m=8, M=50)
        angles, _ = estimate_electrical(Z, 3, EstimatorMode.NOISELESS)
        np.testing.assert_allclose(sorted(angles), [-1.2, 0.3, 2.0], atol=1e-8)

    def test_q_too_large(self):
        cfg, src, Z, _ = _setup([(60, 90)], m=4, M=10)
        with pytest.raises(UnsupportedScenario, match="q <= m - 2"):
            estimate_electrical(Z, 3, EstimatorMode.NOISELESS)


class TestPairing:
    def test_single_source_identity(self):
        cfg, src, Z, X = _setup([(60, 45)], m=6, M=30)
        psis, xis = electrical_angle_sets(src, cfg)
        est = pair_and_recover(list(psis), list(xis), Z, X, cfg)
        assert est.sources[0].theta_deg == pytest.approx(60.0, abs=1e-9)
        assert est.pairing_residual == pytest.approx(0.0, abs=1e-9)

    def test_two_sources_correct_pairing(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        psis, xis = electrical_angle_sets(src, cfg)
        est = pair_and_recover(list(psis), list(xis), Z, X, cfg)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        np.testing.assert_allclose(got, [(30, 40), (70, 120)], atol=1e-6)
        # the deliberately swapped association must fit far worse
        good = _stacked_residual(psis, xis, Z, X, cfg)
        bad = _stacked_residual(psis, xis[::-1], Z, X, cfg)
        assert bad > 1e3 * max(good, 1e-300)

    def test_similar_elevations_still_unambiguous(self):
        # elevations as close as min_sep allows; only xi distinguishes the sources
        cfg, src, Z, X = _setup([(60, 60), (66, 120)], m=8, M=50)
        psis, xis = electrical_angle_sets(src, cfg)
        est = pair_and_recover(list(psis), list(xis), Z, X, cfg)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        np.testing.assert_allclose(got, [(60, 60), (66, 120)], atol=1e-6)
        assert not est.pairing_ambiguous

    def test_tie_keeps_the_first_permutation(self):
        # duplicated xi estimates: both pairings give the same stacked matrix
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        with pytest.warns(PairingAmbiguousWarning):
            est = pair_and_recover([0.3, 1.3], [0.5, 0.5], Z, X, cfg, root_mags_x=[1.0, 2.0])
        assert est.pairing_ambiguous
        assert est.sources[0].root_magnitude_x == 1.0

    def test_identical_pairs_are_a_convergence_failure(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        with pytest.raises(ConvergenceFailure):
            pair_and_recover([0.3, 0.3], [0.5, 0.5], Z, X, cfg)

    def test_more_sources_than_the_pairing_budget(self):
        # rejected before any data is touched: 8! pairings exceed the budget
        cfg, src, Z, X = _setup([(30, 40)], m=10, M=50)
        angles = list(np.linspace(-2.0, 2.0, 8))
        with pytest.raises(UnsupportedScenario, match="pairings"):
            pair_and_recover(angles, angles, Z, X, cfg)


FIVE_SOURCES = [(30, 40), (60, 100), (100, 60), (140, 130), (80, 150)]


def _lstsq_pairing(psis, xis, Z, X, cfg):
    """Brute-force reference: one lstsq per permutation, first minimum wins."""
    A_z = np.column_stack([steering_vector(p, cfg.m) for p in psis])
    A_x = np.column_stack([steering_vector(x, cfg.m) for x in xis])
    Y = np.vstack([Z.data, X.data])
    perms = list(permutations(range(len(psis))))
    resid = []
    for perm in perms:
        A = np.vstack([A_z, A_x[:, perm]])
        S, *_ = np.linalg.lstsq(A, Y, rcond=None)
        resid.append(float(np.linalg.norm(Y - A @ S)))
    order = sorted(range(len(resid)), key=resid.__getitem__)
    best = resid[order[0]]
    second = resid[order[1]] if len(resid) > 1 else np.inf
    ambiguous = bool(np.isfinite(second) and second - best < PAIRING_AMBIGUITY_REL_TOL * second)
    return perms[order[0]], best, ambiguous


class TestPairingOracle:
    # exact angles with sigma2=1e-12 leave a residual ~1e-7 of ||Y||, which a
    # residual taken as ||Y||^2 - ||P_A Y||^2 would lose to cancellation
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("M_of_q", [lambda q: q, lambda q: 10, lambda q: 200], ids=["M=q", "M<2m", "M=200"])
    @pytest.mark.parametrize("sigma2, jitter", [(0.1, 0.02), (1e-12, 0.0)])
    def test_matches_lstsq_per_permutation(self, q, M_of_q, sigma2, jitter):
        M = M_of_q(q)
        cfg, src, Z, X = _setup(FIVE_SOURCES[:q], m=8, M=M, sigma2=sigma2, seed=10 * q + M)
        psis, xis = electrical_angle_sets(src, cfg)
        rng = np.random.default_rng(q)
        # estimate-like inputs: perturbed and each set sorted on its own
        psis = sorted(np.asarray(psis) + rng.normal(0, jitter, q))
        xis = sorted(np.asarray(xis) + rng.normal(0, jitter, q))
        perm, resid, ambiguous = _lstsq_pairing(psis, xis, Z, X, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingAmbiguousWarning)
            est = pair_and_recover(psis, xis, Z, X, cfg)
        assert [s.xi_hat for s in est.sources] == [xis[j] for j in perm]
        assert est.pairing_ambiguous == ambiguous
        assert est.pairing_residual == pytest.approx(resid, rel=1e-9)

    @pytest.mark.parametrize("q", [0, 1, 3, 5])
    def test_permutation_table(self, q):
        table = permutation_table(q)
        assert table.shape == (math.factorial(q), q)
        assert [tuple(row) for row in table] == list(permutations(range(q)))
        assert not table.flags.writeable
        assert permutation_table(q) is table


class TestEstimate2dAoa:
    def test_single_source_exact(self):
        cfg, src, Z, X = _setup([(60, 45)], m=4, M=10)
        est = estimate_2d_aoa(Z, X, 1, cfg, EstimatorMode.NOISELESS)
        assert est.sources[0].theta_deg == pytest.approx(60.0, abs=1e-6)
        assert est.sources[0].phi_deg == pytest.approx(45.0, abs=1e-6)

    def test_two_sources_exact(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        est = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        np.testing.assert_allclose(got, [(30, 40), (70, 120)], atol=1e-6)

    def test_exact_recovery_many_seeds(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            while True:
                pairs = [(float(rng.uniform(25, 155)), float(rng.uniform(15, 165)))
                         for _ in range(2)]
                try:
                    cfg, src, Z, X = _setup(pairs, m=8, M=50, seed=int(rng.integers(1 << 31)))
                    break
                except ValueError:
                    continue
            est = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
            got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
            np.testing.assert_allclose(got, sorted(pairs), atol=1e-6)

    def test_mode_agreement_on_noiseless_data(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        a = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        b = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.TRUNCATED_SVD)
        for sa, sb in zip(a.sources, b.sources):
            assert sa.theta_deg == pytest.approx(sb.theta_deg, abs=1e-6)
            assert sa.phi_deg == pytest.approx(sb.phi_deg, abs=1e-6)

    def test_scale_invariance(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        scale = 2.7 - 1.3j
        Zs = SnapshotMatrix(scale * Z.data, Subarray.Z)
        Xs = SnapshotMatrix(scale * X.data, Subarray.X)
        a = estimate_2d_aoa(Z, X, 2, cfg)
        b = estimate_2d_aoa(Zs, Xs, 2, cfg)
        for sa, sb in zip(a.sources, b.sources):
            assert sa.theta_deg == pytest.approx(sb.theta_deg, abs=1e-8)
            assert sa.phi_deg == pytest.approx(sb.phi_deg, abs=1e-8)

    def test_source_order_invariance(self):
        pairs = [(30, 40), (70, 120)]
        cfg, src, Z, X = _setup(pairs, m=8, M=50, seed=5)
        cfg2, src2, Z2, X2 = _setup(pairs[::-1], m=8, M=50, seed=5)
        a = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        b = estimate_2d_aoa(Z2, X2, 2, cfg2, EstimatorMode.NOISELESS)
        got_a = sorted((round(s.theta_deg, 6), round(s.phi_deg, 6)) for s in a.sources)
        got_b = sorted((round(s.theta_deg, 6), round(s.phi_deg, 6)) for s in b.sources)
        assert got_a == got_b

    def test_moderate_noise_stays_close(self):
        cfg, src, Z, X = _setup([(60, 45)], m=8, M=200, sigma2=10 ** (-20 / 10), seed=6)
        est = estimate_2d_aoa(Z, X, 1, cfg, EstimatorMode.TRUNCATED_SVD)
        assert abs(est.sources[0].theta_deg - 60) < 2.0
        assert abs(est.sources[0].phi_deg - 45) < 4.0
