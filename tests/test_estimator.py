import math
from dataclasses import fields
from itertools import permutations

import numpy as np
import pytest

import laoa.estimator

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    SnapshotMatrix,
    SourceSet,
    estimate_2d_aoa,
    pair_and_recover,
    synthesize,
)
from laoa.array_model import electrical_angles, steering_vector
from laoa.errors import ConvergenceFailure, NotEnoughRoots, OutOfRange, UnsupportedScenario
from laoa.estimator import PAIRING_AMBIGUITY_REL_TOL, PAIRING_BLOCK, estimate_electrical, estimate_stack, permutation_table
from laoa.synthesis import Subarray


def _setup(pairs, m=8, M=50, sigma2=0.0, seed=0, spacing=0.5):
    cfg = ArrayConfig(m=m, spacing_ratio=spacing)
    src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))
    Z, X, S = synthesize(src, cfg, M, sigma2, np.random.default_rng(seed))
    return cfg, src, Z, X


def _row(est, t=0):
    # trial t's row of every array field as bytes: equal bit for bit, NaN included
    return tuple(getattr(est, f.name)[t].tobytes() for f in fields(est) if f.name != "errors")


def _stacked(Z, X):
    return np.vstack([Z.data, X.data])


def _stacked_residual(psis, xis, Y, cfg):
    A = np.vstack(
        [
            np.column_stack([steering_vector(p, cfg.m) for p in psis]),
            np.column_stack([steering_vector(x, cfg.m) for x in xis]),
        ]
    )
    S, *_ = np.linalg.lstsq(A, Y, rcond=None)
    return float(np.linalg.norm(Y - A @ S))


_CFG6 = ArrayConfig(m=6, spacing_ratio=0.5)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: pair_and_recover(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 12, 12)), _CFG6,
                                  np.ones((1, 2)), np.ones((1, 3)), [None]), "psi and xi sets must have equal length"),
        (lambda: pair_and_recover(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((2, 12, 12)), _CFG6,
                                  np.ones((2, 2)), np.ones((1, 2)), [None, None]), "psi and xi sets must have equal length"),
        (lambda: estimate_stack(np.zeros((12, 20), dtype=complex), 2, _CFG6, EstimatorMode.TRUNCATED_SVD),
         "Y must be T x 2m x M with 2m = 12, got (12, 20)"),
        (lambda: estimate_stack(np.zeros((1, 6, 20), dtype=complex), 2, _CFG6, EstimatorMode.TRUNCATED_SVD),
         "Y must be T x 2m x M with 2m = 12, got (1, 6, 20)"),
    ],
    ids=["pair_set_sizes_differ", "pair_trial_counts_differ", "stack_not_3d", "stack_rows_not_2m"],
)
def test_input_checks(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)


class TestEstimateElectrical:
    def test_single_source(self):
        cfg, src, Z, _ = _setup([(60, 90)], m=4, M=10)
        errors = [None]
        angles, mags, reduced = estimate_electrical(Z.data.T[None], 1, EstimatorMode.NOISELESS, errors)
        assert errors == [None] and reduced.tolist() == [-1]
        assert angles[0, 0] == pytest.approx(np.pi / 2, abs=1e-9)
        assert mags[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_three_sources(self):
        # pick directions whose psi values are well separated
        thetas = [np.rad2deg(np.arccos(p / np.pi)) for p in (-1.2, 0.3, 2.0)]
        cfg2, src, Z, _ = _setup(list(zip(thetas, (150.0, 100.0, 40.0))), m=8, M=50)
        errors = [None]
        angles, _, reduced = estimate_electrical(Z.data.T[None], 3, EstimatorMode.NOISELESS, errors)
        assert errors == [None] and reduced.tolist() == [-1]
        np.testing.assert_allclose(sorted(angles[0]), [-1.2, 0.3, 2.0], atol=1e-8)


class TestPairing:
    def test_single_source_identity(self):
        cfg, src, Z, X = _setup([(60, 45)], m=6, M=30)
        psis, xis = electrical_angles(src.directions, cfg)
        errors = [None]
        mags = np.ones((1, 1))
        est = pair_and_recover(psis[None], xis[None], _stacked(Z, X)[None], cfg, mags, mags, errors)
        assert errors == [None]
        assert est.theta_deg[0, 0] == pytest.approx(60.0, abs=1e-9)
        assert est.pairing_residual[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_sources_correct_pairing(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        psis, xis = electrical_angles(src.directions, cfg)
        Y = _stacked(Z, X)
        errors = [None]
        est = pair_and_recover(psis[None], xis[None], Y[None], cfg, np.ones((1, 2)), np.ones((1, 2)), errors)
        assert errors == [None]
        got = sorted(zip(est.theta_deg[0], est.phi_deg[0]))
        np.testing.assert_allclose(got, [(30, 40), (70, 120)], atol=1e-6)
        # the deliberately swapped association must fit far worse
        good = _stacked_residual(psis, xis, Y, cfg)
        bad = _stacked_residual(psis, xis[::-1], Y, cfg)
        assert bad > 1e3 * max(good, 1e-300)

    def test_similar_elevations_still_unambiguous(self):
        # elevations as close as min_sep allows; only xi distinguishes the sources
        cfg, src, Z, X = _setup([(60, 60), (66, 120)], m=8, M=50)
        psis, xis = electrical_angles(src.directions, cfg)
        errors = [None]
        mags = np.ones((1, 2))
        est = pair_and_recover(psis[None], xis[None], _stacked(Z, X)[None], cfg, mags, mags, errors)
        assert errors == [None]
        got = sorted(zip(est.theta_deg[0], est.phi_deg[0]))
        np.testing.assert_allclose(got, [(60, 60), (66, 120)], atol=1e-6)
        assert not est.pairing_ambiguous[0]

    def test_tie_keeps_the_first_permutation(self):
        # duplicated xi estimates: both pairings give the same stacked matrix
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        errors = [None]
        est = pair_and_recover(np.array([[0.3, 1.3]]), np.array([[0.5, 0.5]]), _stacked(Z, X)[None], cfg,
                               np.ones((1, 2)), np.array([[1.0, 2.0]]), errors)
        assert errors == [None]
        assert est.pairing_ambiguous[0]
        assert est.mag_x[0, 0] == 1.0

    def test_identical_pairs_are_a_convergence_failure(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        errors = [None]
        pair_and_recover(np.array([[0.3, 0.3]]), np.array([[0.5, 0.5]]), _stacked(Z, X)[None], cfg,
                         np.ones((1, 2)), np.ones((1, 2)), errors)
        assert isinstance(errors[0], ConvergenceFailure)

    def test_a_whole_failing_solve_block_mid_stack(self):
        # q = 2 solves both pairings of each trial, PAIRING_BLOCK systems per stacked solve: the
        # first PAIRING_BLOCK // 2 trials' identical pairs fill the first block, every system in it
        # singular, and 8 healthy trials follow in the next
        cfg = ArrayConfig(m=8, spacing_ratio=0.5)
        bad = PAIRING_BLOCK // 2
        T = bad + 8
        Y = np.stack([_stacked(*_setup([(30, 40), (70, 120)], M=50, sigma2=0.01, seed=s)[2:]) for s in range(T)])
        psi, xi = (np.tile(a, (T, 1)) for a in electrical_angles([DirectionPair(30, 40), DirectionPair(70, 120)], cfg))
        psi[:bad], xi[:bad] = 0.3, 0.5
        mags = np.ones((T, 2))
        errors = [None] * T
        est = pair_and_recover(psi.copy(), xi.copy(), Y, cfg, mags.copy(), mags.copy(), errors)
        for t in range(bad):
            assert isinstance(errors[t], ConvergenceFailure)
            assert str(errors[t]).startswith("singular pairing normal equations")
        for t in range(bad, T):
            alone_errors = [None]
            alone = pair_and_recover(psi[t:t + 1].copy(), xi[t:t + 1].copy(), Y[t:t + 1], cfg,
                                     mags[:1].copy(), mags[:1].copy(), alone_errors)
            assert errors[t] is None and alone_errors == [None]
            assert _row(est, t) == _row(alone)

    def test_more_sources_than_the_pairing_budget(self):
        # rejected before any data is touched: 8! pairings exceed the budget
        cfg, src, Z, X = _setup([(30, 40)], m=10, M=50)
        angles = np.linspace(-2.0, 2.0, 8)[None]
        with pytest.raises(UnsupportedScenario, match="pairings"):
            pair_and_recover(angles, angles, _stacked(Z, X)[None], cfg, np.ones((1, 8)), np.ones((1, 8)), [None])


FIVE_SOURCES = [(30, 40), (60, 100), (100, 60), (140, 130), (80, 150)]


def _lstsq_pairing(psis, xis, Y, cfg):
    """Brute-force reference: one lstsq per permutation, first minimum wins."""
    A_z = np.column_stack([steering_vector(p, cfg.m) for p in psis])
    A_x = np.column_stack([steering_vector(x, cfg.m) for x in xis])
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
        psis, xis = electrical_angles(src.directions, cfg)
        rng = np.random.default_rng(q)
        # estimate-like inputs: perturbed and each set sorted on its own
        psis = sorted(np.asarray(psis) + rng.normal(0, jitter, q))
        xis = sorted(np.asarray(xis) + rng.normal(0, jitter, q))
        perm, resid, ambiguous = _lstsq_pairing(psis, xis, _stacked(Z, X), cfg)
        errors = [None]
        est = pair_and_recover(np.array([psis]), np.array([xis]), _stacked(Z, X)[None], cfg,
                               np.ones((1, q)), np.ones((1, q)), errors)
        assert errors == [None]
        assert est.xi_hat[0].tolist() == [xis[j] for j in perm]
        assert est.pairing_ambiguous[0] == ambiguous
        assert est.pairing_residual[0] == pytest.approx(resid, rel=1e-9)

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
        assert est.theta_deg[0, 0] == pytest.approx(60.0, abs=1e-6)
        assert est.phi_deg[0, 0] == pytest.approx(45.0, abs=1e-6)

    def test_two_sources_exact(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        est = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        got = sorted(zip(est.theta_deg[0].tolist(), est.phi_deg[0].tolist()))
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
            got = sorted(zip(est.theta_deg[0].tolist(), est.phi_deg[0].tolist()))
            np.testing.assert_allclose(got, sorted(pairs), atol=1e-6)

    def test_q_too_large(self):
        cfg, src, Z, X = _setup([(60, 90)], m=4, M=10)
        with pytest.raises(UnsupportedScenario, match="q <= m - 2"):
            estimate_2d_aoa(Z, X, 3, cfg, EstimatorMode.NOISELESS)

    def test_too_few_snapshots(self):
        # m=5 needs M >= m - 1 = 4 rows in each prediction system
        cfg = ArrayConfig(m=5, spacing_ratio=0.5)
        Z, X = SnapshotMatrix(np.ones((5, 3)), Subarray.Z), SnapshotMatrix(np.ones((5, 3)), Subarray.X)
        with pytest.raises(UnsupportedScenario, match=r"M >= max\(q, m - 1\)"):
            estimate_2d_aoa(Z, X, 1, cfg, EstimatorMode.NOISELESS)

    def test_mode_agreement_on_noiseless_data(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        a = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        b = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.TRUNCATED_SVD)
        assert a.theta_deg[0] == pytest.approx(b.theta_deg[0], abs=1e-6)
        assert a.phi_deg[0] == pytest.approx(b.phi_deg[0], abs=1e-6)

    def test_scale_invariance(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        scale = 2.7 - 1.3j
        Zs = SnapshotMatrix(scale * Z.data, Subarray.Z)
        Xs = SnapshotMatrix(scale * X.data, Subarray.X)
        a = estimate_2d_aoa(Z, X, 2, cfg)
        b = estimate_2d_aoa(Zs, Xs, 2, cfg)
        assert a.theta_deg[0] == pytest.approx(b.theta_deg[0], abs=1e-8)
        assert a.phi_deg[0] == pytest.approx(b.phi_deg[0], abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_data_is_a_convergence_failure(self, seed):
        # every entry is finite, but the SVD of P overflows to sigma_1 = inf
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=200, sigma2=0.01, seed=seed)
        Zs = SnapshotMatrix(1e307 * Z.data, Subarray.Z)
        Xs = SnapshotMatrix(1e307 * X.data, Subarray.X)
        with pytest.raises(ConvergenceFailure, match="coefficient solve"):
            estimate_2d_aoa(Zs, Xs, 2, cfg)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e306, 1e-200, 1e-300])
    def test_pairing_does_not_depend_on_the_data_scale(self, scale):
        # squared residuals of data this far from 1 overflow or underflow
        cfg, src, Z, X = _setup([(30, 120), (70, 40)], m=8, M=200, sigma2=0.01, seed=3)
        ref = estimate_2d_aoa(Z, X, 2, cfg)
        Zs = SnapshotMatrix(scale * Z.data, Subarray.Z)
        Xs = SnapshotMatrix(scale * X.data, Subarray.X)
        est = estimate_2d_aoa(Zs, Xs, 2, cfg)
        assert not est.pairing_ambiguous[0]
        assert est.theta_deg[0] == pytest.approx(ref.theta_deg[0], rel=1e-12)
        assert est.phi_deg[0] == pytest.approx(ref.phi_deg[0], rel=1e-12)
        assert est.pairing_residual[0] / scale == pytest.approx(ref.pairing_residual[0], rel=1e-12)

    @pytest.mark.parametrize("m, x_snapshots", [(10, 50), (8, 40)], ids=["more_sensors", "unequal_M"])
    def test_shapes_other_than_m_by_M_are_rejected(self, m, x_snapshots):
        # stacking them would silently mix sensors across the subarrays
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=m, M=50)
        X = SnapshotMatrix(X.data[:, :x_snapshots], Subarray.X)
        with pytest.raises(ValueError, match="8 x M"):
            estimate_2d_aoa(Z, X, 2, ArrayConfig(m=8, spacing_ratio=0.5))

    def test_source_order_invariance(self):
        pairs = [(30, 40), (70, 120)]
        cfg, src, Z, X = _setup(pairs, m=8, M=50, seed=5)
        cfg2, src2, Z2, X2 = _setup(pairs[::-1], m=8, M=50, seed=5)
        a = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        b = estimate_2d_aoa(Z2, X2, 2, cfg2, EstimatorMode.NOISELESS)
        got_a = sorted((round(t, 6), round(p, 6)) for t, p in zip(a.theta_deg[0].tolist(), a.phi_deg[0].tolist()))
        got_b = sorted((round(t, 6), round(p, 6)) for t, p in zip(b.theta_deg[0].tolist(), b.phi_deg[0].tolist()))
        assert got_a == got_b

    def test_moderate_noise_stays_close(self):
        cfg, src, Z, X = _setup([(60, 45)], m=8, M=200, sigma2=10 ** (-20 / 10), seed=6)
        est = estimate_2d_aoa(Z, X, 1, cfg, EstimatorMode.TRUNCATED_SVD)
        assert abs(est.theta_deg[0, 0] - 60) < 2.0
        assert abs(est.phi_deg[0, 0] - 45) < 4.0


class TestCompressOnce:
    """The estimate on the triangular factor of [Z; X] is the estimate on the raw data."""

    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("mode", list(EstimatorMode))
    @pytest.mark.parametrize("M", [7, 15, 16, 200], ids=["M=m-1", "M=2m-1", "M=2m", "M=200"])
    def test_matches_the_uncompressed_chain(self, q, mode, M):
        # M < 2m gives a trapezoidal factor
        cfg, src, Z, X = _setup(FIVE_SOURCES[:q], m=8, M=M, sigma2=0.01, seed=1)
        got = estimate_2d_aoa(Z, X, q, cfg, mode)
        errors = [None]
        psis, mags_z, _ = estimate_electrical(Z.data.T[None], q, mode, errors)
        xis, mags_x, _ = estimate_electrical(X.data.T[None], q, mode, errors)
        want = pair_and_recover(psis, xis, _stacked(Z, X)[None], cfg, mags_z, mags_x, errors)
        assert errors == [None]
        assert got.theta_deg[0] == pytest.approx(want.theta_deg[0], abs=1e-12)
        assert got.phi_deg[0] == pytest.approx(want.phi_deg[0], abs=1e-12)
        assert got.pairing_residual[0] == pytest.approx(want.pairing_residual[0], rel=1e-9)

    def test_one_qr_and_small_svds_per_call(self, monkeypatch):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=2000, sigma2=0.01)
        calls = {"qr": 0, "check_scenario": 0}
        svd_rows = []
        real_qr, real_svd, real_check = np.linalg.qr, np.linalg.svd, laoa.estimator.check_scenario

        def qr(*a, **k):
            calls["qr"] += 1
            return real_qr(*a, **k)

        def svd(A, *a, **k):
            svd_rows.append(A.shape[-2])
            return real_svd(A, *a, **k)

        def check_scenario(*a):
            calls["check_scenario"] += 1
            return real_check(*a)

        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(laoa.estimator, "check_scenario", check_scenario)
        estimate_2d_aoa(Z, X, 2, cfg)
        assert calls == {"qr": 1, "check_scenario": 1}
        # both subarrays' systems go through one stacked SVD
        assert len(svd_rows) == 1 and max(svd_rows) <= 2 * cfg.m


class TestStackParity:
    """Every trial of a stack gets exactly what it gets alone: result, failure class and flags."""

    CFG = ArrayConfig(m=8, spacing_ratio=0.5)
    PAIRS = [(30, 40), (70, 120)]

    def _data(self, pairs=PAIRS, sigma2=0.01, seed=0):
        _, _, Z, X = _setup(pairs, m=8, M=64, sigma2=sigma2, seed=seed)
        return np.vstack([Z.data, X.data])

    def _alone(self, Y):
        # one trial as the stack of one that estimate_2d_aoa runs: its row, failure and flags
        return estimate_stack(Y[None], 2, self.CFG)

    def _inputs(self, monkeypatch, module, name, Y):
        # every matrix of each call that module.name gets while Y's trial runs alone, in call order
        real, seen = getattr(module, name), []

        def record(a, *args, **kwargs):
            seen.extend(np.array(item) for item in a)
            return real(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, record)
            self._alone(Y)
        return seen

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_failures_and_flags_match_the_trials_alone(self, monkeypatch, order):
        healthy = [self._data(seed=s) for s in range(4)]
        deflating = self._data(seed=5)
        deflating[0] = 0.0  # Z's first sensor is silent: P1 = 0, so every coefficient is 0
        rank_deficient = self._data(pairs=self.PAIRS[:1], sigma2=0.0, seed=10)
        rank_deficient_failing = rank_deficient.copy()
        rank_deficient_failing[0] = 0.0  # fails after both subarrays reduced their rank
        trials = {
            "overflow": 1e307 * self._data(seed=4),
            "deflation": deflating,
            "residual": self._data(seed=6),
            "out_of_range": self._data(sigma2=10.0, seed=8),  # -10 dB
            "singular_pairing": self._data(seed=7),
            "ambiguous_pairing": self._data(seed=9),
            "rank_deficient": rank_deficient,
            "rank_deficient_failing": rank_deficient_failing,
            "lapack_raises": self._data(seed=11),
        }

        # LAPACK's SVD fails on one trial's Z system, which fails the whole stacked call
        svd_target = self._inputs(monkeypatch, np.linalg, "svd", trials["lapack_raises"])[0]
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if any(np.array_equal(item, svd_target) for item in a):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        # one trial's eigenvalues come back 0.1 off, too far for one Newton step
        eig_target = self._inputs(monkeypatch, np.linalg, "eigvals", trials["residual"])[0]
        real_eigvals = np.linalg.eigvals

        def eigvals(a):
            w = real_eigvals(a)
            w[[np.array_equal(item, eig_target) for item in a]] += 0.1
            return w

        # identical (psi, xi) pairs make the pairing singular; equal xi make it ambiguous
        singular = self._inputs(monkeypatch, laoa.estimator, "estimate_electrical", trials["singular_pairing"])
        ambiguous = self._inputs(monkeypatch, laoa.estimator, "estimate_electrical", trials["ambiguous_pairing"])
        forced = [(singular[0], [0.3, 0.3]), (singular[1], [1.0, 1.0]), (ambiguous[1], [0.5, 0.5])]
        real_electrical = laoa.estimator.estimate_electrical

        def estimate_electrical(B, *args):
            angles, mags, reduced = real_electrical(B, *args)
            for block, value in forced:
                angles[[np.array_equal(item, block) for item in B]] = value
            return angles, mags, reduced

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        monkeypatch.setattr(laoa.estimator, "estimate_electrical", estimate_electrical)

        alone = {name: self._alone(Y) for name, Y in trials.items()}
        expected = {
            "overflow": ConvergenceFailure,
            "deflation": NotEnoughRoots,
            "residual": ConvergenceFailure,
            "out_of_range": OutOfRange,
            "singular_pairing": ConvergenceFailure,
            "lapack_raises": ConvergenceFailure,
            "rank_deficient_failing": NotEnoughRoots,
        }
        for name, cls in expected.items():
            # a failed trial's pairing is never ambiguous
            assert type(alone[name].errors[0]) is cls and not alone[name].pairing_ambiguous[0], name
        flags = {name: (est.reduced_rank[0].tolist(), bool(est.pairing_ambiguous[0])) for name, est in alone.items()}
        assert flags["ambiguous_pairing"] == ([-1, -1], True)
        # both subarrays' ranks are kept, also where the trial then fails
        assert flags["rank_deficient"] == flags["rank_deficient_failing"] == ([1, 1], False)
        assert [name for name, f in flags.items() if f != ([-1, -1], False)] == [
            "ambiguous_pairing", "rank_deficient", "rank_deficient_failing"
        ]

        stack = [healthy[0], *trials.values(), *healthy[1:]]
        if order == "reversed":
            stack = stack[::-1]
        want = [self._alone(Y) for Y in stack]
        got = estimate_stack(np.stack(stack), 2, self.CFG)
        for t, w in enumerate(want):
            # each row's flags are the trial's own, failed trials' included
            assert got.reduced_rank[t].tolist() == w.reduced_rank[0].tolist()
            assert got.pairing_ambiguous[t] == w.pairing_ambiguous[0]
            if w.errors[0] is not None:
                assert type(got.errors[t]) is type(w.errors[0])
                # a failed trial's row holds no estimate
                rows = [a[t] for a in (got.theta_deg, got.phi_deg, got.psi_hat, got.xi_hat, got.mag_z, got.mag_x)]
                assert np.all(np.isnan(rows)) and np.isnan(got.pairing_residual[t]) and not got.pairing_ambiguous[t]
            else:
                assert got.errors[t] is None and _row(got, t) == _row(w)


class TestReducedRank:
    """reduced_rank holds both subarrays' ranks as their solves measured them, whatever fails later."""

    CFG = ArrayConfig(m=8, spacing_ratio=0.5)

    def _run(self, Y):
        # a stack of one: the trial's failure and its Z and X reduced ranks
        got = estimate_stack(Y[None], 2, self.CFG)
        return got.errors[0], got.reduced_rank[0].tolist()

    def _data(self):
        # one noiseless source at q = 2: both prediction systems have rank 1
        _, _, Z, X = _setup([(30, 40)], m=8, M=64, sigma2=0.0, seed=10)
        return _stacked(Z, X)

    def test_a_z_chain_that_fails_after_its_solve_keeps_both_ranks(self):
        Y = self._data()
        Y[0] = 0.0  # Z's first sensor is silent: Z's coefficients are 0
        exc, reduced = self._run(Y)
        assert type(exc) is NotEnoughRoots and reduced == [1, 1]

    def test_an_x_chain_that_fails_after_its_solve_keeps_both_ranks(self):
        Y = self._data()
        Y[self.CFG.m] = 0.0  # X's first sensor is silent: X fails after its solve
        exc, reduced = self._run(Y)
        assert type(exc) is NotEnoughRoots and reduced == [1, 1]

    def test_a_trial_that_fails_in_the_solve_reduces_no_rank(self):
        exc, reduced = self._run(1e307 * self._data())  # R is finite, but sigma_1 overflows in both subarrays
        assert type(exc) is ConvergenceFailure and "largest singular value" in str(exc) and reduced == [-1, -1]
