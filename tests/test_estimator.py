import math
import warnings
from collections import Counter
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
    estimate_electrical,
    pair_and_recover,
    synthesize,
)
from laoa.array_model import steering_vector
from laoa.errors import (
    AoaError,
    ConvergenceFailure,
    NotEnoughRoots,
    OutOfRange,
    PairingAmbiguousWarning,
    RankDeficiencyWarning,
    UnsupportedScenario,
)
from laoa.estimator import PAIRING_AMBIGUITY_REL_TOL, _row_estimate, estimate_stack, permutation_table
from laoa.synthesis import Subarray, electrical_angle_sets


def _setup(pairs, m=8, M=50, sigma2=0.0, seed=0, spacing=0.5):
    cfg = ArrayConfig(m=m, spacing_ratio=spacing)
    src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))
    Z, X, S = synthesize(src, cfg, M, sigma2, np.random.default_rng(seed))
    return cfg, src, Z, X


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


class TestEstimateElectrical:
    def test_single_source(self):
        cfg, src, Z, _ = _setup([(60, 90)], m=4, M=10)
        angles, mags = estimate_electrical(Z.data.T, 1, EstimatorMode.NOISELESS)
        assert angles[0] == pytest.approx(np.pi / 2, abs=1e-9)
        assert mags[0] == pytest.approx(1.0, abs=1e-9)

    def test_three_sources(self):
        # pick directions whose psi values are well separated
        thetas = [np.rad2deg(np.arccos(p / np.pi)) for p in (-1.2, 0.3, 2.0)]
        cfg2, src, Z, _ = _setup(list(zip(thetas, (150.0, 100.0, 40.0))), m=8, M=50)
        angles, _ = estimate_electrical(Z.data.T, 3, EstimatorMode.NOISELESS)
        np.testing.assert_allclose(sorted(angles), [-1.2, 0.3, 2.0], atol=1e-8)


class TestPairing:
    def test_single_source_identity(self):
        cfg, src, Z, X = _setup([(60, 45)], m=6, M=30)
        psis, xis = electrical_angle_sets(src, cfg)
        est = pair_and_recover(list(psis), list(xis), _stacked(Z, X), cfg)
        assert est.sources[0].theta_deg == pytest.approx(60.0, abs=1e-9)
        assert est.pairing_residual == pytest.approx(0.0, abs=1e-9)

    def test_two_sources_correct_pairing(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50)
        psis, xis = electrical_angle_sets(src, cfg)
        Y = _stacked(Z, X)
        est = pair_and_recover(list(psis), list(xis), Y, cfg)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        np.testing.assert_allclose(got, [(30, 40), (70, 120)], atol=1e-6)
        # the deliberately swapped association must fit far worse
        good = _stacked_residual(psis, xis, Y, cfg)
        bad = _stacked_residual(psis, xis[::-1], Y, cfg)
        assert bad > 1e3 * max(good, 1e-300)

    def test_similar_elevations_still_unambiguous(self):
        # elevations as close as min_sep allows; only xi distinguishes the sources
        cfg, src, Z, X = _setup([(60, 60), (66, 120)], m=8, M=50)
        psis, xis = electrical_angle_sets(src, cfg)
        est = pair_and_recover(list(psis), list(xis), _stacked(Z, X), cfg)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        np.testing.assert_allclose(got, [(60, 60), (66, 120)], atol=1e-6)
        assert not est.pairing_ambiguous

    def test_tie_keeps_the_first_permutation(self):
        # duplicated xi estimates: both pairings give the same stacked matrix
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        with pytest.warns(PairingAmbiguousWarning):
            est = pair_and_recover([0.3, 1.3], [0.5, 0.5], _stacked(Z, X), cfg, root_mags_x=[1.0, 2.0])
        assert est.pairing_ambiguous
        assert est.sources[0].root_magnitude_x == 1.0

    def test_identical_pairs_are_a_convergence_failure(self):
        cfg, src, Z, X = _setup([(30, 40), (70, 120)], m=8, M=50, sigma2=0.01)
        with pytest.raises(ConvergenceFailure):
            pair_and_recover([0.3, 0.3], [0.5, 0.5], _stacked(Z, X), cfg)

    def test_more_sources_than_the_pairing_budget(self):
        # rejected before any data is touched: 8! pairings exceed the budget
        cfg, src, Z, X = _setup([(30, 40)], m=10, M=50)
        angles = list(np.linspace(-2.0, 2.0, 8))
        with pytest.raises(UnsupportedScenario, match="pairings"):
            pair_and_recover(angles, angles, _stacked(Z, X), cfg)


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
        psis, xis = electrical_angle_sets(src, cfg)
        rng = np.random.default_rng(q)
        # estimate-like inputs: perturbed and each set sorted on its own
        psis = sorted(np.asarray(psis) + rng.normal(0, jitter, q))
        xis = sorted(np.asarray(xis) + rng.normal(0, jitter, q))
        perm, resid, ambiguous = _lstsq_pairing(psis, xis, _stacked(Z, X), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingAmbiguousWarning)
            est = pair_and_recover(psis, xis, _stacked(Z, X), cfg)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", PairingAmbiguousWarning)
            est = estimate_2d_aoa(Zs, Xs, 2, cfg)
        for s, r in zip(est.sources, ref.sources):
            assert (s.theta_deg, s.phi_deg) == pytest.approx((r.theta_deg, r.phi_deg), rel=1e-12)
        assert est.pairing_residual / scale == pytest.approx(ref.pairing_residual, rel=1e-12)

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
        got_a = sorted((round(s.theta_deg, 6), round(s.phi_deg, 6)) for s in a.sources)
        got_b = sorted((round(s.theta_deg, 6), round(s.phi_deg, 6)) for s in b.sources)
        assert got_a == got_b

    def test_moderate_noise_stays_close(self):
        cfg, src, Z, X = _setup([(60, 45)], m=8, M=200, sigma2=10 ** (-20 / 10), seed=6)
        est = estimate_2d_aoa(Z, X, 1, cfg, EstimatorMode.TRUNCATED_SVD)
        assert abs(est.sources[0].theta_deg - 60) < 2.0
        assert abs(est.sources[0].phi_deg - 45) < 4.0


class TestCompressOnce:
    """The estimate on the triangular factor of [Z; X] is the estimate on the raw data."""

    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("mode", list(EstimatorMode))
    @pytest.mark.parametrize("M", [7, 15, 16, 200], ids=["M=m-1", "M=2m-1", "M=2m", "M=200"])
    def test_matches_the_uncompressed_chain(self, q, mode, M):
        # M < 2m gives a trapezoidal factor
        cfg, src, Z, X = _setup(FIVE_SOURCES[:q], m=8, M=M, sigma2=0.01, seed=1)
        got = estimate_2d_aoa(Z, X, q, cfg, mode)
        psis, mags_z = estimate_electrical(Z.data.T, q, mode)
        xis, mags_x = estimate_electrical(X.data.T, q, mode)
        want = pair_and_recover(psis, xis, _stacked(Z, X), cfg, mags_z, mags_x)
        for s, w in zip(got.sources, want.sources):
            assert s.theta_deg == pytest.approx(w.theta_deg, abs=1e-12)
            assert s.phi_deg == pytest.approx(w.phi_deg, abs=1e-12)
        assert got.pairing_residual == pytest.approx(want.pairing_residual, rel=1e-9)

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
        assert len(svd_rows) == 2 and max(svd_rows) <= 2 * cfg.m


class TestStackParity:
    """Every trial of a stack gets exactly what it gets alone: result, failure class and warnings."""

    CFG = ArrayConfig(m=8, spacing_ratio=0.5)
    PAIRS = [(30, 40), (70, 120)]

    def _data(self, pairs=PAIRS, sigma2=0.01, seed=0):
        _, _, Z, X = _setup(pairs, m=8, M=64, sigma2=sigma2, seed=seed)
        return np.vstack([Z.data, X.data])

    def _alone(self, Y):
        # estimate_2d_aoa on one trial: its estimate or the AoaError it raises, and its warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = estimate_2d_aoa(SnapshotMatrix(Y[:8], Subarray.Z), SnapshotMatrix(Y[8:], Subarray.X), 2, self.CFG)
            except AoaError as exc:
                result = exc
        return result, Counter(w.category for w in caught)

    def _inputs(self, monkeypatch, module, name, Y):
        # the first matrix of each call that module.name gets while Y's trial runs alone
        real, seen = getattr(module, name), []

        def record(a, *args, **kwargs):
            seen.append(np.array(a[0]))
            return real(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(module, name, record)
            self._alone(Y)
        return seen

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_failures_and_warnings_match_the_trials_alone(self, monkeypatch, order):
        healthy = [self._data(seed=s) for s in range(4)]
        deflating = self._data(seed=5)
        deflating[0] = 0.0  # Z's first sensor is silent: P1 = 0, so every coefficient is 0
        trials = {
            "overflow": 1e307 * self._data(seed=4),
            "deflation": deflating,
            "residual": self._data(seed=6),
            "out_of_range": self._data(sigma2=10.0, seed=8),  # -10 dB
            "singular_pairing": self._data(seed=7),
            "ambiguous_pairing": self._data(seed=9),
            "rank_deficient": self._data(pairs=self.PAIRS[:1], sigma2=0.0, seed=10),
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
            angles, mags = real_electrical(B, *args)
            for block, value in forced:
                angles[[np.array_equal(item, block) for item in B]] = value
            return angles, mags

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
        }
        for name, cls in expected.items():
            # a trial that fails warns about nothing, as no step after the failing one runs for it
            assert type(alone[name][0]) is cls and not alone[name][1], name
        assert alone["ambiguous_pairing"][0].pairing_ambiguous
        assert alone["ambiguous_pairing"][1] == Counter({PairingAmbiguousWarning: 1})
        assert alone["rank_deficient"][1][RankDeficiencyWarning] >= 1

        stack = [healthy[0], *trials.values(), *healthy[1:]]
        if order == "reversed":
            stack = stack[::-1]
        want = [self._alone(Y) for Y in stack]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = estimate_stack(np.stack(stack), 2, self.CFG)
        for t, (w, _) in enumerate(want):
            if isinstance(w, AoaError):
                assert type(got.errors[t]) is type(w)
                # a failed trial's row holds no estimate
                rows = [a[t] for a in (got.theta_deg, got.phi_deg, got.psi_hat, got.xi_hat, got.mag_z, got.mag_x)]
                assert np.all(np.isnan(rows)) and np.isnan(got.pairing_residual[t]) and not got.pairing_ambiguous[t]
            else:
                assert got.errors[t] is None and _row_estimate(got, t) == w
        assert Counter(w.category for w in caught) == sum((c for _, c in want), Counter())
