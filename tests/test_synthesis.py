import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    SignalModel,
    SourceSet,
    build_lp_system,
    generate_noise,
    generate_sources,
    synthesize,
)
from laoa.errors import UnsupportedScenario

CFG = ArrayConfig(m=6, spacing_ratio=0.5)


def _sources(*pairs):
    return SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))


class TestGenerateSources:
    def test_zero_power(self):
        src = SourceSet(directions=(DirectionPair(60, 45),), power=0.0)
        S = generate_sources(src, 3, np.random.default_rng(0))
        assert np.array_equal(S, np.zeros((1, 3)))

    def test_unit_modulus(self):
        src = _sources((60, 45), (100, 120))
        S = generate_sources(src, 1000, np.random.default_rng(1))
        np.testing.assert_allclose(np.abs(S), 1.0, atol=1e-14)

    def test_rows_uncorrelated(self):
        src = _sources((60, 45), (100, 120))
        S = generate_sources(src, 1000, np.random.default_rng(2))
        xcorr = abs(np.vdot(S[0], S[1])) / 1000
        assert xcorr < 0.1

    def test_qpsk_constellation(self):
        src = SourceSet(directions=(DirectionPair(60, 45),), signal_model=SignalModel.QPSK)
        S = generate_sources(src, 400, np.random.default_rng(3))
        np.testing.assert_allclose(np.abs(S), 1.0, atol=1e-14)
        points = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
        dist = np.min(np.abs(S[..., None] - points), axis=-1)
        assert np.max(dist) < 1e-12

    def test_too_few_snapshots(self):
        with pytest.raises(UnsupportedScenario, match="M >= q"):
            generate_sources(_sources((60, 45), (100, 120)), 1, np.random.default_rng(0))


class TestGenerateNoise:
    def test_zero_variance(self):
        assert np.array_equal(generate_noise(4, 10, 0.0, np.random.default_rng(0)),
                              np.zeros((4, 10)))

    def test_covariance(self):
        N = generate_noise(4, 50000, 2.0, np.random.default_rng(4))
        cov = N @ N.conj().T / 50000
        diag = np.real(np.diag(cov))
        assert np.all((diag > 1.9) & (diag < 2.1))
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.1

    def test_pseudo_covariance_vanishes(self):
        N = generate_noise(4, 50000, 2.0, np.random.default_rng(5))
        pcov = N @ N.T / 50000
        assert np.max(np.abs(pcov)) < 0.1


class TestSynthesize:
    def test_broadside_rows_equal(self):
        src = SourceSet(directions=(DirectionPair(90, 90),))
        cfg = ArrayConfig(m=3, spacing_ratio=0.5)
        Z, X, _ = synthesize(src, cfg, 2, 0.0, np.random.default_rng(6))
        for snap in (Z, X):
            np.testing.assert_allclose(snap.data, np.tile(snap.data[0], (3, 1)), atol=1e-14)

    def test_sixty_degree_phase_ramp(self):
        src = SourceSet(directions=(DirectionPair(60, 90),))
        cfg = ArrayConfig(m=2, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 5, 0.0, np.random.default_rng(7))
        np.testing.assert_allclose(Z.data[1], 1j * Z.data[0], atol=1e-14)

    def test_noiseless_rank_equals_q(self):
        src = _sources((40, 30), (110, 100))
        Z, _, _ = synthesize(src, CFG, 20, 0.0, np.random.default_rng(8))
        s = np.linalg.svd(Z.data, compute_uv=False)
        assert s[2] < 1e-10 * s[0]

    def test_shared_source_matrix(self):
        src = _sources((40, 30), (110, 100))
        Z, X, S = synthesize(src, CFG, 20, 0.0, np.random.default_rng(9))
        # noiseless: both data matrices must be exact steering transforms of S
        assert np.linalg.matrix_rank(np.vstack([Z.data, X.data, S])) == 2

    def test_separation_enforced(self):
        src = _sources((60.0, 45.0), (60.2, 45.0))
        with pytest.raises(ValueError, match="separated"):
            synthesize(src, CFG, 20, 0.0, np.random.default_rng(10))

    def test_determinism(self):
        src = _sources((40, 30), (110, 100))
        a = synthesize(src, CFG, 30, 0.5, np.random.default_rng(11))
        b = synthesize(src, CFG, 30, 0.5, np.random.default_rng(11))
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)


class TestBuildLpSystem:
    def test_structural_rearrangement(self):
        data = np.array([[1, 2], [3, 4], [5, 6]], dtype=complex)  # m=3 sensors x M=2 snapshots
        P, P1 = build_lp_system(data.T)
        np.testing.assert_array_equal(P, [[3, 5], [4, 6]])
        np.testing.assert_array_equal(P1, [-1, -2])

    def test_zero_matrix(self):
        P, P1 = build_lp_system(np.zeros((4, 3)))
        assert not P.any() and not P1.any()

    def test_single_source_exact_coefficient(self):
        # m=2, psi=pi/2: z2 = j*z1, so c1 = j solves P c = P1... with sign:
        # z1 + c1 z2 = 0  =>  c1 = -z1/z2 = -1/j = j
        src = SourceSet(directions=(DirectionPair(60, 90),))
        cfg = ArrayConfig(m=2, spacing_ratio=0.5)
        Z, _, _ = synthesize(src, cfg, 5, 0.0, np.random.default_rng(12))
        P, P1 = build_lp_system(Z.data.T)
        np.testing.assert_allclose(P[:, 0] * 1j, P1, atol=1e-12)
