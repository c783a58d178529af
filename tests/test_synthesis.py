import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    SignalModel,
    SnapshotMatrix,
    SourceSet,
    build_lp_system,
    generate_noise,
    generate_sources,
    steering_vector,
    synthesize,
)
from laoa.errors import UnsupportedScenario
from laoa.array_model import electrical_angles
from laoa.synthesis import MIN_ELECTRICAL_SEPARATION, Subarray, _synthesize_stack, separated_angle_sets

CFG = ArrayConfig(m=6, spacing_ratio=0.5)


def _sources(*pairs):
    return SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: SourceSet(directions=()), "need at least one source"),
        (lambda: SnapshotMatrix(np.zeros((1, 5)), Subarray.Z), "must be m x M with m >= 2, M >= 1, got (1, 5)"),
        (lambda: SnapshotMatrix(np.zeros((3, 0)), Subarray.X), "must be m x M with m >= 2, M >= 1, got (3, 0)"),
        (lambda: SnapshotMatrix(np.zeros(4), Subarray.Z), "must be m x M with m >= 2, M >= 1, got (4,)"),
        (lambda: SnapshotMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]), Subarray.Z), "contains non-finite entries"),
        (lambda: SnapshotMatrix(np.array([[1.0, 0.0], [np.inf, 1.0]]), Subarray.X), "contains non-finite entries"),
        (lambda: generate_noise(2, 3, -1e-300, np.random.default_rng(0)), "sigma2 must be >= 0"),
        (lambda: generate_noise(2, 3, np.nan, np.random.default_rng(0)), "sigma2 must be >= 0"),
        (lambda: synthesize(_sources((60, 45)), CFG, 3, np.inf, np.random.default_rng(0)), "sigma2 must be >= 0"),
    ],
    ids=["no_sources", "one_row", "no_snapshots", "not_a_matrix", "nan_entry", "inf_entry", "negative_noise",
         "nan_noise", "inf_noise"],
)
def test_input_checks(build, fragment):
    with pytest.raises(ValueError) as info:
        build()
    assert fragment in str(info.value)


class TestGenerateSources:
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

    def test_separation_check_matches_the_pairwise_loop(self):
        # the loop over pairs that the array check replaced, as the reference: the same
        # first pair (psi before xi, i < k in row order) and the same distance, or no error
        def loop_message(angles):
            for label, values in zip(("psi", "xi"), angles):
                for i in range(len(values)):
                    for k in range(i + 1, len(values)):
                        delta = abs(values[i] - values[k]) % (2.0 * np.pi)
                        delta = min(delta, 2.0 * np.pi - delta)
                        if delta < MIN_ELECTRICAL_SEPARATION:
                            return f"sources {i} and {k} have {label} separated by only {delta:.4g} rad "
            return None

        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(300):
            q = int(rng.integers(2, 8))
            cfg = ArrayConfig(m=9, spacing_ratio=float(rng.uniform(0.05, 0.5)))
            src = _sources(*zip(rng.uniform(1, 179, q).tolist(), rng.uniform(0, 180, q).tolist()))
            want = loop_message(electrical_angles(src.directions, cfg))
            try:
                separated_angle_sets(src, cfg)
                got = None
            except UnsupportedScenario as exc:
                got = str(exc).split("(<")[0]
            assert got == want
            outcomes.add(None if want is None else want.split()[5])
        assert outcomes == {None, "psi", "xi"}

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


class TestDrawOrder:
    """A trial's stream is S, then Z's real and imaginary noise, then X's, as generate_noise draws them."""

    SRC = ((60, 45), (100, 120))

    @pytest.mark.parametrize("model", list(SignalModel))
    @pytest.mark.parametrize("sigma2", [0.3, 0.0, -0.0])
    def test_synthesize_is_sources_then_z_noise_then_x_noise(self, model, sigma2):
        src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in self.SRC), signal_model=model)
        Z, X, S = synthesize(src, CFG, 40, sigma2, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        S_want = generate_sources(src, 40, rng)
        psis, xis = electrical_angles(src.directions, CFG)
        Z_want = steering_vector(psis, CFG.m) @ S_want + generate_noise(CFG.m, 40, sigma2, rng)
        X_want = steering_vector(xis, CFG.m) @ S_want + generate_noise(CFG.m, 40, sigma2, rng)
        assert S.tobytes() == S_want.tobytes()
        assert Z.data.tobytes() == Z_want.tobytes()
        assert X.data.tobytes() == X_want.tobytes()

    def test_every_trial_of_a_stack_gets_its_noise(self):
        # the noise is added to the real and imaginary views of the stack's strided halves;
        # a trial with noise must differ from its noiseless product by the noise, and every
        # trial must hold what synthesize gives its stream alone
        src = _sources(*self.SRC)
        sigma2, seeds = [0.3, 0.0, 0.3], [8, 9, 10]
        Y, S = _synthesize_stack(src, CFG, 40, sigma2, [np.random.default_rng(seed) for seed in seeds])
        psis, xis = electrical_angles(src.directions, CFG)
        A = np.vstack([steering_vector(psis, CFG.m), steering_vector(xis, CFG.m)])
        for y, s, v, seed in zip(Y, S, sigma2, seeds, strict=True):
            Z, X, S_one = synthesize(src, CFG, 40, v, np.random.default_rng(seed))
            assert y.tobytes() == np.vstack([Z.data, X.data]).tobytes()
            assert s.tobytes() == S_one.tobytes()
            # dropped noise would leave the product alone; the noise's std is sqrt(0.3 / 2) per part
            assert (np.max(np.abs(y - A @ s)) > 0.1) == (v > 0)
