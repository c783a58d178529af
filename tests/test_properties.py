"""Property-based tests of the estimator numerics (Hypothesis).

Examples are derandomized so every run checks the same cases.
"""

import warnings
from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    ExperimentConfig,
    SignalModel,
    SnapshotMatrix,
    SourceSet,
    Subarray,
    estimate_2d_aoa,
    find_roots,
    parse_config,
    select_unit_roots,
    serialize_config,
    steering_vector,
    synthesize,
)
from laoa.errors import AoaError, PairingAmbiguousWarning, ParseError, RankDeficiencyWarning, UnsupportedScenario
from laoa.montecarlo import CSV_HEADER, monte_carlo, run_trial, run_trials
from laoa.synthesis import generate_noise, generate_sources, separated_angle_sets

_directions = st.tuples(st.floats(5.0, 175.0), st.floats(2.0, 178.0))
_interior_root = st.tuples(st.floats(0.2, 0.9), st.floats(-np.pi, np.pi))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs=st.lists(_directions, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_noiseless_estimate_recovers_separated_geometries(pairs, seed):
    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))
    try:
        separated_angle_sets(src, cfg)
    except ValueError:
        assume(False)
    Z, X, _ = synthesize(src, cfg, 50, 0.0, np.random.default_rng(seed))
    est = estimate_2d_aoa(Z, X, len(pairs), cfg, EstimatorMode.NOISELESS)
    # psi separation keeps the true thetas far apart, so sorting pairs them up
    got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
    np.testing.assert_allclose(got, sorted(pairs), rtol=0, atol=1e-8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    start=st.floats(-np.pi, np.pi),
    n_unit=st.integers(2, 4),
    interior=st.lists(_interior_root, max_size=3),
)
def test_find_roots_round_trips_clustered_unit_roots(start, n_unit, interior):
    unit = np.exp(1j * (start + 0.1 * np.arange(n_unit)))
    inner = np.array([r * np.exp(1j * a) for r, a in interior], dtype=complex)
    # |inner| <= 0.9 keeps interior roots >= 0.1 from the unit circle
    assume(np.all(np.abs(inner[:, None] - inner[None, :]) + np.eye(len(inner)) >= 0.1))
    roots = np.concatenate([unit, inner])

    poly = np.poly(roots)[::-1]  # ascending
    errors = [None]
    got = find_roots((poly[1:] / poly[0])[None], errors)[0]

    assert np.count_nonzero(~np.isnan(got)) == len(roots)
    dist = np.abs(got[:, None] - roots[None, :])
    assert sorted(dist.argmin(axis=0)) == list(range(len(roots)))
    assert np.max(dist.min(axis=0)) < 1e-9
    selected = select_unit_roots(got[None], n_unit, errors)[0]
    assert errors == [None]
    np.testing.assert_allclose(np.abs(got[selected]), 1.0, rtol=0, atol=1e-9)


# --- stacks of trials ----------------------------------------------------------

_STACK_CONFIGS = {
    "q2_M200": "M = 200\nq = 2\nsources = 30/40, 70/120",
    "q5_M64": "M = 64\nq = 5\nsources = 30/40, 60/100, 100/60, 140/130, 80/150",
}
_TRIALS = 10  # per SNR point: a grid of 30 cells


def _stack_config(name: str, mode: str) -> ExperimentConfig:
    return parse_config(
        f"m = 8\nspacing_ratio = 0.5\n{_STACK_CONFIGS[name]}\nsignal_model = unit_power_random_phase\n"
        f"snr_db_list = -10, 10, 30\ntrials = {_TRIALS}\nseed = 2024\nmode = {mode}\noutput_path = x.csv\n"
    )


def _joined(stacks) -> tuple:
    # run_trials results of consecutive stacks as one: errors stacked, failures concatenated
    theta_err, phi_err, failures = zip(*stacks)
    return np.concatenate(theta_err), np.concatenate(phi_err), [f for stack in failures for f in stack]


@lru_cache(maxsize=None)
def _trials_alone(name: str, mode: str) -> tuple:
    # every cell of the sweep's (snr_index, trial_index) grid, each trial run alone
    cfg = _stack_config(name, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _joined(run_trial(cfg, si, ti) for si, ti in _grid(cfg))


def _grid(cfg: ExperimentConfig) -> list:
    return [(si, ti) for si in range(len(cfg.snr_db_list)) for ti in range(cfg.trials)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_STACK_CONFIGS)),
    mode=st.sampled_from([m.value for m in EstimatorMode]),
    sizes=st.lists(st.integers(1, 3 * _TRIALS), min_size=1, max_size=3 * _TRIALS),
)
def test_any_split_into_stacks_gives_each_trial_its_own_result(name, mode, sizes):
    # the split runs over the whole grid of all three SNR points, so stacks straddle points;
    # one stack may hold the whole grid, more than one elimination pass of the q=5 screen
    cfg = _stack_config(name, mode)
    grid = _grid(cfg)
    alone = _trials_alone(name, mode)
    if name == "q5_M64":
        # the split also cuts through failing trials (snr_db_list[0] = -10 dB)
        assert any(f is not None for f in alone[2][:cfg.trials])
    bounds = sorted({0, len(grid), *np.minimum(np.cumsum(sizes), len(grid)).tolist()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _joined(run_trials(cfg, grid[start:stop]) for start, stop in zip(bounds, bounds[1:]))
    assert np.array_equal(got[0], alone[0], equal_nan=True)
    assert np.array_equal(got[1], alone[1], equal_nan=True)
    assert got[2] == alone[2]


# --- source order and config round trip ----------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    pairs=st.lists(_directions, min_size=2, max_size=4),
    order=st.randoms(use_true_random=False),
    sigma2=st.sampled_from([0.0, 1e-4, 1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_does_not_depend_on_the_order_of_the_sources(pairs, order, sigma2, seed):
    # one scene listed in two orders: the sources' rows of S move with them, the noise stays
    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    src = SourceSet(directions=tuple(DirectionPair(t, p) for t, p in pairs))
    try:
        psis, xis = separated_angle_sets(src, cfg)
    except UnsupportedScenario:
        assume(False)
    rng = np.random.default_rng(seed)
    S = generate_sources(src, 50, rng)
    N = generate_noise(2 * cfg.m, 50, sigma2, rng)
    perm = list(range(len(pairs)))
    order.shuffle(perm)

    def estimate(idx):
        Y = np.vstack([steering_vector(psis[idx], cfg.m), steering_vector(xis[idx], cfg.m)]) @ S[idx] + N
        try:
            est = estimate_2d_aoa(SnapshotMatrix(Y[:8], Subarray.Z), SnapshotMatrix(Y[8:], Subarray.X), len(pairs), cfg)
        except AoaError as exc:
            return type(exc)
        return sorted((s.theta_deg, s.phi_deg) for s in est.sources)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a, b = estimate(list(range(len(pairs)))), estimate(perm)
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
    else:
        # the two orders sum A S in different orders, so the data differ in the last bits
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


_paths = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789._-/", min_size=1, max_size=30)


@st.composite
def _configs(draw):
    m = draw(st.integers(3, 12))
    q = draw(st.integers(1, min(m - 2, 4)))
    sources = draw(
        st.lists(
            st.builds(
                DirectionPair,
                st.floats(0.0, 180.0, exclude_min=True, exclude_max=True),
                st.floats(0.0, 180.0),
            ),
            min_size=q,
            max_size=q,
        )
    )
    try:
        return ExperimentConfig(
            m=m,
            spacing_ratio=draw(st.floats(0.0, 0.5, exclude_min=True)),
            M=draw(st.integers(max(q, m - 1), 5000)),
            q=q,
            sources=tuple(sources),
            signal_model=draw(st.sampled_from(list(SignalModel))),
            snr_db_list=tuple(
                draw(st.lists(st.floats(-60.0, 120.0) | st.just(float("inf")), min_size=1, max_size=6, unique=True))
            ),
            trials=draw(st.integers(1, 10**6)),
            seed=draw(st.integers(0, 2**64 - 1)),
            mode=draw(st.sampled_from(list(EstimatorMode))),
            output_path=draw(_paths),
        )
    except UnsupportedScenario:
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cfg=_configs())
def test_config_round_trips_through_its_text_form(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


# --- accepted configs end to end -----------------------------------------------


@st.composite
def _config_texts(draw):
    # m 3-10, q <= min(m - 2, 5), M from m - 1 (up to 4m, to keep trials short), spacing
    # 0.05-0.5, SNR -300 dB to +inf: a config is accepted, or rejected by parse_config up front;
    # m and q shrink toward the most sources (10 and 5)
    m = 10 - draw(st.integers(0, 7))
    q = min(m - 2, 5) - draw(st.integers(0, min(m - 2, 5) - 1))
    # distinct 10-degree rows of theta and phi, jittered, keep many source sets separable
    thetas = draw(st.lists(st.integers(1, 17), min_size=q, max_size=q, unique=True))
    phis = draw(st.lists(st.integers(0, 18), min_size=q, max_size=q, unique=True))
    jitter = st.floats(-4.0, 4.0)
    sources = [(10 * t + draw(jitter), min(max(10 * p + draw(jitter), 0.0), 180.0)) for t, p in zip(thetas, phis)]
    snrs = draw(st.lists(st.floats(-300.0, 300.0) | st.just(float("inf")), min_size=1, max_size=3, unique=True))
    lines = {
        "m": m,
        "spacing_ratio": draw(st.floats(0.05, 0.5)),
        "M": draw(st.integers(m - 1, 4 * m)),
        "q": q,
        "sources": ", ".join(f"{t!r}/{p!r}" for t, p in sources),
        "signal_model": draw(st.sampled_from([s.value for s in SignalModel])),
        "snr_db_list": ", ".join(repr(snr) for snr in snrs),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "mode": draw(st.sampled_from([mode.value for mode in EstimatorMode])),
        "output_path": "x.csv",
    }
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_config_texts())
def test_an_accepted_config_runs_to_a_full_report(text):
    # no exception but a counted failure escapes a trial: one row per (SNR point, source), each
    # with finite statistics, or with none where every trial of the point failed
    try:
        cfg = parse_config(text)
    except ParseError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        warnings.simplefilter("ignore", PairingAmbiguousWarning)
        rows = monte_carlo(cfg, workers=1).rows
    assert [(r["snr_db"], r["source_index"]) for r in rows] == [
        (snr, l) for snr in sorted(cfg.snr_db_list) for l in range(cfg.q)
    ]
    for row in rows:
        stats = [row[k] for k in CSV_HEADER.split(",")[2:6]]
        assert 0 <= row["failure_count"] <= row["trials"] == cfg.trials
        if row["failure_count"] == cfg.trials:
            assert stats == [None] * 4
        else:
            assert all(np.isfinite(stats))
