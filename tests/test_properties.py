"""Property-based tests of the estimator numerics (Hypothesis).

Examples are derandomized so every run checks the same cases.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    SourceSet,
    estimate_2d_aoa,
    find_roots,
    select_unit_roots,
    synthesize,
)
from laoa.synthesis import separated_angle_sets

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
    got = np.array(find_roots(poly[1:] / poly[0]))

    assert len(got) == len(roots)
    dist = np.abs(got[:, None] - roots[None, :])
    assert sorted(dist.argmin(axis=0)) == list(range(len(roots)))
    assert np.max(dist.min(axis=0)) < 1e-9
    selected = select_unit_roots(list(got), n_unit)
    np.testing.assert_allclose(np.abs(got[selected]), 1.0, rtol=0, atol=1e-9)
