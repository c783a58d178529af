"""The screened pairing search against the exhaustive one it replaces.

``_exhaustive_pairing_residuals`` is the exact search that scored every one of
the q! permutations: kept here, unchanged, as the reference.  The screen may
skip permutations but must never change what ``pair_and_recover`` reports.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laoa.estimator
from laoa import ArrayConfig, DirectionPair, SourceSet, pair_and_recover
from laoa.array_model import steering_vector
from laoa.errors import PairingAmbiguousWarning
from laoa.estimator import PAIRING_BLOCK, SCREEN_ERROR_FACTOR, _pairing_residuals, _row_estimate, _screen, permutation_table
from laoa.linalg import lapack_stack
from laoa.synthesis import electrical_angle_sets

CFG = ArrayConfig(m=8, spacing_ratio=0.5)
FIVE_SOURCES = [(30, 40), (60, 100), (100, 60), (140, 130), (80, 150)]
TRUE_PSI, TRUE_XI = electrical_angle_sets(SourceSet(tuple(DirectionPair(t, p) for t, p in FIVE_SOURCES)), CFG)


def _exhaustive_pairing_residuals(
    psi: np.ndarray, xi: np.ndarray, L: np.ndarray, m: int, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    e = np.frexp(np.max(np.abs(L), axis=(1, 2), initial=0.0))[1]
    shift = -e[:, None, None]
    L = np.ldexp(L.real, shift) + 1j * np.ldexp(L.imag, shift)
    A_z = steering_vector(psi, m)
    A_x = steering_vector(xi, m)
    q = psi.shape[1]

    Gz, Gx = A_z.conj().swapaxes(1, 2) @ A_z, A_x.conj().swapaxes(1, 2) @ A_x
    Bz, Bx = A_z.conj().swapaxes(1, 2) @ L[:, :m], A_x.conj().swapaxes(1, 2) @ L[:, m:]
    table = permutation_table(q)
    resid = np.full((len(psi), len(table)), np.nan)
    trials_per_block = max(1, PAIRING_BLOCK // len(table))
    for t0 in range(0, len(psi), trials_per_block):
        ts = slice(t0, t0 + trials_per_block)
        for p0 in range(0, len(table), PAIRING_BLOCK):
            perms = table[p0:p0 + PAIRING_BLOCK]
            block_errs = errors[ts]
            S = lapack_stack(
                np.linalg.solve,
                (Gz[ts, None] + Gx[ts][:, perms[:, :, None], perms[:, None, :]], Bz[ts, None] + Bx[ts][:, perms]),
                block_errs,
                "singular pairing normal equations",
            )
            errors[ts] = block_errs
            if S is None:
                continue
            A = np.concatenate(
                [np.broadcast_to(A_z[ts, None], S.shape[:2] + (m, q)), A_x[ts][:, :, perms].transpose(0, 2, 1, 3)],
                axis=2,
            )
            resid[ts, p0:p0 + len(perms)] = np.linalg.norm(L[ts, None] - A @ S, axis=(2, 3))
    return resid, e


def _trial(q, k, kind, seed):
    # estimate-like angle sets (each sorted on its own) and an L that the true pairing explains
    rng = np.random.default_rng(seed)
    psi = TRUE_PSI[:q] + rng.uniform(-0.05, 0.05, q)
    xi = TRUE_XI[:q] + rng.uniform(-0.05, 0.05, q)
    S = rng.standard_normal((q, k)) + 1j * rng.standard_normal((q, k))
    L = np.vstack([steering_vector(psi, CFG.m) @ S, steering_vector(xi, CFG.m) @ S])
    jitter = 0.0
    if kind != "noiseless":
        L += 0.3 * (rng.standard_normal(L.shape) + 1j * rng.standard_normal(L.shape))
        jitter = 0.02
    psi = np.sort(psi + rng.normal(0, jitter, q))
    xi = np.sort(xi + rng.normal(0, jitter, q))
    if kind in ("duplicated_xi", "identical_pair") and q > 1:
        xi[:2] = xi[:2].mean()  # an exact tie between the pairings that swap the two
    if kind == "near_tie" and q > 1:
        xi[1] = xi[0] + 1e-6  # those pairings nearly tie, mostly within the ambiguity tolerance
    if kind == "identical_pair" and q > 1:
        psi[:2] = psi[0]  # two identical (psi, xi) pairs: those pairings are singular
    return psi, xi, L


def _pair(psi, xi, L, residuals):
    # what pair_and_recover reports for each trial with the given residual search
    q = psi.shape[1]
    mags = np.broadcast_to(np.arange(1.0, q + 1), psi.shape)  # distinct, so they show which index was paired
    errors = [None] * len(psi)
    with mock.patch.object(laoa.estimator, "_pairing_residuals", residuals), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = pair_and_recover(psi, xi, L, CFG, mags, mags, errors)
    estimates = [None if exc is not None else _row_estimate(result, t) for t, exc in enumerate(errors)]
    failures = [None if exc is None else (type(exc), str(exc)) for exc in errors]
    return estimates, failures, sum(issubclass(w.category, PairingAmbiguousWarning) for w in caught)


@st.composite
def _stacks(draw, q):
    k = draw(st.sampled_from([q, 10, 2 * CFG.m]))  # L's columns: M = q, M < 2m, or the triangular factor's 2m
    trials = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["noiseless", "noisy", "duplicated_xi", "near_tie", "identical_pair"]),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    psi, xi, L = zip(*(_trial(q, k, kind, seed) for kind, seed in trials))
    return np.array(psi), np.array(xi), np.array(L)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_screen_reports_what_the_exhaustive_search_reports(q, data):
    # same permutation and magnitudes, bit-identical pairing_residual (dataclass equality),
    # same ambiguity flags and warnings, same failure class and message
    psi, xi, L = data.draw(_stacks(q))
    got, got_failures, got_warnings = _pair(psi, xi, L, _pairing_residuals)
    want, want_failures, want_warnings = _pair(psi, xi, L, _exhaustive_pairing_residuals)
    assert got == want
    assert got_failures == want_failures
    assert got_warnings == want_warnings


def _screen_inputs(psi, xi, L):
    # the screen's arguments, built as _pairing_residuals builds them
    e = np.frexp(np.max(np.abs(L), axis=(1, 2)))[1]
    L = np.ldexp(L.real, -e[:, None, None]) + 1j * np.ldexp(L.imag, -e[:, None, None])
    A_z, A_x = steering_vector(psi, CFG.m), steering_vector(xi, CFG.m)
    AzH, AxH = A_z.conj().swapaxes(1, 2), A_x.conj().swapaxes(1, 2)
    return AzH @ A_z, AxH @ A_x, AzH @ L[:, :CFG.m], AxH @ L[:, CFG.m:], L


def _clustered(q, sep, trials=10, seed=0):
    # each set's angles sep apart: both Gram matrices are ill-conditioned, and so can G_P be
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-2.5, 2.5, (trials, 1)) + sep * np.arange(q)
    xi = rng.uniform(-2.5, 2.5, (trials, 1)) + sep * np.arange(q)
    S = rng.standard_normal((trials, q, 16)) + 1j * rng.standard_normal((trials, q, 16))
    L = np.concatenate([steering_vector(psi, CFG.m) @ S, steering_vector(xi[:, ::-1], CFG.m) @ S], axis=1)
    L += 1e-3 * (rng.standard_normal(L.shape) + 1j * rng.standard_normal(L.shape))
    return psi, xi, L


@pytest.mark.parametrize("q, sep", [(3, 1.0), (3, 1e-3), (4, 0.3), (4, 1e-2), (5, 1.0), (5, 0.05)])
def test_delta_covers_the_gap_between_screen_and_exact_scores(q, sep):
    psi, xi, L = _clustered(q, sep)
    exact, _ = _exhaustive_pairing_residuals(psi, xi, L, CFG.m, [None] * len(psi))
    cheap, delta = _screen(*_screen_inputs(psi, xi, L), permutation_table(q), [None] * len(psi))
    assert np.all(np.isfinite(delta))  # the screen prunes these trials, so the bound is what keeps them right
    assert np.all(np.abs(cheap - exact**2) <= delta[:, None])
    if sep < 0.1:
        # the bound's kappa = delta / (C (m + q) eps ||L||^2) reaches far past 1e6 here
        norm2 = np.sum(np.abs(_screen_inputs(psi, xi, L)[-1]) ** 2, axis=(1, 2))
        kappa = delta / (SCREEN_ERROR_FACTOR * (CFG.m + q) * np.finfo(float).eps * norm2)
        assert kappa.max() > 1e6


@pytest.mark.parametrize("q, sep", [(3, 1e-4), (5, 1e-3)])
def test_a_near_singular_trial_scores_every_permutation_exactly(q, sep):
    psi, xi, L = _clustered(q, sep)
    errors = [None] * len(psi)
    resid, _ = _pairing_residuals(psi, xi, L, CFG.m, errors)
    assert errors == [None] * len(psi)
    assert np.all(np.isfinite(resid))


def test_separated_sources_leave_two_contenders_per_trial():
    psi, xi, L = (np.array(a) for a in zip(*(_trial(5, 16, "noisy", seed) for seed in range(10))))
    resid, _ = _pairing_residuals(psi, xi, L, CFG.m, [None] * len(psi))
    assert np.isfinite(resid).sum(axis=1).tolist() == [2] * len(psi)
