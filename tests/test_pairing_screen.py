"""The screened pairing search against the exhaustive one it replaces.

``_exhaustive_pairing_residuals`` is the exact search that scored every one of
the q! permutations: kept here, unchanged, as the reference.  The screen may
skip permutations but must never change what ``pair_and_recover`` reports.
"""

import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import laoa.estimator
from laoa import ArrayConfig, DirectionPair, pair_and_recover
from laoa.array_model import electrical_angles, steering_vector
from laoa.errors import ConvergenceFailure
from laoa.estimator import (
    PAIRING_BLOCK,
    SCREEN_ERROR_FACTOR,
    _eliminate,
    _pairing_residuals,
    _screen,
    permutation_table,
)
from laoa.linalg import lapack_stack

CFG = ArrayConfig(m=8, spacing_ratio=0.5)
SOURCES = [(30, 40), (60, 100), (100, 60), (140, 130), (80, 150), (120, 20)]  # a trial of q sources takes the first q
TRUE_PSI, TRUE_XI = electrical_angles([DirectionPair(t, p) for t, p in SOURCES], CFG)


def _exhaustive_pairing_residuals(
    psi: np.ndarray, xi: np.ndarray, L: np.ndarray, m: int, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    live = np.flatnonzero([exc is None for exc in errors])
    psi, xi, L = psi[live], xi[live], L[live]
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
            S = lapack_stack(
                np.linalg.solve,
                (Gz[ts, None] + Gx[ts][:, perms[:, :, None], perms[:, None, :]], Bz[ts, None] + Bx[ts][:, perms]),
                errors,
                live[ts],
                "singular pairing normal equations",
            )
            A = np.concatenate(
                [np.broadcast_to(A_z[ts, None], S.shape[:2] + (m, q)), A_x[ts][:, :, perms].transpose(0, 2, 1, 3)],
                axis=2,
            )
            resid[ts, p0:p0 + len(perms)] = np.linalg.norm(L[ts, None] - A @ S, axis=(2, 3))
    return resid, e, live


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
    with mock.patch.object(laoa.estimator, "_pairing_residuals", residuals):
        result = pair_and_recover(psi, xi, L, CFG, mags, mags, errors)
    # each trial's row of every array field as bytes: equal bit for bit, NaN rows of failed trials included
    arrays = [getattr(result, f.name) for f in fields(result) if f.name != "errors"]
    estimates = [tuple(a[t].tobytes() for a in arrays) for t in range(len(psi))]
    failures = [None if exc is None else (type(exc), str(exc)) for exc in errors]
    return estimates, failures, int(np.count_nonzero(result.pairing_ambiguous))


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


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])  # q = 6: 720 permutations, one trial per screen pass
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_screen_reports_what_the_exhaustive_search_reports(q, data):
    # same permutation and magnitudes, bit-identical pairing_residual (row bytes),
    # same ambiguity flags and count of ambiguous trials, same failure class and message
    psi, xi, L = data.draw(_stacks(q))
    got, got_failures, got_ambiguous = _pair(psi, xi, L, _pairing_residuals)
    want, want_failures, want_ambiguous = _pair(psi, xi, L, _exhaustive_pairing_residuals)
    assert got == want
    assert got_failures == want_failures
    assert got_ambiguous == want_ambiguous


def _screen_inputs(psi, xi, L):
    # the screen's arguments, built as _pairing_residuals builds them
    e = np.frexp(np.max(np.abs(L), axis=(1, 2)))[1]
    L = np.ldexp(L.real, -e[:, None, None]) + 1j * np.ldexp(L.imag, -e[:, None, None])
    A_z, A_x = steering_vector(psi, CFG.m), steering_vector(xi, CFG.m)
    AzH, AxH = A_z.conj().swapaxes(1, 2), A_x.conj().swapaxes(1, 2)
    return np.concatenate([AzH @ A_z, AxH @ A_x]), AzH @ L[:, :CFG.m], AxH @ L[:, CFG.m:], L


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
    exact, _, _ = _exhaustive_pairing_residuals(psi, xi, L, CFG.m, [None] * len(psi))
    cheap, delta = _screen(*_screen_inputs(psi, xi, L), permutation_table(q))
    assert np.all(np.isfinite(delta))  # the screen prunes these trials, so the bound is what keeps them right
    assert np.all(np.abs(cheap - exact**2) <= delta[:, None])
    if sep < 0.1:
        # the bound's kappa = delta / (C (m + q) eps ||L||^2) reaches far past 1e6 here
        norm2 = np.sum(np.abs(_screen_inputs(psi, xi, L)[-1]) ** 2, axis=(1, 2))
        kappa = delta / (SCREEN_ERROR_FACTOR * (CFG.m + q) * np.finfo(float).eps * norm2)
        assert kappa.max() > 1e6


def test_trials_past_the_single_precision_bound_are_screened_again_in_double():
    # one stack: a well-separated trial, whose complex64 screen gives a finite delta carrying
    # float32's eps, and clustered trials, whose kappa takes the complex64 delta past ||L||^2,
    # so they are screened again at complex128 and get what that screen gives them alone
    sep = _clustered(3, 1.0, trials=1, seed=1)
    tight = _clustered(3, 1e-3)
    psi, xi, L = (np.concatenate(a) for a in zip(sep, tight))
    table = permutation_table(3)
    G_zx, Bz, Bx, Ls = _screen_inputs(psi, xi, L)
    cheap, delta = _screen(G_zx, Bz, Bx, Ls, table)
    alone_cheap, alone_delta = _screen(*_screen_inputs(*tight), table, np.complex128)
    assert np.all(np.isfinite(delta))
    np.testing.assert_array_equal(delta[1:], alone_delta)
    np.testing.assert_allclose(cheap[1:], alone_cheap, rtol=1e-12)

    norm2 = np.sum(np.abs(Ls) ** 2, axis=(1, 2))
    lam = np.max(np.linalg.eigvalsh(G_zx)[:, 0].reshape(2, len(psi)), axis=0)
    kappa = 2 * CFG.m * 3 / lam
    bound = SCREEN_ERROR_FACTOR * (CFG.m + 3) * kappa * norm2
    np.testing.assert_allclose(delta[0] / bound[0], np.finfo(np.float32).eps, rtol=1e-12)
    assert np.all(bound[1:] * np.finfo(np.float32).eps >= norm2[1:])  # so the complex64 screen bounds nothing there
    np.testing.assert_allclose(delta[1:] / bound[1:], np.finfo(float).eps, rtol=1e-12)


@pytest.mark.parametrize("q", [1, 3, 5])
def test_the_elimination_gives_the_trace_an_lu_solve_gives(q):
    # Re tr(G^-1 H) for Hermitian positive definite G (cond below ~1e3 here) and Hermitian H,
    # the systems on the last axis, against LAPACK's LU solve of each system
    rng = np.random.default_rng(q)
    A = rng.standard_normal((50, 2 * q, q)) + 1j * rng.standard_normal((50, 2 * q, q))
    B = rng.standard_normal((50, q, 16)) + 1j * rng.standard_normal((50, q, 16))
    G, H = A.conj().swapaxes(1, 2) @ A, B @ B.conj().swapaxes(1, 2)
    want = np.trace(np.linalg.solve(G, H), axis1=1, axis2=2).real
    GH = np.stack([G, H], axis=1).transpose(2, 3, 1, 0).copy()
    trace, good = _eliminate(GH.copy())
    assert good.all()
    np.testing.assert_allclose(trace, want, rtol=1e-12)
    # complex64, as the screen runs it: rounding G and H to single precision and the q - 1
    # elimination steps perturb both by O(q u) relative (u = 2^-24, float32's unit roundoff),
    # which moves tr(G^-1 H) by at most cond(G) times G's relative perturbation plus cond(H)
    # times H's (H is positive semidefinite), and the float32 trace rounds once more: so each
    # system's tolerance is 4 (q + 1) u (cond(G) + cond(H)), some 10x the worst error measured
    trace32, good32 = _eliminate(GH.astype(np.complex64))
    assert good32.all() and trace32.dtype == np.float32
    u = np.finfo(np.float32).eps / 2
    rtol = 4 * (q + 1) * u * (np.linalg.cond(G) + np.linalg.cond(H))
    assert np.all(np.abs(trace32 - want) <= rtol * np.abs(want))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_a_singular_pairing_fails_in_the_exact_stage_only(q):
    # two identical (psi, xi) pairs make some G_P exactly singular: the screen's elimination
    # fails no trial and warns nothing (a RuntimeWarning is an error here), it gives that trial
    # delta = inf, and the exact stage's LU fails it as the exhaustive search does
    psi, xi, L = (np.array(a) for a in zip(*(_trial(q, 16, kind, 7) for kind in ("noisy", "identical_pair"))))
    errors, want_errors = [None, None], [None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cheap, delta = _screen(*_screen_inputs(psi, xi, L), permutation_table(q))
        assert errors == [None, None]
        assert np.isfinite(delta[0]) and delta[1] == np.inf
        _pairing_residuals(psi, xi, L, CFG.m, errors)
    _exhaustive_pairing_residuals(psi, xi, L, CFG.m, want_errors)
    assert errors[0] is None and isinstance(errors[1], ConvergenceFailure)
    assert str(errors[1]) == str(want_errors[1])
    got, want = _pair(psi, xi, L, _pairing_residuals), _pair(psi, xi, L, _exhaustive_pairing_residuals)
    assert got[1][1][0] is ConvergenceFailure
    assert got == want


@pytest.mark.parametrize("q, sep", [(3, 1e-4), (5, 1e-3)])
def test_a_near_singular_trial_scores_every_permutation_exactly(q, sep):
    psi, xi, L = _clustered(q, sep)
    errors = [None] * len(psi)
    resid, _, _ = _pairing_residuals(psi, xi, L, CFG.m, errors)
    assert errors == [None] * len(psi)
    assert np.all(np.isfinite(resid))


def test_separated_sources_leave_two_contenders_per_trial():
    psi, xi, L = (np.array(a) for a in zip(*(_trial(5, 16, "noisy", seed) for seed in range(10))))
    resid, _, _ = _pairing_residuals(psi, xi, L, CFG.m, [None] * len(psi))
    assert np.isfinite(resid).sum(axis=1).tolist() == [2] * len(psi)
