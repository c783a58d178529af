"""Each stacked layer leaves an ``errors`` slot that is already set alone.

A slot set before a layer runs belongs to a trial that failed in an earlier
layer.  The layer must keep that slot's object, flag nothing for that trial
(neither a reduced rank nor an ambiguous pairing), and give every other row
bit for bit what the row gets as a stack of one.  Rows 1 and 3 of every
stack here are preset; alone, each of them fails or is flagged in the
layer, so a layer that ignored its slot would show.
"""

import numpy as np
import pytest

from laoa import ArrayConfig, DirectionPair, EstimatorMode, SourceSet, build_lp_system, synthesize
from laoa.array_model import directions_from_electrical
from laoa.errors import AoaError, ConvergenceFailure, NotEnoughRoots
from laoa.estimator import estimate_electrical, pair_and_recover
from laoa.linalg import solve_coeffs, svd
from laoa.rooting import find_roots, select_unit_roots

CFG = ArrayConfig(m=8, spacing_ratio=0.5)
Q = 2
MODE = EstimatorMode.TRUNCATED_SVD
PRESET = (1, 3)


def _chain():
    # each layer's input for five trials, from the layers before it; trial 1 has one
    # noiseless source, so its Z system has rank 1 < Q
    Y = []
    for t in range(5):
        pairs, sigma2 = ([(30, 40)], 0.0) if t == 1 else ([(30, 40), (70, 120)], 0.01)
        src = SourceSet(tuple(DirectionPair(*p) for p in pairs))
        Z, X, _ = synthesize(src, CFG, 64, sigma2, np.random.default_rng(t))
        Y.append(np.vstack([Z.data, X.data]))
    R = np.linalg.qr(np.stack(Y).transpose(0, 2, 1), mode="r")
    errors = [None] * len(R)
    P, P1 = build_lp_system(R[:, :, :CFG.m])
    c, _ = solve_coeffs(P, P1, Q, MODE, errors)
    roots = find_roots(c, errors)
    psi, mags_z, _ = estimate_electrical(R[:, :, :CFG.m], Q, MODE, errors)
    xi, mags_x, _ = estimate_electrical(R[:, :, CFG.m:], Q, MODE, errors)
    assert errors == [None] * len(R)
    return P, P1, c, roots, psi, xi, mags_z, mags_x, R.swapaxes(1, 2)


def _cases():
    # layer -> (call, stacked inputs, stand-in for np.linalg.svd or None); the call takes
    # the inputs and an errors list and returns the layer's T-row outputs
    P, P1, c, roots, psi, xi, mags_z, mags_x, L = _chain()

    real_svd = np.linalg.svd

    def svd_failing_on_presets(a, *args, **kwargs):
        if any(np.array_equal(item, P[t]) for item in a for t in PRESET):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    P_zero = P.copy()
    P_zero[3] = 0.0  # rank 0: reduces the rank, as the rank-1 trial 1 does
    c_bad = c.copy()
    c_bad[1] = 0.0  # the constant polynomial has no roots
    c_bad[3, 0] = np.nan  # the eigensolver rejects it
    roots_few = roots.copy()
    roots_few[1] = np.nan
    roots_few[3, 1:] = np.nan
    psi_pair, xi_pair = psi.copy(), xi.copy()
    psi_pair[1], xi_pair[1] = 0.3, 0.5  # two identical (psi, xi) pairs: a singular pairing
    xi_pair[3] = xi_pair[3].mean()  # equal xi: both pairings fit alike, an ambiguous pairing
    psi_dir = psi.copy()
    psi_dir[1, 0] = np.pi * np.cos(np.deg2rad(0.5))  # theta = 0.5 deg: DegenerateElevation
    psi_dir[3, 0] = 4.0  # past 2 pi d / lambda = pi: OutOfRange

    def stack_estimate(*args):
        est = pair_and_recover(*args[:3], CFG, *args[3:])
        return (est.theta_deg, est.phi_deg, est.psi_hat, est.xi_hat, est.mag_z, est.mag_x,
                est.pairing_residual, est.pairing_ambiguous)

    return {
        "svd": (svd, (P,), svd_failing_on_presets),
        "solve_coeffs": (lambda P, P1, errors: solve_coeffs(P, P1, Q, MODE, errors), (P_zero, P1), None),
        "find_roots": (lambda c, errors: (find_roots(c, errors),), (c_bad,), None),
        "select_unit_roots": (lambda r, errors: (select_unit_roots(r, Q, errors),), (roots_few,), None),
        "pair_and_recover": (stack_estimate, (psi_pair, xi_pair, L, mags_z, mags_x), None),
        "directions_from_electrical": (
            lambda psi, xi, errors: directions_from_electrical(psi, xi, CFG, errors), (psi_dir, xi), None
        ),
    }


def _flagged(layer, out):
    # per row, whether the layer flags it: solve_coeffs' reduced rank, pair_and_recover's ambiguity
    if layer == "solve_coeffs":
        return out[1] >= 0
    if layer == "pair_and_recover":
        return out[-1]
    return np.zeros(len(out[0]), dtype=bool)


@pytest.mark.parametrize(
    "layer", ["svd", "solve_coeffs", "find_roots", "select_unit_roots", "pair_and_recover", "directions_from_electrical"]
)
def test_a_preset_slot_keeps_its_object_and_changes_no_other_row(layer, monkeypatch):
    call, inputs, lapack_svd = _cases()[layer]
    if lapack_svd is not None:
        monkeypatch.setattr(np.linalg, "svd", lapack_svd)
    T = len(inputs[0])
    alone = []
    for t in range(T):
        errors = [None]
        out = call(*(a[t:t + 1] for a in inputs), errors)
        alone.append((out, errors[0]))
    for t in PRESET:
        # alone, a preset row fails or is flagged in this layer
        assert isinstance(alone[t][1], AoaError) or _flagged(layer, alone[t][0])[0], (layer, t)

    preset = {1: ConvergenceFailure("failed upstream"), 3: NotEnoughRoots("failed upstream")}
    errors = [preset.get(t) for t in range(T)]
    got = call(*inputs, errors)

    for t, exc in preset.items():
        assert errors[t] is exc
        # the stack flags nothing for a preset row
        assert not _flagged(layer, got)[t], (layer, t)
    for t in range(T):
        if t in preset:
            continue
        out, exc = alone[t]
        assert errors[t] is None and exc is None
        for a, b in zip(got, out):
            assert a[t].tobytes() == b[0].tobytes(), (layer, t)
