"""End-to-end 2D angle-of-arrival estimation.

Each subarray independently yields a set of electrical angles via the
prediction-polynomial pipeline.  The paper-level method stops there; with
more than one source the psi set (from Z) and the xi set (from X) must still
be associated per physical source.  Both subarrays observe the same source
waveforms, so the correct association is the permutation under which one
common source matrix explains the stacked data best; we search permutations
exhaustively and keep the minimum joint least-squares residual.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .array_model import ArrayConfig, DirectionPair, direction_from_electrical, ElectricalAngles, steering_vector
from .errors import PairingBudgetExceeded, QTooLarge, PairingAmbiguousWarning
from .linalg import EstimatorMode, solve_coeffs
from .rooting import electrical_angles_from_roots, find_roots, select_unit_roots
from .synthesis import SnapshotMatrix, build_lp_system

PERMUTATION_BUDGET = 5040  # 7!
PAIRING_AMBIGUITY_REL_TOL = 1e-6


@dataclass(frozen=True)
class SourceEstimate:
    theta_deg: float
    phi_deg: float
    psi_hat: float
    xi_hat: float
    root_magnitude_z: float
    root_magnitude_x: float


@dataclass(frozen=True)
class AoaEstimate:
    sources: tuple[SourceEstimate, ...]
    pairing_residual: float
    mode: EstimatorMode
    pairing_ambiguous: bool = False


def estimate_electrical(
    snap: SnapshotMatrix, q: int, mode: EstimatorMode
) -> tuple[list[float], list[float]]:
    """Electrical angles of one subarray, ascending, plus root magnitudes.

    Runs the full chain: linear-prediction system, coefficient solve, root
    finding, and unit-circle root selection.
    """
    if q > snap.m - 2:
        raise QTooLarge(
            f"need q <= m - 2 for stable root selection, got q={q}, m={snap.m}"
        )
    system = build_lp_system(snap)
    coeffs = solve_coeffs(system, q, mode)
    roots = find_roots(coeffs)
    selected = select_unit_roots(roots, q)
    angles = electrical_angles_from_roots(roots, selected)
    mags = [abs(roots[i]) for i in selected]
    order = np.argsort(angles, kind="stable")
    return [angles[i] for i in order], [mags[i] for i in order]


def pair_and_recover(
    psi_hats: list[float],
    xi_hats: list[float],
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
    root_mags_z: list[float] | None = None,
    root_mags_x: list[float] | None = None,
) -> AoaEstimate:
    """Associate psi and xi estimates across subarrays and recover angles.

    For every permutation of the xi set, fit one common source matrix S to
    the stacked data [Z; X] with the stacked steering matrix [A_z; A_x] and
    keep the permutation with the smallest Frobenius residual.
    """
    q = len(psi_hats)
    if len(xi_hats) != q:
        raise ValueError("psi and xi sets must have equal length")
    if math.factorial(q) > PERMUTATION_BUDGET:
        raise PairingBudgetExceeded(
            f"{q}! permutations exceed the budget of {PERMUTATION_BUDGET}"
        )
    root_mags_z = root_mags_z if root_mags_z is not None else [float("nan")] * q
    root_mags_x = root_mags_x if root_mags_x is not None else [float("nan")] * q

    Y = np.vstack([Z.data, X.data])
    A_z = np.column_stack([steering_vector(p, cfg.m) for p in psi_hats])

    best_perm = None
    best = second = np.inf
    for perm in permutations(range(q)):
        A_x = np.column_stack([steering_vector(xi_hats[i], cfg.m) for i in perm])
        A = np.vstack([A_z, A_x])
        S, *_ = np.linalg.lstsq(A, Y, rcond=None)
        resid = float(np.linalg.norm(Y - A @ S))
        if resid < best:
            best, second = resid, best
            best_perm = perm
        elif resid < second:
            second = resid

    ambiguous = False
    if q > 1 and np.isfinite(second):
        if (second - best) < PAIRING_AMBIGUITY_REL_TOL * max(second, np.finfo(float).tiny):
            ambiguous = True
            warnings.warn(
                "two pairings fit the data almost equally well; keeping the best",
                PairingAmbiguousWarning,
                stacklevel=2,
            )

    sources = []
    for l in range(q):
        psi = psi_hats[l]
        xi = xi_hats[best_perm[l]]
        d = direction_from_electrical(ElectricalAngles(psi=psi, xi=xi), cfg)
        sources.append(
            SourceEstimate(
                theta_deg=d.theta,
                phi_deg=d.phi,
                psi_hat=psi,
                xi_hat=xi,
                root_magnitude_z=root_mags_z[l],
                root_magnitude_x=root_mags_x[best_perm[l]],
            )
        )
    return AoaEstimate(
        sources=tuple(sources),
        pairing_residual=best,
        mode=mode,
        pairing_ambiguous=ambiguous,
    )


def estimate_2d_aoa(
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> AoaEstimate:
    """Full 2D AOA pipeline on one pair of subarray snapshot matrices."""
    psi_hats, mags_z = estimate_electrical(Z, q, mode)
    xi_hats, mags_x = estimate_electrical(X, q, mode)
    return pair_and_recover(
        psi_hats, xi_hats, Z, X, cfg, mode, root_mags_z=mags_z, root_mags_x=mags_x
    )
