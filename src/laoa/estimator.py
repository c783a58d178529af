"""End-to-end 2D angle-of-arrival estimation.

Each subarray independently yields a set of electrical angles via the
prediction-polynomial pipeline.  The paper-level method stops there; with
more than one source the psi set (from Z) and the xi set (from X) must still
be associated per physical source.  Both subarrays observe the same source
waveforms, so the correct association is the permutation under which one
common source matrix explains the stacked data best.

All q! permutations are scored in a few batched numpy calls instead of one
least-squares solve each.  The stacked data Y = [Z; X] (2m x M) is first
compressed to its triangular factor L = R^H from Y^H = QR, a 2m x min(M, 2m)
matrix: Q has orthonormal columns, so every residual (I - P_A) Y has the same
Frobenius norm as (I - P_A) L and M drops out of the search.  For each stacked
steering matrix A = [A_z; A_x P] the q x q normal equations A^H A S = A^H L
are solved together, in blocks of (q-1)! permutations (one per first xi index)
to keep the temporaries small.  The residual is then formed directly as
||L - A S||_F: the shortcut ||L||^2 - <A^H L, S> loses everything below
~1e-8 of ||L|| to cancellation, which would hide a near-exact fit.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .array_model import ArrayConfig, direction_from_electrical, ElectricalAngles, steering_vector
from .errors import ConvergenceFailure, PairingAmbiguousWarning, UnsupportedScenario
from .linalg import EstimatorMode, solve_coeffs
from .rooting import electrical_angles_from_roots, find_roots, select_unit_roots
from .synthesis import SnapshotMatrix, build_lp_system

PERMUTATION_BUDGET = 5040  # 7!
PAIRING_AMBIGUITY_REL_TOL = 1e-6


def check_scenario(m: int, M: int, q: int) -> None:
    """Raise UnsupportedScenario unless subarray size m, snapshots M and sources q are usable.

    Root selection needs spurious roots to reject (1 <= q <= m - 2), pairing
    tries all q! permutations (at most PERMUTATION_BUDGET), and each prediction
    system must be overdetermined with a full-rank source matrix (M >= max(q, m - 1)).
    """
    if not 1 <= q <= m - 2:
        raise UnsupportedScenario(f"need 1 <= q <= m - 2 = {m - 2} for stable root selection, got q={q}")
    _check_pairing_budget(q)
    if M < max(q, m - 1):
        raise UnsupportedScenario(f"need M >= max(q, m - 1) = {max(q, m - 1)} snapshots, got M={M}")


def _check_pairing_budget(q: int) -> None:
    pairings = math.factorial(q)
    if pairings > PERMUTATION_BUDGET:
        raise UnsupportedScenario(f"need q! <= {PERMUTATION_BUDGET} pairings, got q={q} ({pairings} pairings)")


@lru_cache(maxsize=8)  # q <= 7 under PERMUTATION_BUDGET
def permutation_table(q: int) -> np.ndarray:
    """All q! permutations of range(q), one per row, in itertools order (read-only)."""
    table = np.array(list(permutations(range(q))), dtype=np.intp).reshape(math.factorial(q), q)
    table.flags.writeable = False
    return table


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
    pairing_ambiguous: bool = False


def estimate_electrical(
    snap: SnapshotMatrix, q: int, mode: EstimatorMode
) -> tuple[list[float], list[float]]:
    """Electrical angles of one subarray, ascending, plus root magnitudes.

    Runs the full chain: linear-prediction system, coefficient solve, root
    finding, and unit-circle root selection.
    """
    check_scenario(snap.m, snap.snapshots, q)
    system = build_lp_system(snap)
    coeffs = solve_coeffs(system, q, mode)
    roots = find_roots(coeffs)
    selected = select_unit_roots(roots, q)
    angles = electrical_angles_from_roots(roots, selected)
    order = np.argsort(angles, kind="stable")
    # Python floats keep SourceEstimate fields printing as plain numbers
    return angles[order].tolist(), np.abs(roots[selected[order]]).tolist()


def pair_and_recover(
    psi_hats: list[float],
    xi_hats: list[float],
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    cfg: ArrayConfig,
    root_mags_z: list[float] | None = None,
    root_mags_x: list[float] | None = None,
) -> AoaEstimate:
    """Associate psi and xi estimates across subarrays and recover angles.

    For every permutation P of the xi set, fit one common source matrix S to
    the stacked data [Z; X] with the stacked steering matrix [A_z; A_x P] and
    keep the permutation with the smallest Frobenius residual; ties go to the
    first permutation in itertools order.  The search runs on the QR-compressed
    data and batched q x q normal equations (see the module docstring); the
    reported ``pairing_residual`` is the winner's ||(I - P_A)[Z; X]||_F.

    Raises
    ------
    UnsupportedScenario
        If q! exceeds PERMUTATION_BUDGET.
    ConvergenceFailure
        If LAPACK finds some permutation's normal equations exactly
        singular, as when two (psi, xi) pairs are identical.
    """
    q = len(psi_hats)
    if len(xi_hats) != q:
        raise ValueError("psi and xi sets must have equal length")
    _check_pairing_budget(q)
    root_mags_z = root_mags_z if root_mags_z is not None else [float("nan")] * q
    root_mags_x = root_mags_x if root_mags_x is not None else [float("nan")] * q

    Y = np.vstack([Z.data, X.data])
    L = np.linalg.qr(Y.conj().T, mode="r").conj().T
    A_z = steering_vector(psi_hats, cfg.m)
    A_x = steering_vector(xi_hats, cfg.m)

    # the Gram matrix and right-hand side of permutation P are gathered from
    # those of the two halves: A^H A = Gz + P^T Gx P, A^H L = Bz + P^T Bx
    m = cfg.m
    Gz, Gx = A_z.conj().T @ A_z, A_x.conj().T @ A_x
    Bz, Bx = A_z.conj().T @ L[:m], A_x.conj().T @ L[m:]
    table = permutation_table(q)
    block = math.factorial(max(q - 1, 0))
    resid = np.empty(len(table))
    for start in range(0, len(table), block):
        perms = table[start:start + block]
        try:
            S = np.linalg.solve(Gz + Gx[perms[:, :, None], perms[:, None, :]], Bz + Bx[perms])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"singular pairing normal equations: {exc}") from exc
        A = np.concatenate(
            [np.broadcast_to(A_z, (len(perms), m, q)), A_x[:, perms].transpose(1, 0, 2)], axis=1
        )
        resid[start:start + block] = np.linalg.norm(L - A @ S, axis=(1, 2))

    order = np.argsort(resid, kind="stable")
    best_perm = table[order[0]]
    best = float(resid[order[0]])
    second = float(resid[order[1]]) if q > 1 else np.inf

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
    return pair_and_recover(psi_hats, xi_hats, Z, X, cfg, root_mags_z=mags_z, root_mags_x=mags_x)
