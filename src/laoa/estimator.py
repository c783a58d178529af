"""End-to-end 2D angle-of-arrival estimation.

The data are compressed once, at the entry.  ``estimate_2d_aoa`` stacks the
two subarrays as Y = [Z; X] (2m x M) and takes the triangular factor R of
Y^T = QR, at most 2m x 2m; every later step reads R, never the raw data, so M
drops out after that one QR.  Q has orthonormal columns, so the prediction
system of Z, R[:, 1:m] c = -R[:, 0], has the same singular values and the
same (truncated-SVD) coefficients as the raw system built from Z, and so does
X's, R[:, m+1:] c = -R[:, m].  L = R^T satisfies L L^H = Y Y^H, which is all
the pairing needs.

Each subarray then independently yields a set of electrical angles via the
prediction-polynomial pipeline.  The paper-level method stops there; with
more than one source the psi set (from Z) and the xi set (from X) must still
be associated per physical source.  Both subarrays observe the same source
waveforms, so the correct association is the permutation under which one
common source matrix explains the stacked data best.

All q! permutations are scored in a few batched numpy calls instead of one
least-squares solve each.  Any L with L L^H = Y Y^H gives every residual
(I - P_A) Y the same Frobenius norm as (I - P_A) L.  For each stacked
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

from .array_model import ArrayConfig, direction_from_electrical, steering_vector
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


def estimate_electrical(B: np.ndarray, q: int, mode: EstimatorMode) -> tuple[list[float], list[float]]:
    """Electrical angles of one subarray, ascending, plus root magnitudes.

    B holds the subarray's sensors as columns: the raw data transposed, or
    the subarray's columns of the triangular factor (see the module
    docstring).  Runs the full chain: linear-prediction system, coefficient
    solve, root finding, and unit-circle root selection.
    """
    P, P1 = build_lp_system(B)
    roots = find_roots(solve_coeffs(P, P1, q, mode))
    selected = select_unit_roots(roots, q)
    angles = electrical_angles_from_roots(roots, selected)
    order = np.argsort(angles, kind="stable")
    # Python floats keep SourceEstimate fields printing as plain numbers
    return angles[order].tolist(), np.abs(roots[selected[order]]).tolist()


def pair_and_recover(
    psi_hats: list[float],
    xi_hats: list[float],
    L: np.ndarray,
    cfg: ArrayConfig,
    root_mags_z: list[float] | None = None,
    root_mags_x: list[float] | None = None,
) -> AoaEstimate:
    """Associate psi and xi estimates across subarrays and recover angles.

    L is any 2m x k matrix with L L^H = Y Y^H for the stacked data Y = [Z; X]:
    the transposed triangular factor that ``estimate_2d_aoa`` passes, or Y
    itself.  For every permutation P of the xi set, fit one common source
    matrix S to L with the stacked steering matrix [A_z; A_x P] and keep the
    permutation with the smallest Frobenius residual; ties go to the first
    permutation in itertools order.  The search runs on batched q x q normal
    equations (see the module docstring) and on L scaled by a power of two,
    so any finite data scale pairs alike; the reported ``pairing_residual``
    is the winner's ||(I - P_A) L||_F = ||(I - P_A) Y||_F at the data's scale.

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

    # the search runs on L / 2^e, whose largest entry lies in [1/2, 1), so the
    # squared residuals neither overflow nor underflow at any data scale; a
    # power of two scales exactly, so wherever the unscaled search works it
    # gives the same bits (ldexp: 2.0 ** -e would overflow for deeply subnormal L)
    e = math.frexp(float(np.max(np.abs(L), initial=0.0)))[1]
    L = np.ldexp(L.real, -e) + 1j * np.ldexp(L.imag, -e)
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
        d = direction_from_electrical(psi, xi, cfg)
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
        pairing_residual=float(np.ldexp(best, e)),
        pairing_ambiguous=ambiguous,
    )


def estimate_2d_aoa(
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> AoaEstimate:
    """Full 2D AOA pipeline on one pair of subarray snapshot matrices.

    Checks the shapes and the scenario once, compresses [Z; X] to its
    triangular factor R (see the module docstring) and runs both subarrays
    and the pairing on R.

    Raises
    ------
    ValueError
        If Z and X are not both cfg.m x M: stacking them would mix sensors.
    UnsupportedScenario
        If (cfg.m, M, q) breaks a ``check_scenario`` rule.
    ConvergenceFailure
        If the data overflow R, which the coefficient solve cannot use.
    """
    m, M = cfg.m, Z.snapshots
    if Z.data.shape != (m, M) or X.data.shape != (m, M):
        raise ValueError(f"Z and X must both be cfg.m x M = {m} x M, got {Z.data.shape} and {X.data.shape}")
    check_scenario(m, M, q)
    R = np.linalg.qr(np.vstack([Z.data, X.data]).T, mode="r")
    if not np.all(np.isfinite(R)):
        raise ConvergenceFailure("coefficient solve overflowed: the triangular factor of the data is not finite")
    psi_hats, mags_z = estimate_electrical(R[:, :m], q, mode)
    xi_hats, mags_x = estimate_electrical(R[:, m:], q, mode)
    return pair_and_recover(psi_hats, xi_hats, R.T, cfg, root_mags_z=mags_z, root_mags_x=mags_x)
