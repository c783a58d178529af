"""Complex dense SVD and the truncated-SVD coefficient solve.

The SVD is LAPACK's (through ``np.linalg.svd``).  The coefficient solve
inverts the q largest singular values (truncated SVD) or every numerically
nonzero one (plain minimum-norm least squares).  The solve sums
u_k v_k^H / sigma_k, which does not depend on the phase LAPACK picks for
each singular pair.
"""

import warnings
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, RankDeficiencyWarning, UnsupportedScenario

REL_RANK_TOL = 1e-10  # singular values below this fraction of sigma_1 count as zero


class EstimatorMode(Enum):
    """How the prediction coefficients are solved for.

    NOISELESS is the plain minimum-norm least-squares solve; TRUNCATED_SVD
    keeps only the q largest singular values.  The solve is the only step the
    mode changes, so it is defined here; ``laoa.estimator`` re-exports it.
    """

    NOISELESS = "noiseless"
    TRUNCATED_SVD = "truncated_svd"


def svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = U diag(sigma) V^H as (U, sigma, V), sigma non-increasing (LAPACK via numpy).

    Deterministic: the same input gives bit-identical factors.  Non-finite
    input is rejected before LAPACK sees it (an ``inf`` entry can keep
    LAPACK iterating for minutes).

    Raises
    ------
    ConvergenceFailure
        If LAPACK reports that the decomposition did not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("svd expects a nonempty 2-D matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd input contains non-finite entries")

    try:
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return U, s, Vh.conj().T


def solve_coeffs(P: np.ndarray, P1: np.ndarray, q: int, mode: EstimatorMode) -> np.ndarray:
    """Solve P C = P1 for the prediction coefficients (c_1, ..., c_{m-1}).

    TRUNCATED_SVD applies the paper's truncated pseudoinverse
    V_q Sigma_q^{-1} U_q^H to P1, inverting only the q largest singular
    values to suppress noise-dominated directions.  NOISELESS is the plain
    minimum-norm least-squares solution with tolerance-based rank detection
    (the explicit normal-equations pseudoinverse is singular whenever
    q < m - 1 in the noiseless case, so both modes go through the SVD).

    Raises
    ------
    ConvergenceFailure
        If the data overflow the solve: sigma_1 or a solved coefficient is
        not finite.
    """
    n_coeffs = P.shape[1]
    if not (1 <= q <= n_coeffs):
        raise UnsupportedScenario(f"q must be in [1, {n_coeffs}], got {q}")
    U, sigma, V = svd(P)
    # finite data can still overflow: sigma_1 = inf would zero the rank and hide it
    if not np.isfinite(sigma[0]):
        raise ConvergenceFailure("coefficient solve overflowed: the largest singular value of P is not finite")
    cutoff = REL_RANK_TOL * sigma[0] if sigma[0] > 0 else 0.0

    if mode is EstimatorMode.TRUNCATED_SVD:
        rank = q
        if sigma[q - 1] <= cutoff:
            rank = int(np.sum(sigma[:q] > cutoff))
            warnings.warn(
                f"requested truncation rank {q} exceeds numerical rank {rank}; reducing",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    else:
        rank = int(np.sum(sigma > cutoff))

    inv = np.zeros_like(sigma)
    inv[:rank] = 1.0 / sigma[:rank]
    c = (V * inv) @ (U.conj().T @ P1)
    if not np.all(np.isfinite(c)):
        raise ConvergenceFailure("coefficient solve gave non-finite coefficients")
    return c
