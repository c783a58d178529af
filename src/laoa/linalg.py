"""Complex dense SVD, truncated pseudoinverse, and the coefficient solve.

The SVD is LAPACK's (through ``np.linalg.svd``).  The coefficient solve
inverts the q largest singular values (truncated SVD) or every numerically
nonzero one (plain minimum-norm least squares).  Both the solve and the
pseudoinverse sum u_k v_k^H / sigma_k, which does not depend on the phase
LAPACK picks for each singular pair.
"""

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, RankDeficiencyWarning, UnsupportedScenario
from .synthesis import LpSystem

REL_RANK_TOL = 1e-10  # singular values below this fraction of sigma_1 count as zero


class EstimatorMode(Enum):
    """How the prediction coefficients are solved for.

    NOISELESS is the plain minimum-norm least-squares solve; TRUNCATED_SVD
    keeps only the q largest singular values.  The solve is the only step the
    mode changes, so it is defined here; ``laoa.estimator`` re-exports it.
    """

    NOISELESS = "noiseless"
    TRUNCATED_SVD = "truncated_svd"


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(sigma) V^H with sigma sorted non-increasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class CoefficientVector:
    """Prediction-polynomial coefficients (c_1, ..., c_{m-1}); constant term is 1."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficient vector must be 1-D and nonempty")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficient vector contains non-finite entries")
        object.__setattr__(self, "c", c)


def svd(A: np.ndarray) -> SvdResult:
    """Thin singular value decomposition (LAPACK via numpy).

    Deterministic: the same input gives bit-identical factors.

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
    return SvdResult(U=U, sigma=s, V=Vh.conj().T)


def truncated_pseudoinverse(A: np.ndarray, rank: int) -> np.ndarray:
    """Pseudoinverse keeping only the `rank` largest singular values.

    Kept singular values below REL_RANK_TOL * sigma_1 are still zeroed, since
    dividing by a numerically zero singular value destroys the solution.
    """
    A = np.asarray(A, dtype=complex)
    if not (1 <= rank <= min(A.shape)):
        raise UnsupportedScenario(f"rank must be in [1, {min(A.shape)}], got {rank}")
    res = svd(A)
    inv = np.zeros_like(res.sigma)
    cutoff = REL_RANK_TOL * res.sigma[0]
    keep = res.sigma[:rank] > cutoff
    inv[:rank][keep] = 1.0 / res.sigma[:rank][keep]
    return (res.V * inv) @ res.U.conj().T


def solve_coeffs(system: LpSystem, q: int, mode: EstimatorMode) -> CoefficientVector:
    """Solve P C = P1 for the prediction coefficients.

    TRUNCATED_SVD inverts only the q largest singular values, suppressing
    noise-dominated directions.  NOISELESS is the plain minimum-norm
    least-squares solution with tolerance-based rank detection (the explicit
    normal-equations pseudoinverse is singular whenever q < m - 1 in the
    noiseless case, so both modes go through the SVD).
    """
    n_coeffs = system.P.shape[1]
    if not (1 <= q <= n_coeffs):
        raise UnsupportedScenario(f"q must be in [1, {n_coeffs}], got {q}")
    res = svd(system.P)
    cutoff = REL_RANK_TOL * res.sigma[0] if res.sigma[0] > 0 else 0.0

    if mode is EstimatorMode.TRUNCATED_SVD:
        rank = q
        if res.sigma[q - 1] <= cutoff:
            rank = int(np.sum(res.sigma[:q] > cutoff))
            warnings.warn(
                f"requested truncation rank {q} exceeds numerical rank {rank}; reducing",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    else:
        rank = int(np.sum(res.sigma > cutoff))

    inv = np.zeros_like(res.sigma)
    inv[:rank] = 1.0 / res.sigma[:rank]
    c = (res.V * inv) @ (res.U.conj().T @ system.P1)
    return CoefficientVector(c=c)
