"""Complex dense SVD, the truncated-SVD coefficient solve and stacked LAPACK calls.

The SVD is LAPACK's (through ``np.linalg.svd``).  The coefficient solve
inverts the q largest singular values (truncated SVD) or every numerically
nonzero one (plain minimum-norm least squares).  The solve sums
u_k v_k^H / sigma_k, which does not depend on the phase LAPACK picks for
each singular pair.

Both take one system or a stack of them (a leading axis, one item per
trial) and decompose the whole stack in one LAPACK call; numpy runs the same
routine on each item, so an item's result does not depend on its neighbours.
Given an ``errors`` list (one slot per item), a stacked call raises for no
item: an item that fails gets its ``AoaError`` in its slot, its outputs are
undefined, and an item whose slot is already set gets no further checks or
warnings.  Without the list, the first failure raises.
"""

import warnings
from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, RankDeficiencyWarning, UnsupportedScenario, raise_first

REL_RANK_TOL = 1e-10  # singular values below this fraction of sigma_1 count as zero


class EstimatorMode(Enum):
    """How the prediction coefficients are solved for.

    NOISELESS is the plain minimum-norm least-squares solve; TRUNCATED_SVD
    keeps only the q largest singular values.  The solve is the only step the
    mode changes, so it is defined here; ``laoa.estimator`` re-exports it.
    """

    NOISELESS = "noiseless"
    TRUNCATED_SVD = "truncated_svd"


def lapack_stack(fn, stacks: tuple, errors: list | None, what: str):
    """``fn(*stacks)`` (``np.linalg.svd``, ``eigvals`` or ``solve``) in one call over stacks of matrices.

    LAPACK failing on one item fails the whole call, so the items are then
    tried one at a time, only to name the failing ones: each gets a
    ConvergenceFailure in ``errors``, and one more stacked call, with their
    matrices replaced by identities, gives every other item the result it
    gets alone.  Returns None if every item fails.  Without ``errors`` the
    failure raises ConvergenceFailure.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError as exc:
        if errors is None:
            raise ConvergenceFailure(f"{what}: {exc}") from exc
    bad = []
    for i in range(len(stacks[0])):
        try:
            fn(*(s[i:i + 1] for s in stacks))
        except np.linalg.LinAlgError as exc:
            bad.append(i)
            if errors[i] is None:
                errors[i] = ConvergenceFailure(f"{what}: {exc}")
    if len(bad) == len(stacks[0]):
        return None
    patched = [s.copy() for s in stacks]
    for s in patched:
        s[bad] = np.eye(*s.shape[-2:])
    return fn(*patched)


def svd(A: np.ndarray, errors: list | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = U diag(sigma) V^H as (U, sigma, V), sigma non-increasing (LAPACK via numpy).

    A is one matrix or a stack (T x n x k) of them; see the module docstring
    for ``errors``.  Deterministic: the same input gives bit-identical
    factors.  Non-finite input is rejected before LAPACK sees it (an ``inf``
    entry can keep LAPACK iterating for minutes).

    Raises
    ------
    ConvergenceFailure
        If LAPACK reports that the decomposition did not converge.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.size == 0:
        raise ValueError("svd expects a nonempty matrix or stack of matrices")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd input contains non-finite entries")

    factors = lapack_stack(lambda a: np.linalg.svd(a, full_matrices=False), (A,), errors, "SVD did not converge")
    if factors is None:  # every item failed, so every output is undefined
        n, k = A.shape[-2:]
        r, lead = min(n, k), A.shape[:-2]
        return np.full(lead + (n, r), np.nan + 0j), np.full(lead + (r,), np.nan), np.full(lead + (k, r), np.nan + 0j)
    U, s, Vh = factors
    return U, s, Vh.conj().swapaxes(-1, -2)


def solve_coeffs(P: np.ndarray, P1: np.ndarray, q: int, mode: EstimatorMode, errors: list | None = None) -> np.ndarray:
    """Solve P C = P1 for the prediction coefficients (c_1, ..., c_{m-1}).

    TRUNCATED_SVD applies the paper's truncated pseudoinverse
    V_q Sigma_q^{-1} U_q^H to P1, inverting only the q largest singular
    values to suppress noise-dominated directions.  NOISELESS is the plain
    minimum-norm least-squares solution with tolerance-based rank detection
    (the explicit normal-equations pseudoinverse is singular whenever
    q < m - 1 in the noiseless case, so both modes go through the SVD).
    P and P1 are one system or a stack (T x n x (m-1) and T x n) of them;
    see the module docstring for ``errors``.

    Raises
    ------
    ConvergenceFailure
        If the data overflow the solve: sigma_1 or a solved coefficient is
        not finite.
    """
    n_coeffs = P.shape[-1]
    if not (1 <= q <= n_coeffs):
        raise UnsupportedScenario(f"q must be in [1, {n_coeffs}], got {q}")
    single = P.ndim == 2
    if single:
        P, P1 = P[None], P1[None]
    errs = [None] * len(P) if errors is None else errors
    U, sigma, V = svd(P, errs)
    s1 = sigma[:, 0]
    for i in np.flatnonzero(~np.isfinite(s1)):
        # finite data can still overflow: sigma_1 = inf would zero the rank and hide it
        if errs[i] is None:
            errs[i] = ConvergenceFailure("coefficient solve overflowed: the largest singular value of P is not finite")
    cutoff = np.where(s1 > 0, REL_RANK_TOL * s1, 0.0)

    if mode is EstimatorMode.TRUNCATED_SVD:
        rank = np.full(len(P), q)
        for i in np.flatnonzero(sigma[:, q - 1] <= cutoff):
            rank[i] = np.sum(sigma[i, :q] > cutoff[i])
            if errs[i] is None:
                warnings.warn(
                    f"requested truncation rank {q} exceeds numerical rank {rank[i]}; reducing",
                    RankDeficiencyWarning,
                    stacklevel=2,
                )
    else:
        rank = np.sum(sigma > cutoff[:, None], axis=1)

    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=np.arange(sigma.shape[1]) < rank[:, None])
    c = ((V * inv[:, None, :]) @ (U.conj().swapaxes(1, 2) @ P1[:, :, None]))[:, :, 0]
    for i in np.flatnonzero(~np.all(np.isfinite(c), axis=1)):
        if errs[i] is None:
            errs[i] = ConvergenceFailure("coefficient solve gave non-finite coefficients")
    if errors is None:
        raise_first(errs)
    return c[0] if single else c
