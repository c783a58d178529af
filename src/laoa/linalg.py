"""Complex dense SVD, the truncated-SVD coefficient solve and stacked LAPACK calls.

The SVD is LAPACK's (through ``np.linalg.svd``).  The coefficient solve
has one rank rule for both modes: an item's numerical rank counts its
singular values above REL_RANK_TOL * sigma_1.  Plain minimum-norm least
squares inverts that many; the truncated SVD inverts the q largest, or
that many where the rank falls below q.  The solve sums
u_k v_k^H / sigma_k, which does not depend on the phase LAPACK picks for
each singular pair.

Like every estimator layer (``laoa.rooting``, ``estimate_electrical`` and
``pair_and_recover``), both take only a stack (a leading axis, one item per
trial) and its ``errors`` list (one slot per item), and decompose the whole
stack in one LAPACK call; numpy runs the same routine on each item, so an
item's result does not depend on its neighbours.  A layer raises for no item:
an item that fails gets its ``AoaError`` in its slot, its outputs are
undefined, and an item whose slot is already set gets no further checks.
That list is the only place a failure is written, and a trial's
first failure wins; where a stacked call's items are not the trials
(``find_roots``' degree groups, the pairing's permutation systems),
``lapack_stack`` maps each item to its trial's slot.  A LAPACK failure has
one rule: ``lapack_stack`` sets the failing item's slot, runs it as an
identity and returns the whole stack, also when every item failed, so no
caller special-cases a failed call.  Only the single-trial
entry points ``estimate_2d_aoa`` and ``direction_from_electrical`` raise a
trial's failure (``raise_first``).

``solve_coeffs`` also returns, per item, the rank it had to reduce the
truncation to; ``estimator.estimate_stack``, which runs both subarrays of a
trial as two items of one stack, keeps both as the trial's ``reduced_rank``.
"""

from enum import Enum

import numpy as np

from .errors import ConvergenceFailure, UnsupportedScenario

REL_RANK_TOL = 1e-10  # singular values below this fraction of sigma_1 count as zero


class EstimatorMode(Enum):
    """How the prediction coefficients are solved for.

    NOISELESS is the plain minimum-norm least-squares solve; TRUNCATED_SVD
    keeps only the q largest singular values.  The solve is the only step the
    mode changes, so it is defined here; ``laoa.estimator`` re-exports it.
    """

    NOISELESS = "noiseless"
    TRUNCATED_SVD = "truncated_svd"


def lapack_stack(fn, stacks: tuple, errors: list, slots, what: str):
    """``fn(*stacks)`` (``np.linalg.svd``, ``eigvals`` or ``solve``) in one call over stacks of matrices.

    ``slots[i]`` is the slot in ``errors`` of item i's trial; several items
    may share one.  LAPACK failing on one item fails the whole call, so the
    items are then tried one at a time, only to name the failing ones: each
    gives its slot a ConvergenceFailure unless the slot is already set, and
    its matrices are replaced by identities.  One more stacked call then
    returns the whole stack, also when every item failed: every other item
    gets the result it gets alone, and a failed item's result is undefined.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        pass
    patched = [s.copy() for s in stacks]
    for i, slot in enumerate(slots):
        try:
            fn(*(s[i:i + 1] for s in stacks))
        except np.linalg.LinAlgError as exc:
            for s in patched:
                s[i] = np.eye(*s.shape[-2:])
            if errors[slot] is None:
                errors[slot] = ConvergenceFailure(f"{what}: {exc}")
    return fn(*patched)


def svd(A: np.ndarray, errors: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD A = U diag(sigma) V^H of each item of a stack, as (U, sigma, V), sigma non-increasing.

    A is a stack (T x n x k) of matrices; see the module docstring for
    ``errors``.  An item LAPACK fails on gets a ConvergenceFailure.
    Deterministic: the same input gives bit-identical factors.  Non-finite
    input is rejected before LAPACK sees it (an ``inf`` entry can keep
    LAPACK iterating for minutes).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 3 or A.size == 0:
        raise ValueError("svd expects a nonempty stack of matrices")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd input contains non-finite entries")

    U, s, Vh = lapack_stack(lambda a: np.linalg.svd(a, full_matrices=False), (A,), errors, range(len(A)), "SVD did not converge")
    return U, s, Vh.conj().swapaxes(1, 2)


def solve_coeffs(
    P: np.ndarray, P1: np.ndarray, q: int, mode: EstimatorMode, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """Solve P C = P1 for the prediction coefficients (c_1, ..., c_{m-1}), plus each item's reduced rank.

    TRUNCATED_SVD applies the paper's truncated pseudoinverse
    V_q Sigma_q^{-1} U_q^H to P1, inverting only the q largest singular
    values to suppress noise-dominated directions.  NOISELESS is the plain
    minimum-norm least-squares solution with tolerance-based rank detection
    (the explicit normal-equations pseudoinverse is singular whenever
    q < m - 1 in the noiseless case, so both modes go through the SVD).
    P and P1 are a stack (T x n x (m-1) and T x n) of systems, and the
    coefficients are T x (m-1); see the module docstring for ``errors``.  An
    item whose data overflow the solve (sigma_1 or a solved coefficient is not
    finite) gets a ConvergenceFailure.

    The second result (T ints) is, for each TRUNCATED_SVD item whose q-th
    singular value is numerically zero, the numerical rank its truncation is
    reduced to; it is -1 for every other item and for one whose slot was set
    before that check (by the SVD, the sigma_1 check or an earlier layer).

    Raises
    ------
    UnsupportedScenario
        If q is not in [1, m - 1].
    """
    n_coeffs = P.shape[-1]
    if not (1 <= q <= n_coeffs):
        raise UnsupportedScenario(f"q must be in [1, {n_coeffs}], got {q}")
    U, sigma, V = svd(P, errors)
    s1 = sigma[:, 0]
    for i in np.flatnonzero(~np.isfinite(s1)):
        # finite data can still overflow: sigma_1 = inf would zero the rank and hide it
        if errors[i] is None:
            errors[i] = ConvergenceFailure("coefficient solve overflowed: the largest singular value of P is not finite")
    cutoff = np.where(s1 > 0, REL_RANK_TOL * s1, 0.0)
    rank = np.sum(sigma > cutoff[:, None], axis=1)

    reduced = np.full(len(P), -1)
    if mode is EstimatorMode.TRUNCATED_SVD:
        rank = np.minimum(rank, q)
        short = (rank < q) & np.array([exc is None for exc in errors])
        reduced[short] = rank[short]

    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=np.arange(sigma.shape[1]) < rank[:, None])
    c = ((V * inv[:, None, :]) @ (U.conj().swapaxes(1, 2) @ P1[:, :, None]))[:, :, 0]
    for i in np.flatnonzero(~np.all(np.isfinite(c), axis=1)):
        if errors[i] is None:
            errors[i] = ConvergenceFailure("coefficient solve gave non-finite coefficients")
    return c, reduced
