"""End-to-end 2D angle-of-arrival estimation.

The estimator runs on a stack of trials: ``estimate_stack`` takes T trials'
data at once and makes each step one batched numpy/LAPACK call over the
stack, which spreads numpy's per-call cost over the trials.  It returns one
``StackEstimate``, a struct of arrays with one row per trial: the paired
(theta, phi), (psi, xi) and root magnitudes (T x q each), the pairing
residual and ambiguity flag (T each), and the ``errors`` list that names
each failed trial's AoaError, whose rows read NaN.  ``estimate_2d_aoa`` is a
stack of one: it raises the trial's failure and turns row 0 into the
boundary types ``AoaEstimate`` and ``SourceEstimate``.  Every layer below it
takes stacks only.  Each trial's result, failure and warnings do not depend
on the other trials in its stack: numpy runs each item of a stacked call on
its own, and a trial that fails is skipped by every later step (see
``laoa.linalg`` for the ``errors`` lists that carry the failures).

The data are compressed once, at the entry.  A trial's two subarrays are
stacked as Y = [Z; X] (2m x M), and one QR gives the triangular factor R of
Y^T = QR, at most 2m x 2m; every later step reads R, never the raw data, so M
drops out after that one QR.  Q has orthonormal columns, so the prediction
system of Z, R[:, 1:m] c = -R[:, 0], has the same singular values and the
same (truncated-SVD) coefficients as the raw system built from Z, and so does
X's, R[:, m+1:] c = -R[:, m].  L = R^T satisfies L L^H = Y Y^H, which is all
the pairing needs.

Each subarray then independently yields a set of electrical angles via the
prediction-polynomial pipeline; both subarrays run it in one stacked pass,
their 2T blocks as the items of one stack, and the rank warnings of the
coefficient solve are decided once both halves are done.  The paper-level
method stops there; with more than one source the psi set (from Z) and the
xi set (from X) must still be associated per physical source.  Both
subarrays observe the same source waveforms, so the correct association is
the permutation under which one common source matrix explains the stacked
data best.

Pairing searches the q! permutations in two stages of a few batched numpy
calls each.  Any L with L L^H = Y Y^H gives every residual (I - P_A) Y the
same Frobenius norm as (I - P_A) L.  Permutation P's stacked steering matrix
A = [A_z; A_x P] has the q x q normal equations G_P S = B_P, with
G_P = A^H A = Gz + P^T Gx P and B_P = A^H L = Bz + P^T Bx gathered from the
two halves.  Both stages solve with G_P through one loop over a flat list of
(trial, permutation) pairs, a block of pairs per stacked solve.

The screen scores every permutation with q x q matrices only:
cheap_P = ||L||^2 - Re tr(G_P^-1 H_P), with H_P = B_P B_P^H gathered from
the three products Bz Bz^H, Bz Bx^H and Bx Bx^H.  In exact arithmetic that is
the squared residual, but the subtraction cancels: rounding in B_P, H_P,
||L||^2 and the LU of G_P moves cheap_P by O((m + q) eps kappa ||L||^2),
since tr(G_P^-1 H_P) <= ||L||^2.  The stated bound is
delta = C (m + q) eps kappa ||L||^2 (C = SCREEN_ERROR_FACTOR; measured gaps
stay below 0.03 of it at C = 1), with kappa = 2mq / max(lambda_min(Gz),
lambda_min(Gx)) >= cond(G_P) for every P: both terms of G_P are positive
semidefinite and tr(G_P) = 2mq.  The bound is first order, so a trial whose
delta reaches ||L||^2 keeps every permutation.

The exact stage scores only the contenders: every P with
cheap_P <= c2 + 2 delta, c2 the second-smallest screen score.  The two
permutations with the smallest screen scores have squared residuals at most
c2 + delta, so both of the exact best two are contenders.  For those, the
residual is formed directly as ||L - A S||_F, in blocks of at most
PAIRING_BLOCK systems; the shortcut the screen takes loses everything below
~1e-8 of ||L|| to cancellation, which would hide a near-exact fit.  Every
other permutation scores +inf.  The screen solves with the same LU of G_P, so
an exactly singular pairing fails there with the same ConvergenceFailure,
and the best and second-best permutations and residuals are bit for bit
those of scoring all q! exactly.  With q! <= 2 there is nothing to prune and
the screen is skipped.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .array_model import ArrayConfig, directions_from_electrical, steering_vector
from .errors import (
    ConvergenceFailure,
    PairingAmbiguousWarning,
    RankDeficiencyWarning,
    UnsupportedScenario,
    raise_first,
)
from .linalg import EstimatorMode, lapack_stack, solve_coeffs
from .rooting import electrical_angles_from_roots, find_roots, select_unit_roots
from .synthesis import SnapshotMatrix, build_lp_system

PERMUTATION_BUDGET = 5040  # 7!
PAIRING_AMBIGUITY_REL_TOL = 1e-6
PAIRING_BLOCK = 24  # exact pairing systems per stacked solve: bounds the temporaries, a q=2 stack of 10 fits
SCREEN_BLOCK = 120  # screen systems per stacked solve: q x q right-hand sides, so about PAIRING_BLOCK's temporaries
SCREEN_ERROR_FACTOR = 16.0  # C in the screen's error bound (module docstring)
SINGULAR_PAIRING = "singular pairing normal equations"


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


@dataclass(frozen=True, eq=False)
class StackEstimate:
    """A stack's estimates as arrays, one row per trial.

    The T x q arrays list each trial's sources in paired order: source l
    pairs psi_hat[t, l] (root magnitude mag_z[t, l]) with xi_hat[t, l]
    (mag_x[t, l]) and maps to (theta_deg[t, l], phi_deg[t, l]).
    pairing_residual and pairing_ambiguous hold one entry per trial.
    errors[t] is the AoaError trial t fails with, or None; a failed trial's
    row reads NaN and not ambiguous.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    psi_hat: np.ndarray
    xi_hat: np.ndarray
    mag_z: np.ndarray
    mag_x: np.ndarray
    pairing_residual: np.ndarray
    pairing_ambiguous: np.ndarray
    errors: list


def _row_estimate(result: StackEstimate, t: int = 0) -> AoaEstimate:
    # trial t of a stack as the boundary types; .tolist() keeps numpy reprs out of printed fields
    columns = (result.theta_deg, result.phi_deg, result.psi_hat, result.xi_hat, result.mag_z, result.mag_x)
    return AoaEstimate(
        sources=tuple(SourceEstimate(*source) for source in zip(*(a[t].tolist() for a in columns))),
        pairing_residual=float(result.pairing_residual[t]),
        pairing_ambiguous=bool(result.pairing_ambiguous[t]),
    )


def estimate_electrical(
    B: np.ndarray, q: int, mode: EstimatorMode, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Electrical angles of one subarray per item, ascending, plus root magnitudes and reduced ranks.

    B is a stack (T x n x m) of blocks holding a subarray's sensors as
    columns: the raw data transposed, or the subarray's columns of the
    triangular factor (see the module docstring).  The items need not come
    from one subarray: ``estimate_stack`` passes Z's and X's blocks of every
    trial in one stack.  Gives T x q angles and magnitudes and the T reduced
    ranks of ``solve_coeffs``, which warns about none of them; see
    ``laoa.linalg`` for ``errors``.  Runs the full chain: linear-prediction
    system, coefficient solve, root finding, and unit-circle root selection.
    """
    P, P1 = build_lp_system(B)
    c, reduced = solve_coeffs(P, P1, q, mode, errors)
    roots = find_roots(c, errors)
    selected = select_unit_roots(roots, q, errors)
    angles = electrical_angles_from_roots(roots, selected)
    order = np.argsort(angles, axis=-1, kind="stable")
    selected = np.take_along_axis(selected, order, axis=-1)
    mags = np.abs(np.take_along_axis(roots, selected, axis=-1))
    return np.take_along_axis(angles, order, axis=-1), mags, reduced


def pair_and_recover(
    psi_hats: np.ndarray,
    xi_hats: np.ndarray,
    L: np.ndarray,
    cfg: ArrayConfig,
    root_mags_z: np.ndarray,
    root_mags_x: np.ndarray,
    errors: list,
) -> StackEstimate:
    """Associate each trial's psi and xi estimates across subarrays and recover angles.

    psi_hats, xi_hats and the root magnitudes are T x q, one row per trial.
    L is T x 2m x k: L[t] is any matrix with L L^H = Y Y^H for trial t's
    stacked data Y = [Z; X], such as the transposed triangular factor that
    ``estimate_stack`` passes, or Y itself.  For every permutation P of the
    xi set, fit one common source matrix S to L with the stacked steering
    matrix [A_z; A_x P] and keep the permutation with the smallest Frobenius
    residual; ties go to the first permutation in itertools order.  The
    search screens all permutations with q x q scores and scores exactly only
    those the screen's error bound cannot rule out (see the module
    docstring), on L scaled by a power of two, so any finite data scale pairs
    alike; the reported ``pairing_residual`` is the winner's
    ||(I - P_A) L||_F = ||(I - P_A) Y||_F at the data's scale.

    Returns a StackEstimate; see ``laoa.linalg`` for ``errors``.  A trial
    gets ConvergenceFailure if LAPACK finds some permutation's normal
    equations exactly singular, as when two (psi, xi) pairs are identical,
    and OutOfRange or DegenerateElevation if a paired (psi, xi) maps to no
    direction (``directions_from_electrical``).

    Raises
    ------
    UnsupportedScenario
        If q! exceeds PERMUTATION_BUDGET.
    """
    psi = np.array(psi_hats, dtype=float)
    xi = np.asarray(xi_hats, dtype=float)
    if xi.shape != psi.shape:
        raise ValueError("psi and xi sets must have equal length")
    q = psi.shape[-1]
    _check_pairing_budget(q)
    mags_z = np.array(root_mags_z, dtype=float)
    mags_x = np.asarray(root_mags_x, dtype=float)

    live = np.flatnonzero([exc is None for exc in errors])
    live_errs = [None] * len(live)
    resid, e = _pairing_residuals(psi[live], xi[live], L[live], cfg.m, live_errs)
    paired = np.array([exc is None for exc in live_errs], dtype=bool)
    for j in np.flatnonzero(~paired):
        errors[live[j]] = live_errs[j]
    rows, resid = live[paired], resid[paired]

    order = np.argsort(resid, axis=1, kind="stable")
    at = np.arange(len(rows))
    best = resid[at, order[:, 0]]
    ambiguous = np.zeros(len(psi), dtype=bool)
    if q > 1:
        second = resid[at, order[:, 1]]
        close = np.isfinite(second)
        gap = second[close] - best[close]
        close[close] = gap < PAIRING_AMBIGUITY_REL_TOL * np.maximum(second[close], np.finfo(float).tiny)
        ambiguous[rows] = close
    for _ in range(np.count_nonzero(ambiguous)):
        warnings.warn(
            "two pairings fit the data almost equally well; keeping the best", PairingAmbiguousWarning, stacklevel=2
        )

    perm = permutation_table(q)[order[:, 0]]
    xi_paired, mags_x_paired = np.full(psi.shape, np.nan), np.full(psi.shape, np.nan)
    residual = np.full(len(psi), np.nan)
    xi_paired[rows] = xi[rows[:, None], perm]
    mags_x_paired[rows] = mags_x[rows[:, None], perm]
    residual[rows] = np.ldexp(best, e[paired])
    theta, phi = directions_from_electrical(psi, xi_paired, cfg, errors)

    failed = np.array([exc is not None for exc in errors], dtype=bool)
    for a in (psi, xi_paired, mags_z, mags_x_paired, residual):
        a[failed] = np.nan
    ambiguous[failed] = False
    return StackEstimate(theta, phi, psi, xi_paired, mags_z, mags_x_paired, residual, ambiguous, errors)


def _pairing_residuals(
    psi: np.ndarray, xi: np.ndarray, L: np.ndarray, m: int, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    # every permutation's residual per trial (T x q!), on L / 2^e, and the exponents e;
    # a permutation the screen rules out reads +inf.  The search runs on
    # L / 2^e, whose largest entry lies in [1/2, 1), so the squared residuals
    # neither overflow nor underflow at any data scale; a power of two scales
    # exactly, so wherever the unscaled search works it gives the same bits
    # (ldexp: 2.0 ** -e would overflow for deeply subnormal L)
    e = np.frexp(np.max(np.abs(L), axis=(1, 2), initial=0.0))[1]
    shift = -e[:, None, None]
    L = np.ldexp(L.real, shift) + 1j * np.ldexp(L.imag, shift)
    A_z = steering_vector(psi, m)
    A_x = steering_vector(xi, m)
    q = psi.shape[1]

    # the Gram matrix and right-hand side of permutation P are gathered from
    # those of the two halves: A^H A = Gz + P^T Gx P, A^H L = Bz + P^T Bx
    Gz, Gx = A_z.conj().swapaxes(1, 2) @ A_z, A_x.conj().swapaxes(1, 2) @ A_x
    Bz, Bx = A_z.conj().swapaxes(1, 2) @ L[:, :m], A_x.conj().swapaxes(1, 2) @ L[:, m:]
    table = permutation_table(q)
    if len(table) > 2:
        cheap, delta = _screen(Gz, Gx, Bz, Bx, L, table, errors)
        # any permutation among the exact best two has cheap <= c2 + 2 delta; a NaN score stays in
        threshold = np.partition(cheap, 1, axis=1)[:, 1] + 2.0 * delta
        contenders = ~(cheap > threshold[:, None])
        contenders[[t for t, exc in enumerate(errors) if exc is not None]] = False
    else:
        contenders = np.ones((len(psi), len(table)), dtype=bool)

    def rhs(ts, ps, _):
        return Bz[ts] + Bx[ts[:, None], table[ps]]

    resid = np.full(contenders.shape, np.inf)
    for ts, ps, S in _solve_pairings(Gz, Gx, rhs, np.nonzero(contenders), table, PAIRING_BLOCK, errors):
        A = np.concatenate([A_z[ts], A_x[ts[:, None], :, table[ps]].swapaxes(1, 2)], axis=1)
        resid[ts, ps] = np.linalg.norm(L[ts] - A @ S, axis=(1, 2))
    return resid, e


def _solve_pairings(Gz: np.ndarray, Gx: np.ndarray, rhs, pairs: tuple, table: np.ndarray, block: int, errors: list):
    # G_P X = rhs(ts, ps, at) for the flat (trial_of, perm_of) list `pairs`, `block`
    # systems per stacked solve, with G_P = Gz + P^T Gx P gathered per system; `at`
    # indexes P^T M P, M[P[i], P[j]], in a flattened T x q x q stack.  Merges each
    # block's failures into the trials' slots of errors and yields (ts, ps, X) for
    # each block that has a solution
    trial_of, perm_of = pairs
    q = table.shape[1]
    both = table[:, :, None] * q + table[:, None, :]
    for b in range(0, len(trial_of), block):
        ts, ps = trial_of[b:b + block], perm_of[b:b + block]
        at = ts[:, None, None] * (q * q) + both[ps]
        block_errs = [None] * len(ts)
        X = lapack_stack(np.linalg.solve, (Gz[ts] + np.take(Gx, at), rhs(ts, ps, at)), block_errs, SINGULAR_PAIRING)
        for t, exc in zip(ts, block_errs):
            if exc is not None and errors[t] is None:
                errors[t] = exc
        if X is not None:
            yield ts, ps, X


def _screen(
    Gz: np.ndarray, Gx: np.ndarray, Bz: np.ndarray, Bx: np.ndarray, L: np.ndarray, table: np.ndarray, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    # every permutation's screen score ||L||^2 - Re tr(G_P^-1 H_P) (T x q!) and
    # each trial's bound delta on its distance from the exact squared residual;
    # H_P = B_P B_P^H = Hzz + Hzx[:, P] + Hzx^H[P, :] + Hxx[P][:, P]
    T, q = Gz.shape[:2]
    m = L.shape[1] // 2
    Hzz, Hzx, Hxx = (a @ b.conj().swapaxes(1, 2) for a, b in ((Bz, Bz), (Bz, Bx), (Bx, Bx)))

    cols = np.arange(q)[:, None] * q + table[:, None, :]  # M P is M[i, P[j]]

    def rhs(ts, ps, at):
        cross = np.take(Hzx, ts[:, None, None] * (q * q) + cols[ps])
        return Hzz[ts] + cross + cross.conj().swapaxes(1, 2) + np.take(Hxx, at)

    traces = np.full((T, len(table)), np.nan)
    every_pair = np.nonzero(np.ones(traces.shape, dtype=bool))
    for ts, ps, X in _solve_pairings(Gz, Gx, rhs, every_pair, table, SCREEN_BLOCK, errors):
        traces[ts, ps] = np.trace(X, axis1=1, axis2=2).real
    norm2 = np.sum(L.real**2 + L.imag**2, axis=(1, 2))
    # lambda_max(G_P) <= tr(G_P) = 2mq, and lambda_min(G_P) >= max(lambda_min(Gz), lambda_min(Gx))
    lam = np.max(np.linalg.eigvalsh(np.stack([Gz, Gx]))[..., 0], axis=0)
    kappa = np.divide(2.0 * m * q, lam, out=np.full(T, np.inf), where=lam > 0)
    delta = SCREEN_ERROR_FACTOR * (m + q) * np.finfo(float).eps * kappa * norm2
    # a first-order bound: past ||L||^2, the whole range of residuals, it bounds nothing
    return norm2[:, None] - traces, np.where(delta < norm2, delta, np.inf)


def estimate_stack(
    Y: np.ndarray,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> StackEstimate:
    """The 2D AOA pipeline on a stack of trials, one pass per step.

    Y is T x 2m x M, trial t's stacked data [Z_t; X_t].  Checks the scenario
    once, compresses every trial with one stacked QR (see the module
    docstring) and runs each step on the whole stack, the pairing and the
    angle mapping included.  Both subarrays go through one
    ``estimate_electrical`` pass over a 2T stack, Z's blocks then X's, each
    half seeded with the trials that already failed; a trial then fails with
    its Z half's error, or else its X half's.  Returns one StackEstimate:
    row t, and ``errors[t]``, are exactly what ``estimate_2d_aoa`` gives
    trial t alone, and so is each warning.

    A RankDeficiencyWarning is issued for each trial whose Z solve reduced
    the truncation rank, then for each trial whose X solve did and whose Z
    chain passed, as if X's chain ran only after Z's had succeeded.

    Raises
    ------
    ValueError
        If Y does not hold 2 * cfg.m rows per trial.
    UnsupportedScenario
        If (cfg.m, M, q) breaks a ``check_scenario`` rule.
    """
    m = cfg.m
    if Y.ndim != 3 or Y.shape[1] != 2 * m:
        raise ValueError(f"Y must be T x 2m x M with 2m = {2 * m}, got {Y.shape}")
    check_scenario(m, Y.shape[2], q)
    R = np.linalg.qr(Y.transpose(0, 2, 1), mode="r")
    errors = [None] * len(Y)
    for t in np.flatnonzero(~np.all(np.isfinite(R), axis=(1, 2))):
        errors[t] = ConvergenceFailure("coefficient solve overflowed: the triangular factor of the data is not finite")
        # zeros keep the later stacked calls finite; a failed trial gets no further checks or warnings
        R[t] = 0.0
    T = len(Y)
    halves = errors + errors
    angles, mags, reduced = estimate_electrical(np.concatenate([R[:, :, :m], R[:, :, m:]]), q, mode, halves)
    z_errors, x_errors = halves[:T], halves[T:]
    # Z's reduced ranks, then X's of the trials whose Z chain passed
    warned = reduced[:T].tolist() + [r for r, exc in zip(reduced[T:].tolist(), z_errors) if exc is None]
    for rank in warned:
        if rank >= 0:
            warnings.warn(
                f"requested truncation rank {q} exceeds numerical rank {rank}; reducing",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    errors = [z if z is not None else x for z, x in zip(z_errors, x_errors)]
    return pair_and_recover(angles[:T], angles[T:], R.swapaxes(1, 2), cfg, mags[:T], mags[T:], errors)


def estimate_2d_aoa(
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> AoaEstimate:
    """Full 2D AOA pipeline on one pair of subarray snapshot matrices: a stack of one.

    Checks the shapes, then runs ``estimate_stack`` on [Z; X], which checks
    the scenario once, compresses [Z; X] to its triangular factor R (see the
    module docstring) and runs both subarrays and the pairing on R.

    Raises
    ------
    ValueError
        If Z and X are not both cfg.m x M: stacking them would mix sensors.
    UnsupportedScenario
        If (cfg.m, M, q) breaks a ``check_scenario`` rule.
    ConvergenceFailure
        If the data overflow R, which the coefficient solve cannot use.
    AoaError
        Whatever failure the trial meets on the way (see ``laoa.errors``).
    """
    m, M = cfg.m, Z.snapshots
    if Z.data.shape != (m, M) or X.data.shape != (m, M):
        raise ValueError(f"Z and X must both be cfg.m x M = {m} x M, got {Z.data.shape} and {X.data.shape}")
    result = estimate_stack(np.vstack([Z.data, X.data])[None], q, cfg, mode)
    raise_first(result.errors)
    return _row_estimate(result)
