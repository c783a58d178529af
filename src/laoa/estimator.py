"""End-to-end 2D angle-of-arrival estimation.

The estimator runs on a stack of trials: ``estimate_stack`` takes T trials'
data at once and makes each step one batched numpy/LAPACK call over the
stack, which spreads numpy's per-call cost over the trials.  It returns one
``StackEstimate``, a struct of arrays with one row per trial: the paired
(theta, phi), (psi, xi) and root magnitudes (T x q each), the pairing
residual and ambiguity flag (T each), each subarray's reduced truncation
rank (T x 2), and the ``errors`` list that names each failed trial's
AoaError, whose rows read NaN.  ``estimate_2d_aoa`` is a stack of one: it
raises the trial's failure and returns the StackEstimate of its one row.
Every layer below it takes stacks only.  Each trial's result, failure and
flags do not depend on the other trials in its stack: numpy runs each item
of a stacked call on its own, and a trial that fails is skipped by every
later step (see ``laoa.linalg`` for the one ``errors`` list that carries the
failures).

The data are compressed once, at the entry.  A trial's two subarrays are
stacked as Y = [Z; X] (2m x M), and one QR (``triangular_factors``) gives
the triangular factor R of Y^T = QR, min(2m, M) x 2m; every later step
(``estimate_factors``) reads R, never the raw data, so M drops out after
that one QR, and a caller may factor its trials in several stacks and
estimate all their factors in one pass.  Q has orthonormal columns, so the
prediction system of Z, R[:, 1:m] c = -R[:, 0], has the same singular
values and the same (truncated-SVD) coefficients as the raw system built
from Z, and so does X's, R[:, m+1:] c = -R[:, m].  L = R^T satisfies
L L^H = Y Y^H, which is all the pairing needs.

Each subarray then independently yields a set of electrical angles via the
prediction-polynomial pipeline; both subarrays run it in one stacked pass,
their 2T blocks as the items of one stack.  The paper-level method stops
there; with more than one source the psi set (from Z) and the xi set (from
X) must still be associated per physical source.  Both
subarrays observe the same source waveforms, so the correct association is
the permutation under which one common source matrix explains the stacked
data best.

Pairing searches the q! permutations in two stages of a few batched numpy
calls each.  Any L with L L^H = Y Y^H gives every residual (I - P_A) Y the
same Frobenius norm as (I - P_A) L.  Permutation P's stacked steering matrix
A = [A_z; A_x P] has the q x q normal equations G_P S = B_P, with
G_P = A^H A = Gz + P^T Gx P and B_P = A^H L = Bz + P^T Bx gathered from the
two halves.

The screen scores every permutation with q x q matrices only:
cheap_P = ||L||^2 - Re tr(G_P^-1 H_P), with H_P = B_P B_P^H gathered from
the three products Bz Bz^H, Bz Bx^H and Bx Bx^H.  It runs in single
precision: the exact stage below decides in double, so the screen only
needs enough digits to prune.  Each pass of SCREEN_BLOCK complex64 systems
of whole trials, the system index on the last axis, builds per trial one
table of every sum an entry of G_P or H_P can take, and gathers all of the
pass's G_P and H_P from it by one np.take.  It takes the trace
by elimination in numpy, not by a LAPACK solve per system: the unpivoted
elimination G_P = W D W^H (W unit lower triangular) applies each step's
row operation to G_P and H_P in one numpy call, and its conjugate to H_P
as a column operation, so tr(G_P^-1 H_P) is the sum of
(W^-1 H_P W^-H)_kk / d_k.  G_P is a Gram matrix, Hermitian positive
definite, and the unpivoted elimination is backward stable for it.  In exact arithmetic cheap_P is the squared
residual, but the subtraction cancels: rounding in B_P, H_P, ||L||^2 and
the elimination moves cheap_P by O((m + q) eps kappa ||L||^2), since
tr(G_P^-1 H_P) <= ||L||^2, with eps that of the precision the tables and
the elimination run in.  The stated bound is
delta = C (m + q) eps kappa ||L||^2 (C = SCREEN_ERROR_FACTOR), with
kappa = 2mq / max(lambda_min(Gz), lambda_min(Gx)) >= cond(G_P) for every P:
both terms of G_P are positive semidefinite and tr(G_P) = 2mq.  Measured
at C = 1, the largest gap was 0.021 of delta over 1230 trials screened in
single precision (300 random accepted q = 3-6 configs, 4 trials each, at
-10 to 30 dB) and 0.011 over the clustered sets of the screen's tests, the
retried ones included.  The bound is first order, so a trial whose
delta reaches ||L||^2 keeps every permutation; so does a trial whose
elimination meets a pivot that is not positive and finite, or a score that
is not finite: its delta is inf.  A trial whose single-precision delta is
inf, as one whose kappa makes C (m + q) eps kappa >= 1 (past ~4e4 at
m + q = 13), is screened again in double precision, those trials only, so
every trial a screen run wholly in double precision prunes is still
pruned.  The screen fails no trial.

The exact stage scores only the contenders: every P with
cheap_P <= c2 + 2 delta, c2 the second-smallest screen score.  The two
permutations with the smallest screen scores have squared residuals at most
c2 + delta, so both of the exact best two are contenders.  For those, it
solves G_P S = B_P by LU, in blocks of at most PAIRING_BLOCK systems, and
forms the residual directly as ||L - A S||_F; the shortcut the screen takes
loses everything below ~1e-8 of ||L|| to cancellation even in double
precision, which would hide a near-exact fit.  Every other permutation
scores +inf.  That LU is the only
place a pairing fails: an exactly singular G_P, as when two (psi, xi) pairs
are identical, gives ConvergenceFailure.  Such a G_P sits in a trial whose
kappa already makes delta inf, since G_P >= max(lambda_min(Gz),
lambda_min(Gx)) I, so every permutation of that trial is a contender and the
failure is the one scoring all q! exactly meets.  The best and second-best
permutations and residuals are bit for bit those of scoring all q! exactly.
With q! <= 2 there is nothing to prune and the screen is skipped.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import permutations

import numpy as np

from .array_model import ArrayConfig, directions_from_electrical, steering_vector
from .errors import ConvergenceFailure, UnsupportedScenario, raise_first
from .linalg import EstimatorMode, lapack_stack, solve_coeffs
from .rooting import electrical_angles_from_roots, find_roots, select_unit_roots
from .synthesis import SnapshotMatrix, build_lp_system

PERMUTATION_BUDGET = 5040  # 7!
PAIRING_AMBIGUITY_REL_TOL = 1e-6
# exact pairing systems per stacked solve: bounds the temporaries; 48 won only 6-8 of 10 timed pairs against
# 24 on q=2 stacks of 40 and 64 trials and on q=5 stacks of 20, within the noise
PAIRING_BLOCK = 24
SCREEN_BLOCK = 960  # complex64 screen systems per elimination pass, whole trials (at least one): the bytes of 480 complex128 ones
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


@dataclass(frozen=True, eq=False)
class StackEstimate:
    """A stack's estimates as arrays, one row per trial.

    The T x q arrays list each trial's sources in paired order: source l
    pairs psi_hat[t, l] (root magnitude mag_z[t, l]) with xi_hat[t, l]
    (mag_x[t, l]) and maps to (theta_deg[t, l], phi_deg[t, l]).
    pairing_residual and pairing_ambiguous hold one entry per trial.
    reduced_rank[t] holds Z's and X's reduced truncation ranks as
    ``solve_coeffs`` returns them, -1 where a rank was not reduced; a
    subarray's rank is kept when the trial then fails.  errors[t] is the
    AoaError trial t fails with, or None; a failed trial's row reads NaN and
    not ambiguous.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    psi_hat: np.ndarray
    xi_hat: np.ndarray
    mag_z: np.ndarray
    mag_x: np.ndarray
    pairing_residual: np.ndarray
    pairing_ambiguous: np.ndarray
    reduced_rank: np.ndarray
    errors: list


def estimate_electrical(
    B: np.ndarray, q: int, mode: EstimatorMode, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Electrical angles of one subarray per item, ascending, plus root magnitudes and reduced ranks.

    B is a stack (T x n x m) of blocks holding a subarray's sensors as
    columns: the raw data transposed, or the subarray's columns of the
    triangular factor (see the module docstring).  The items need not come
    from one subarray: ``estimate_factors`` passes Z's and X's blocks of every
    trial in one stack.  Gives T x q angles and magnitudes and the T reduced
    ranks of ``solve_coeffs``; see ``laoa.linalg`` for ``errors``.  Runs the
    full chain: linear-prediction system, coefficient solve, root finding,
    and unit-circle root selection.
    """
    P, P1 = build_lp_system(B)
    c, reduced = solve_coeffs(P, P1, q, mode, errors)
    roots = find_roots(c, errors)
    selected = select_unit_roots(roots, q, errors)
    angles = electrical_angles_from_roots(roots, selected)
    order = np.argsort(angles, axis=-1, kind="stable")
    rows = np.arange(len(roots))[:, None]
    return angles[rows, order], np.abs(roots[rows, selected[rows, order]]), reduced


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
    ``estimate_factors`` passes, or Y itself.  For every permutation P of the
    xi set, fit one common source matrix S to L with the stacked steering
    matrix [A_z; A_x P] and keep the permutation with the smallest Frobenius
    residual; ties go to the first permutation in itertools order.  The
    search screens all permutations with q x q scores and scores exactly only
    those the screen's error bound cannot rule out (see the module
    docstring), on L scaled by a power of two, so any finite data scale pairs
    alike; the reported ``pairing_residual`` is the winner's
    ||(I - P_A) L||_F = ||(I - P_A) Y||_F at the data's scale.

    Returns a StackEstimate whose reduced_rank reads -1 throughout, as no
    coefficients are solved here; see ``laoa.linalg`` for ``errors``.  A trial
    gets ConvergenceFailure if the exact stage's LU finds some permutation's
    normal equations exactly singular, as when two (psi, xi) pairs are identical,
    and OutOfRange or DegenerateElevation if a paired (psi, xi) maps to no
    direction (``directions_from_electrical``).

    Raises
    ------
    UnsupportedScenario
        If q! exceeds PERMUTATION_BUDGET.
    """
    psi = np.array(psi_hats, dtype=float)
    xi = np.array(xi_hats, dtype=float)
    if xi.shape != psi.shape:
        raise ValueError("psi and xi sets must have equal length")
    q = psi.shape[-1]
    _check_pairing_budget(q)
    mags_z = np.array(root_mags_z, dtype=float)
    mags_x = np.array(root_mags_x, dtype=float)

    resid, e, live = _pairing_residuals(psi, xi, L, cfg.m, errors)
    paired = np.array([errors[t] is None for t in live], dtype=bool)
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

    # the paired rows are written in place; every other row is a failed trial's, set to NaN below
    perm = permutation_table(q)[order[:, 0]]
    xi[rows] = xi[rows[:, None], perm]
    mags_x[rows] = mags_x[rows[:, None], perm]
    residual = np.empty(len(psi))
    residual[rows] = np.ldexp(best, e[paired])
    theta, phi = directions_from_electrical(psi, xi, cfg, errors)

    failed = np.array([exc is not None for exc in errors], dtype=bool)
    for a in (psi, xi, mags_z, mags_x, residual):
        a[failed] = np.nan
    ambiguous[failed] = False
    return StackEstimate(theta, phi, psi, xi, mags_z, mags_x, residual, ambiguous, np.full((len(psi), 2), -1), errors)


def _pairing_residuals(
    psi: np.ndarray, xi: np.ndarray, L: np.ndarray, m: int, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every permutation's residual per live trial (live x q!), on L / 2^e, the exponents e
    # and the live rows, those whose slot was unset; a permutation the screen rules out
    # reads +inf, and an exact-stage failure sets its trial's slot.  The search runs on
    # L / 2^e, whose largest entry lies in [1/2, 1), so the squared residuals
    # neither overflow nor underflow at any data scale; a power of two scales
    # exactly, so wherever the unscaled search works it gives the same bits
    # (ldexp: 2.0 ** -e would overflow for deeply subnormal L)
    live = np.flatnonzero([exc is None for exc in errors])
    psi, xi, L = psi[live], xi[live], L[live]
    e = np.frexp(np.max(np.abs(L), axis=(1, 2), initial=0.0))[1]
    shift = -e[:, None, None]
    L = np.ldexp(L.real, shift) + 1j * np.ldexp(L.imag, shift)
    T, q = psi.shape
    # both halves' steering matrices and Gram matrices as one 2T stack, Z's then X's
    A_zx = steering_vector(np.concatenate([psi, xi]), m)
    A_zxH = A_zx.conj().swapaxes(1, 2)
    G_zx = A_zxH @ A_zx
    A_z, A_x, Gz, Gx = A_zx[:T], A_zx[T:], G_zx[:T], G_zx[T:]

    # the Gram matrix and right-hand side of permutation P are gathered from
    # those of the two halves: A^H A = Gz + P^T Gx P, A^H L = Bz + P^T Bx
    Bz, Bx = A_zxH[:T] @ L[:, :m], A_zxH[T:] @ L[:, m:]
    table = permutation_table(q)
    contenders = np.ones((T, len(table)), dtype=bool)
    if len(table) > 2:
        cheap, delta = _screen(G_zx, Bz, Bx, L, table)
        # any permutation among the exact best two has cheap <= c2 + 2 delta; a NaN score stays in
        threshold = np.partition(cheap, 1, axis=1)[:, 1] + 2.0 * delta
        contenders = ~(cheap > threshold[:, None])

    # the exact stage: G_P S = B_P per contender, PAIRING_BLOCK systems per stacked solve
    trial_of, perm_of = np.nonzero(contenders)
    resid = np.full(contenders.shape, np.inf)
    for b in range(0, len(trial_of), PAIRING_BLOCK):
        ts, ps = trial_of[b:b + PAIRING_BLOCK], perm_of[b:b + PAIRING_BLOCK]
        P = table[ps]
        G = Gz[ts] + Gx[ts[:, None, None], P[:, :, None], P[:, None, :]]
        S = lapack_stack(np.linalg.solve, (G, Bz[ts] + Bx[ts[:, None], P]), errors, live[ts], SINGULAR_PAIRING)
        A = np.concatenate([A_z[ts], A_x[ts[:, None], :, P].swapaxes(1, 2)], axis=1)
        resid[ts, ps] = np.linalg.norm(L[ts] - A @ S, axis=(1, 2))
    return resid, e, live


def _screen(
    G_zx: np.ndarray, Bz: np.ndarray, Bx: np.ndarray, L: np.ndarray, table: np.ndarray, dtype=np.complex64
) -> tuple[np.ndarray, np.ndarray]:
    # every permutation's screen score ||L||^2 - Re tr(G_P^-1 H_P) (T x q!) and
    # each trial's bound delta on its distance from the exact squared residual;
    # G_zx is the 2T stack [Gz; Gx] and H_P = B_P B_P^H = Hzz + Hzx[:, P] + Hzx^H[P, :] + Hxx[P][:, P].
    # The tables, the gather and the elimination run in dtype, and delta takes dtype's eps; the
    # trials whose complex64 delta is inf are screened again at complex128, the retry being
    # the only caller that passes dtype, so every trial a complex128 screen prunes is pruned.
    # Fails no trial: one whose elimination meets a pivot that is not positive and finite
    # or a score that is not finite scores NaN with delta = inf, so it keeps
    # every permutation
    T, q = Bz.shape[:2]
    m = L.shape[1] // 2
    Hzz, Hzx, Hxx = (a @ b.conj().swapaxes(1, 2) for a, b in ((Bz, Bz), (Bz, Bx), (Bx, Bx)))
    index = _screen_index(q)
    # SCREEN_BLOCK counts complex64 systems: a complex128 pass takes half as many, the same bytes
    per_pass = max(1, SCREEN_BLOCK * 8 // (np.dtype(dtype).itemsize * len(table)))
    traces = np.empty((T, len(table)))
    good = np.empty((T, len(table)), dtype=bool)
    # the trials on the last axis: each block is q x q x T
    blocks = [a.transpose(1, 2, 0).astype(dtype) for a in (G_zx[:T], G_zx[T:], Hzz, Hzx, Hxx)]
    for t0 in range(0, T, per_pass):
        ts = slice(t0, t0 + per_pass)
        gz, gx, hzz, hzx, hxx = (a[..., ts] for a in blocks)
        # per trial, the tables G_P and H_P are gathered from: G[i, j, a, b] = Gx[a, b] + Gz[i, j]
        # and H[i, j, a, b] = ((Hxx[a, b] + Hzz[i, j]) + Hzx[i, b]) + conj(Hzx[j, a]), so that
        # G_P[i, j] = G[i, j, P[i], P[j]] and H_P[i, j] = H[i, j, P[i], P[j]]
        tables = np.empty((2, q, q, q, q, gz.shape[-1]), dtype=dtype)
        np.add(gx, gz[:, :, None, None], out=tables[0])
        np.add(hxx, hzz[:, :, None, None], out=tables[1])
        tables[1] += hzx[:, None, None]
        tables[1] += np.conjugate(hzx)[:, :, None]
        GH = np.take(tables.reshape(-1, gz.shape[-1]), index, axis=0)
        del tables  # not held through the elimination
        traces[ts], good[ts] = (a.T for a in _eliminate(GH))
    bad = ~good.all(axis=1)
    traces[bad] = np.nan
    norm2 = np.sum(L.real**2 + L.imag**2, axis=(1, 2))
    # lambda_max(G_P) <= tr(G_P) = 2mq, and lambda_min(G_P) >= max(lambda_min(Gz), lambda_min(Gx))
    lam = np.max(np.linalg.eigvalsh(G_zx)[:, 0].reshape(2, T), axis=0)
    kappa = np.divide(2.0 * m * q, lam, out=np.full(T, np.inf), where=lam > 0)
    delta = SCREEN_ERROR_FACTOR * (m + q) * np.finfo(dtype).eps * kappa * norm2
    # a first-order bound: past ||L||^2, the whole range of residuals, it bounds nothing
    cheap, delta = norm2[:, None] - traces, np.where((delta < norm2) & ~bad, delta, np.inf)
    retry = np.flatnonzero(delta == np.inf)
    if dtype == np.complex64 and len(retry):
        rows = np.concatenate([retry, retry + T])
        cheap[retry], delta[retry] = _screen(G_zx[rows], Bz[retry], Bx[retry], L[retry], table, np.complex128)
    return cheap, delta


@lru_cache(maxsize=8)
def _screen_index(q: int) -> np.ndarray:
    # flat index into a trial's tables [G; H] (2 x q x q x q x q, see _screen) of entry
    # [i, j, g, p] of a q x q x 2 x q! stack: table g at [i, j, P[i], P[j]], P = permutation p;
    # one np.take per pass gathers G_P (g = 0) and H_P (g = 1) for all its trials
    table = permutation_table(q).T
    i, j, g = np.arange(q)[:, None, None, None], np.arange(q)[:, None, None], np.arange(2)[:, None]
    index = (((g * q + i) * q + j) * q + table[:, None, None]) * q + table[:, None]
    index.flags.writeable = False
    return index


def _eliminate(GH: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Re tr(G^-1 H) of each q x q system, G = GH[:, :, 0] and H = GH[:, :, 1], the system axes
    # last (q x q x 2 x ...), by unpivoted elimination G = W D W^H in place, with each step's
    # row operation applied to H and its conjugate as a column operation: H becomes
    # W^-1 H W^-H, so the trace is sum_k H_kk / d_k.  G is Hermitian positive definite, where
    # the unpivoted elimination is backward stable.  Also gives whether every pivot d_k was
    # positive and finite and the trace finite; where not, the trace is meaningless
    q = GH.shape[0]
    G, H = GH[:, :, 0], GH[:, :, 1]
    with np.errstate(all="ignore"):  # a bad pivot is reported through good, not warned about
        for k in range(q - 1):
            l = G[k + 1:, k] / G[k, k].real
            u = H[k + 1:, k] - l * H[k, k]
            GH[k + 1:, k + 1:] -= l[:, None, None] * GH[k, k + 1:]  # G's row operation and H's
            H[k + 1:, k + 1:] -= u[:, None] * np.conjugate(l, out=l)
        # step k changes only rows and columns past k, so G[k, k] holds d_k and H[k, k] its term
        diag = np.arange(q)
        d = G[diag, diag].real
        trace = np.sum(H[diag, diag].real / d, axis=0)
        good = np.all((0.0 < d) & (d < np.inf), axis=0) & np.isfinite(trace)
    return trace, good


def estimate_stack(
    Y: np.ndarray,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> StackEstimate:
    """The 2D AOA pipeline on a stack of trials, one pass per step.

    Y is T x 2m x M, trial t's stacked data [Z_t; X_t].  Checks the shape
    and the scenario once, compresses every trial with one stacked QR
    (``triangular_factors``) and runs ``estimate_factors`` on the factors.
    Returns one StackEstimate: row t, and ``errors[t]``, are exactly what
    ``estimate_2d_aoa`` gives trial t alone.

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
    return estimate_factors(triangular_factors(Y), q, cfg, mode)


def triangular_factors(Y: np.ndarray) -> np.ndarray:
    """The triangular factor R of Y_t^T = QR for each trial t of a T x 2m x M stack: T x min(2m, M) x 2m.

    One stacked QR, whose items numpy runs alone, so a trial's R does not
    depend on its stack; it is all the estimator reads of the data (see the
    module docstring).
    """
    return np.linalg.qr(Y.transpose(0, 2, 1), mode="r")


def estimate_factors(
    R: np.ndarray,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> StackEstimate:
    """The 2D AOA pipeline on a stack of trials' triangular factors, one pass per step.

    R is T x k x 2m, trial t's ``triangular_factors``; a failed trial's
    factor is zeroed in place.  The scenario is the caller's to check.  A trial whose R is not finite
    fails with ConvergenceFailure; every step then runs on the whole stack,
    the pairing and the angle mapping included.  Both subarrays go through
    one ``estimate_electrical`` pass over a 2T stack, Z's blocks then X's,
    each half seeded with the trials that already failed; a trial then fails
    with its Z half's error, or else its X half's.  Row t, and
    ``errors[t]``, do not depend on the other trials.  Its reduced_rank holds
    both halves' ranks as measured, the X half's also when the Z half failed.
    """
    m = cfg.m
    errors = [None] * len(R)
    for t in np.flatnonzero(~np.all(np.isfinite(R), axis=(1, 2))):
        errors[t] = ConvergenceFailure("coefficient solve overflowed: the triangular factor of the data is not finite")
        # zeros keep the later stacked calls finite; a failed trial gets no further checks
        R[t] = 0.0
    T = len(R)
    halves = errors + errors
    angles, mags, reduced = estimate_electrical(np.concatenate([R[:, :, :m], R[:, :, m:]]), q, mode, halves)
    errors = [z if z is not None else x for z, x in zip(halves[:T], halves[T:])]
    est = pair_and_recover(angles[:T], angles[T:], R.swapaxes(1, 2), cfg, mags[:T], mags[T:], errors)
    return replace(est, reduced_rank=reduced.reshape(2, T).T)


def estimate_2d_aoa(
    Z: SnapshotMatrix,
    X: SnapshotMatrix,
    q: int,
    cfg: ArrayConfig,
    mode: EstimatorMode = EstimatorMode.TRUNCATED_SVD,
) -> StackEstimate:
    """Full 2D AOA pipeline on one pair of subarray snapshot matrices: a stack of one.

    Checks the shapes, then runs ``estimate_stack`` on [Z; X], which checks
    the scenario once, compresses [Z; X] to its triangular factor R (see the
    module docstring) and runs both subarrays and the pairing on R.  Returns
    that stack's StackEstimate: row 0 of each array is the estimate.

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
        raise ValueError(f"Z is {Z.m} x {Z.snapshots} and X is {X.m} x {X.snapshots}; both must be {m} x M")
    result = estimate_stack(np.vstack([Z.data, X.data])[None], q, cfg, mode)
    raise_first(result.errors)
    return result
