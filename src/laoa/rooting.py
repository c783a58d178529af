"""Roots of the prediction polynomial and signal-root selection.

The polynomial is P(y) = 1 + c_1 y + ... + c_{m-1} y^{m-1}; in the noiseless
model its signal roots lie exactly on the unit circle at e^{j*psi_l}.  Roots
are the eigenvalues of the companion matrix (as in ``np.roots``), a
backward-stable method (Edelman & Murakami, Math. Comp. 1995), each polished
by one Newton step on P itself and then checked against a relative residual
bound.  The step and the bound both evaluate P, P' and P's majorant with
``np.polyval`` on one stack of coefficient columns.

Each function takes a stack of polynomials or root sets (one row per trial)
and its ``errors`` list, as every layer does (see ``laoa.linalg``).  The
companion matrices are grouped by effective degree, one ``eigvals`` call per
degree, and the root sets are padded with NaN past each set's own degree.
"""

import numpy as np

from .errors import ConvergenceFailure, NotEnoughRoots
from .linalg import lapack_stack

DEFLATION_TOL = 1e-12      # relative cutoff for stripping tiny leading coefficients
RESIDUAL_TOL = 1e-8        # relative residual every returned root must satisfy


def find_roots(c: np.ndarray, errors: list) -> np.ndarray:
    """All roots of 1 + c_1 y + ... + c_{m-1} y^{m-1} for each row c = (c_1, ..., c_{m-1}) of a stack.

    Near-zero high-order coefficients are stripped first (degree deflation),
    so a row's roots number its effective degree: a T x (m-1) stack gives
    T x (m-1) roots, NaN past each row's degree.  A row gets NotEnoughRoots
    if every coefficient is negligible (the constant 1 has no roots), and
    ConvergenceFailure if the eigenvalue solver fails or a root misses the
    residual bound.
    """
    c = np.asarray(c)
    poly = np.concatenate((np.ones((len(c), 1), dtype=complex), c), axis=1)
    mags = np.abs(poly)
    # written as "not <" so a NaN coefficient is kept and fails in the eigensolver
    kept = ~(mags[:, 1:] < DEFLATION_TOL * mags.max(axis=1, keepdims=True))
    # the effective degree is the index of the last coefficient that is not negligible
    degree = np.where(kept.any(axis=1), kept.shape[1] - np.argmax(kept[:, ::-1], axis=1), 0)
    for i in np.flatnonzero(degree == 0):
        if errors[i] is None:
            errors[i] = NotEnoughRoots("all polynomial coefficients are negligible; no roots exist")

    roots = np.full(c.shape, np.nan + 0j)
    live = np.array([exc is None for exc in errors])
    for d in sorted(set(degree[live].tolist())):  # not np.unique, which imports numpy.ma
        idx = np.flatnonzero(live & (degree == d))
        a = poly[idx, :d + 1]
        # companion matrix of the descending coefficients, built as np.roots builds it
        p = a[:, ::-1]
        companion = np.zeros((len(idx), d, d), dtype=complex)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1
        r = lapack_stack(np.linalg.eigvals, (companion,), errors, idx, "companion-matrix eigenvalues did not converge")
        # np.polyval runs y = y * r + p_k over p's first axis, so p_k can be a column:
        # coefficient k of every row, highest degree first
        coeffs = a.T[::-1, :, None]
        # a NaN row or a failed eigensolve's stand-in divides NaN or 0 here; errors holds its failure
        with np.errstate(divide="ignore", invalid="ignore"):
            # one Newton step on P polishes the eigenvalues to P's own roots; P' has coefficients k * a_k
            r = r - np.polyval(coeffs, r) / np.polyval(coeffs[:-1] * np.arange(d, 0, -1)[:, None, None], r)
            residual = np.abs(np.polyval(coeffs, r))
            # relative to 1 + sum_k |c_k| |y|^k; written as "not <=" so NaN fails too
            bad = ~(residual <= RESIDUAL_TOL * np.polyval(np.abs(coeffs), np.abs(r)))
        for j in np.flatnonzero(bad.any(axis=1)):
            if errors[idx[j]] is None:
                errors[idx[j]] = ConvergenceFailure(f"root {r[j, np.argmax(bad[j])]} fails the residual bound")
        roots[idx, :d] = r
    return roots


def select_unit_roots(roots: np.ndarray, q: int, errors: list) -> np.ndarray:
    """Indices of the q roots whose magnitudes are nearest unity, one row per root set of a stack.

    Ties are broken by the canonical root order (principal angle ascending,
    then magnitude), so the selected VALUES are independent of the input
    ordering.  NaN padding counts as no root and sorts last; a row with
    fewer than q roots gets NotEnoughRoots.
    """
    R = np.asarray(roots, dtype=complex)
    available = np.sum(~np.isnan(R), axis=1)
    for i in np.flatnonzero(available < q):
        if errors[i] is None:
            errors[i] = NotEnoughRoots(f"requested {q} signal roots from {available[i]} available")
    mags = np.abs(R)
    # lexsort's last key is the primary one
    return np.lexsort((mags, np.angle(R), np.abs(mags - 1.0)), axis=-1)[:, :q]


def electrical_angles_from_roots(roots: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Principal arguments in (-pi, pi] of the selected roots, order preserved (per row for stacks)."""
    ang = np.angle(np.take_along_axis(np.asarray(roots, dtype=complex), np.asarray(selected), axis=-1))
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)
