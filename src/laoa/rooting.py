"""Roots of the prediction polynomial and signal-root selection.

The polynomial is P(y) = 1 + c_1 y + ... + c_{m-1} y^{m-1}; in the noiseless
model its signal roots lie exactly on the unit circle at e^{j*psi_l}.  Roots
are the eigenvalues of the companion matrix (``np.roots``), a backward-stable
method (Edelman & Murakami, Math. Comp. 1995), each polished by one Newton
step on P itself and then checked against a relative residual bound.
"""

import numpy as np

from .errors import ConvergenceFailure, NotEnoughRoots

DEFLATION_TOL = 1e-12      # relative cutoff for stripping tiny leading coefficients
RESIDUAL_TOL = 1e-8        # relative residual every returned root must satisfy


def find_roots(c: np.ndarray) -> np.ndarray:
    """All roots of 1 + c_1 y + ... + c_{m-1} y^{m-1}, given c = (c_1, ..., c_{m-1}).

    Near-zero high-order coefficients are stripped first (degree deflation),
    so the returned array has length equal to the effective degree.

    Raises
    ------
    NotEnoughRoots
        If every coefficient is negligible (the constant 1 has no roots).
    ConvergenceFailure
        If the eigenvalue solver fails or a root misses the residual bound.
    """
    poly = np.concatenate(([1.0 + 0j], c))
    scale = np.max(np.abs(poly))
    degree = len(poly) - 1
    while degree > 0 and abs(poly[degree]) < DEFLATION_TOL * scale:
        degree -= 1
    if degree == 0:
        raise NotEnoughRoots("all polynomial coefficients are negligible; no roots exist")
    poly = poly[: degree + 1]

    try:
        roots = np.roots(poly[::-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"companion-matrix eigenvalues did not converge: {exc}") from exc
    # one Newton step on P polishes the eigenvalues to P's own roots
    p, dp = _horner(poly, roots)
    roots = roots - p / dp

    residual = np.abs(np.polyval(poly[::-1], roots))
    # relative to 1 + sum_k |c_k| |y|^k; written as "not <=" so NaN fails too
    bad = ~(residual <= RESIDUAL_TOL * np.polyval(np.abs(poly[::-1]), np.abs(roots)))
    if np.any(bad):
        raise ConvergenceFailure(f"root {roots[np.argmax(bad)]} fails the residual bound")
    return roots


def _horner(poly: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # value and derivative at every y at once, coefficients in ascending order
    p = np.zeros_like(y)
    dp = np.zeros_like(y)
    for a in poly[::-1]:
        dp = dp * y + p
        p = p * y + a
    return p, dp


def select_unit_roots(roots: np.ndarray, q: int) -> np.ndarray:
    """Indices of the q roots whose magnitudes are nearest unity.

    Ties are broken by the canonical root order (principal angle ascending,
    then magnitude), so the selected VALUES are independent of the input
    ordering.
    """
    roots = np.asarray(roots, dtype=complex)
    if q > len(roots):
        raise NotEnoughRoots(f"requested {q} signal roots from {len(roots)} available")
    mags = np.abs(roots)
    # lexsort's last key is the primary one
    return np.lexsort((mags, np.angle(roots), np.abs(mags - 1.0)))[:q]


def electrical_angles_from_roots(roots: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Principal arguments in (-pi, pi] of the selected roots, order preserved."""
    ang = np.angle(np.asarray(roots, dtype=complex)[selected])
    return np.where(ang <= -np.pi, ang + 2.0 * np.pi, ang)
