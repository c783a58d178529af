"""L-shaped array geometry and electrical-angle mappings.

The array consists of two orthogonal uniform linear subarrays along the Z
and X axes, sharing the corner element at the origin.  A far-field source at
(theta, phi) induces a per-element phase increment on each subarray:

    psi = 2*pi*(d/lambda)*cos(theta)              (Z-subarray)
    xi  = 2*pi*(d/lambda)*sin(theta)*cos(phi)     (X-subarray)

Angles are degrees at the API boundary and radians internally.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AoaError, DegenerateElevation, OutOfRange, raise_first

CLAMP_TOL = 1e-9  # arccos arguments this far past [-1, 1] are clamped, not rejected
GUARD_DEG = 1.0   # theta this close to 0 or 180 degrees leaves phi undefined


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of one L-shaped array.

    Parameters
    ----------
    m : int
        Elements per subarray (the corner element is shared, so the physical
        array has 2m - 1 elements).
    spacing_ratio : float
        Inter-element spacing in wavelengths, d/lambda.  Capped at 0.5 to
        rule out spatial aliasing.
    """

    m: int
    spacing_ratio: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 elements per subarray, got m={self.m}")
        if not (0.0 < self.spacing_ratio <= 0.5):
            raise ValueError(
                f"spacing_ratio must be in (0, 0.5], got {self.spacing_ratio}"
            )


@dataclass(frozen=True)
class DirectionPair:
    """A physical source direction in degrees.

    theta is the incidence (elevation) angle measured from the Z axis,
    strictly inside (0, 180).  phi is the azimuth from the X axis in
    [0, 180]; azimuths outside that range are indistinguishable from their
    reflection about the XZ plane and are rejected.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 < self.theta < 180.0):
            raise ValueError(f"theta must be strictly inside (0, 180), got {self.theta}")
        if not (0.0 <= self.phi <= 180.0):
            raise ValueError(f"phi must be in [0, 180], got {self.phi}")


def psi_from_direction(direction: DirectionPair, cfg: ArrayConfig) -> float:
    """Electrical angle of the Z-subarray: 2*pi*(d/lambda)*cos(theta)."""
    return 2.0 * np.pi * cfg.spacing_ratio * np.cos(np.deg2rad(direction.theta))


def xi_from_direction(direction: DirectionPair, cfg: ArrayConfig) -> float:
    """Electrical angle of the X-subarray: 2*pi*(d/lambda)*sin(theta)*cos(phi)."""
    t = np.deg2rad(direction.theta)
    p = np.deg2rad(direction.phi)
    return 2.0 * np.pi * cfg.spacing_ratio * np.sin(t) * np.cos(p)


def steering_vector(electrical_angle: float | np.ndarray, m: int) -> np.ndarray:
    """Unit-modulus steering vector [1, e^{j*a}, ..., e^{j*(m-1)*a}].

    Parameters
    ----------
    electrical_angle : float, 1-D or 2-D array-like
        Per-element phase increment in radians (psi or xi).  For q angles
        the result is the (m, q) steering matrix, one column per angle; a
        T x q stack of angle sets gives the T x m x q stack of matrices.
    m : int
        Number of elements, m >= 2.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    a = np.asarray(electrical_angle, dtype=float)
    phase = np.multiply.outer(np.arange(m), a) if a.ndim < 2 else np.arange(m)[:, None] * a[:, None, :]
    return np.exp(1j * phase)


def direction_from_electrical(psi: float, xi: float, cfg: ArrayConfig) -> DirectionPair:
    """Invert (psi, xi) back to a physical direction in degrees.

        theta = arccos( psi / (2*pi*d/lambda) )
        phi   = arccos( xi  / (2*pi*(d/lambda)*sin(theta)) )

    Arguments slightly outside [-1, 1] (by at most CLAMP_TOL) are clamped;
    beyond that the pair is inconsistent and OutOfRange is raised.  When
    theta lands within GUARD_DEG of 0 or 180 degrees, sin(theta) is too
    small to recover phi and DegenerateElevation is raised.  A stack of one
    for ``directions_from_electrical``.
    """
    errors = [None]
    theta, phi = directions_from_electrical(np.array([[psi]], dtype=float), np.array([[xi]], dtype=float), cfg, errors)
    raise_first(errors)
    return DirectionPair(theta=float(theta[0, 0]), phi=float(phi[0, 0]))


def directions_from_electrical(
    psi: np.ndarray, xi: np.ndarray, cfg: ArrayConfig, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """``direction_from_electrical`` over a T x q stack of pairs: (theta, phi) in degrees, T x q each.

    Row t holds trial t's q (psi, xi) pairs.  Each pair meets the checks in
    the order the scalar mapping runs them: the psi clamp, the elevation
    guard, then the xi clamp.  A trial whose slot in ``errors`` (see
    ``laoa.linalg``) is already set is not mapped; otherwise the first pair
    of its row that fails a check sets the slot to the exception that pair
    raises alone.  Every row not mapped reads NaN.
    """
    scale = 2.0 * np.pi * cfg.spacing_ratio
    live = np.flatnonzero([exc is None for exc in errors])
    shape = (len(live), psi.shape[1])
    # flat over the live rows; each check sees only the pairs that passed the ones before
    cos_theta = psi[live].reshape(-1) / scale
    theta, sin_theta, cos_phi, phi = (np.full(cos_theta.shape, np.nan) for _ in range(4))
    clamped = np.flatnonzero(np.abs(cos_theta) <= 1.0 + CLAMP_TOL)
    theta[clamped] = np.arccos(np.clip(cos_theta[clamped], -1.0, 1.0))
    sin_theta[clamped] = np.sin(theta[clamped])
    guarded = clamped[~(sin_theta[clamped] < np.sin(np.deg2rad(GUARD_DEG)))]
    cos_phi[guarded] = xi[live].reshape(-1)[guarded] / (scale * sin_theta[guarded])
    mapped = guarded[np.abs(cos_phi[guarded]) <= 1.0 + CLAMP_TOL]
    phi[mapped] = np.arccos(np.clip(cos_phi[mapped], -1.0, 1.0))

    # checks passed per pair: 0 fails the psi clamp, 1 the guard, 2 the xi clamp, 3 maps
    passed = np.zeros(cos_theta.shape, dtype=np.intp)
    passed[clamped], passed[guarded], passed[mapped] = 1, 2, 3
    passed = passed.reshape(shape)
    failed = passed < 3
    first = np.argmax(failed, axis=1)
    for row in np.flatnonzero(failed.any(axis=1)):
        i = row * shape[1] + first[row]
        errors[live[row]] = _failure(passed[row, first[row]], cos_theta[i], theta[i], cos_phi[i])

    ok = ~failed.any(axis=1)
    theta_deg, phi_deg = np.full(psi.shape, np.nan), np.full(psi.shape, np.nan)
    theta_deg[live[ok]] = np.rad2deg(theta.reshape(shape)[ok])
    phi_deg[live[ok]] = np.rad2deg(phi.reshape(shape)[ok])
    return theta_deg, phi_deg


def _failure(passed: int, cos_theta: float, theta: float, cos_phi: float) -> AoaError:
    # the exception of a pair that passed `passed` checks; numbers go through
    # float() so that no numpy repr such as np.float64(...) reaches the message
    if passed == 1:
        return DegenerateElevation(
            f"theta = {float(np.rad2deg(theta)):.6g} deg is within {GUARD_DEG} deg of an "
            "array axis; azimuth is undefined"
        )
    x, label = (cos_theta, "psi") if passed == 0 else (cos_phi, "xi")
    return OutOfRange(f"arccos argument {float(x)!r} derived from {label} exceeds [-1, 1] beyond CLAMP_TOL={CLAMP_TOL}")
