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

from .errors import DegenerateElevation, OutOfRange

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
    electrical_angle : float or 1-D array-like
        Per-element phase increment in radians (psi or xi).  For q angles
        the result is the (m, q) steering matrix, one column per angle.
    m : int
        Number of elements, m >= 2.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return np.exp(1j * np.multiply.outer(np.arange(m), electrical_angle))


def direction_from_electrical(psi: float, xi: float, cfg: ArrayConfig) -> DirectionPair:
    """Invert (psi, xi) back to a physical direction in degrees.

        theta = arccos( psi / (2*pi*d/lambda) )
        phi   = arccos( xi  / (2*pi*(d/lambda)*sin(theta)) )

    Arguments slightly outside [-1, 1] (by at most CLAMP_TOL) are clamped;
    beyond that the pair is inconsistent and OutOfRange is raised.  When
    theta lands within GUARD_DEG of 0 or 180 degrees, sin(theta) is too
    small to recover phi and DegenerateElevation is raised.
    """
    scale = 2.0 * np.pi * cfg.spacing_ratio

    cos_theta = _clamped(psi / scale, "psi")
    theta = np.arccos(cos_theta)

    if np.sin(theta) < np.sin(np.deg2rad(GUARD_DEG)):
        raise DegenerateElevation(
            f"theta = {np.rad2deg(theta):.6g} deg is within {GUARD_DEG} deg of an "
            "array axis; azimuth is undefined"
        )

    cos_phi = _clamped(xi / (scale * np.sin(theta)), "xi")
    phi = np.arccos(cos_phi)
    return DirectionPair(theta=float(np.rad2deg(theta)), phi=float(np.rad2deg(phi)))


def _clamped(x: float, label: str) -> float:
    if not abs(x) <= 1.0 + CLAMP_TOL:  # written as "not <=" so NaN is out of range too
        raise OutOfRange(
            f"arccos argument {x!r} derived from {label} exceeds [-1, 1] "
            f"beyond CLAMP_TOL={CLAMP_TOL}"
        )
    return min(1.0, max(-1.0, x))
