"""L-shaped array geometry and electrical-angle mappings.

The array consists of two orthogonal uniform linear subarrays along the Z
and X axes, each with its first element at the origin.  The model samples
that corner once per subarray, each time with its own noise, as two
co-located elements would, so it has 2m elements.  A far-field source at
(theta, phi) induces a per-element phase increment on each subarray:

    psi = 2*pi*(d/lambda)*cos(theta)              (Z-subarray)
    xi  = 2*pi*(d/lambda)*sin(theta)*cos(phi)     (X-subarray)

``electrical_angles`` is this mapping on arrays and ``directions_from_electrical``
its inverse on a T x q stack; the scalar functions are stacks of one over
them.  Angles are degrees at the API boundary and radians internally.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AoaError, DegenerateElevation, OutOfRange, raise_first

CLAMP_TOL = 1e-9  # arccos arguments this far past [-1, 1] are clamped, not rejected
GUARD_DEG = 1.0   # theta this close to 0 or 180 degrees leaves phi undefined (near_z_axis)


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of one L-shaped array.

    Parameters
    ----------
    m : int
        Elements per subarray.  Both subarrays start at the corner, and each
        samples it with its own noise, so the model has 2m elements, not the
        2m - 1 of an L whose corner element is shared.
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


def near_z_axis(theta_deg: float | np.ndarray) -> bool | np.ndarray:
    """Whether theta (degrees) lies within GUARD_DEG of the Z axis, where phi is undefined.

    The angle is measured to the nearer pole, min(theta, 180 - theta), so
    the guard is symmetric about 90 degrees; a test on sin(theta) is not, as
    sin(179 deg) < sin(1 deg) in floating point.  Elementwise for arrays.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    return np.minimum(theta_deg, 180.0 - theta_deg) < GUARD_DEG


def electrical_angles(directions, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (psi, xi) of a sequence of directions: two arrays, one entry per direction."""
    theta = np.deg2rad([d.theta for d in directions])
    phi = np.deg2rad([d.phi for d in directions])
    scale = 2.0 * np.pi * cfg.spacing_ratio
    return scale * np.cos(theta), scale * np.sin(theta) * np.cos(phi)


def psi_from_direction(direction: DirectionPair, cfg: ArrayConfig) -> float:
    """Electrical angle of the Z-subarray: ``electrical_angles`` on a stack of one."""
    return electrical_angles([direction], cfg)[0][0]


def xi_from_direction(direction: DirectionPair, cfg: ArrayConfig) -> float:
    """Electrical angle of the X-subarray: ``electrical_angles`` on a stack of one."""
    return electrical_angles([direction], cfg)[1][0]


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
    cos_theta = psi[live] / scale
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    theta_deg = np.rad2deg(theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # sin(theta) = 0 only where the guard fails
        cos_phi = xi[live] / (scale * np.sin(theta))
    # per pair, whether it fails each check, in the order the scalar mapping runs them;
    # written as "not <=" so a NaN argument fails its clamp
    clamp = 1.0 + CLAMP_TOL
    fails = np.stack([~(np.abs(cos_theta) <= clamp), near_z_axis(theta_deg), ~(np.abs(cos_phi) <= clamp)])
    failed = fails.any(axis=0)
    ok = ~failed.any(axis=1)
    for row in np.flatnonzero(~ok):
        pair = np.argmax(failed[row])
        check = np.argmax(fails[:, row, pair])
        errors[live[row]] = _failure(check, cos_theta[row, pair], theta_deg[row, pair], cos_phi[row, pair])

    out_theta, out_phi = np.full(psi.shape, np.nan), np.full(psi.shape, np.nan)
    out_theta[live[ok]] = theta_deg[ok]
    out_phi[live[ok]] = np.rad2deg(np.arccos(np.clip(cos_phi[ok], -1.0, 1.0)))
    return out_theta, out_phi


def _failure(check: int, cos_theta: float, theta_deg: float, cos_phi: float) -> AoaError:
    # the exception of a pair whose first failing check is `check` (0 psi clamp, 1 guard, 2 xi
    # clamp); float() keeps numpy reprs such as np.float64(...) out of the message
    if check == 1:
        return DegenerateElevation(
            f"theta = {float(theta_deg):.6g} deg is within {GUARD_DEG} deg of an "
            "array axis; azimuth is undefined"
        )
    x, label = (cos_theta, "psi") if check == 0 else (cos_phi, "xi")
    return OutOfRange(f"arccos argument {float(x)!r} derived from {label} exceeds [-1, 1] beyond CLAMP_TOL={CLAMP_TOL}")
