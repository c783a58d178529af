"""Synthetic snapshot generation and linear-prediction system assembly.

Builds the two data matrices

    Z = A_z S + N_z        X = A_x S + N_x

where the steering matrices share one common source matrix S, the noise is
circular complex AWGN, and rearranges one subarray's sensor columns into the
overdetermined linear-prediction system P C = P1.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import ArrayConfig, DirectionPair, psi_from_direction, xi_from_direction, steering_vector
from .errors import UnsupportedScenario

MIN_ELECTRICAL_SEPARATION = 0.1  # radians, circular distance


class SignalModel(Enum):
    UNIT_POWER_RANDOM_PHASE = "unit_power_random_phase"
    QPSK = "qpsk"


class Subarray(Enum):
    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class SourceSet:
    """Ground-truth source directions plus the source-sample model."""

    directions: tuple[DirectionPair, ...]
    signal_model: SignalModel = SignalModel.UNIT_POWER_RANDOM_PHASE
    power: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.directions) < 1:
            raise ValueError("need at least one source")
        if self.power < 0:
            raise ValueError("power must be >= 0")

    @property
    def q(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex m x M matrix of sensor outputs for one subarray."""

    data: np.ndarray
    subarray: Subarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] < 1:
            raise ValueError(f"snapshot matrix must be m x M with m >= 2, M >= 1, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("snapshot matrix contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def snapshots(self) -> int:
        return self.data.shape[1]


def generate_sources(src: SourceSet, snapshots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the q x M source-sample matrix S.

    Rows are independent; each sample has E|s|^2 = power.  The random-phase
    model draws sqrt(power) * e^{jU} with U uniform on [0, 2pi); QPSK draws
    uniformly from the four rotated constellation points.
    """
    q = src.q
    if snapshots < q:
        raise UnsupportedScenario(f"need M >= q for full-rank S, got M={snapshots}, q={q}")
    amp = np.sqrt(src.power)
    if src.signal_model is SignalModel.UNIT_POWER_RANDOM_PHASE:
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(q, snapshots))
    else:
        phase = np.pi / 4 + (np.pi / 2) * rng.integers(0, 4, size=(q, snapshots))
    return amp * np.exp(1j * phase)


def generate_noise(m: int, snapshots: int, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circular complex Gaussian noise, E[n n^H] = sigma2 * I.

    Real and imaginary parts are independent N(0, sigma2/2), which also
    forces the pseudo-covariance E[n n^T] to vanish.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    if sigma2 == 0.0:
        return np.zeros((m, snapshots), dtype=complex)
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal((m, snapshots)) + 1j * rng.standard_normal((m, snapshots)))


def electrical_angle_sets(src: SourceSet, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-source (psi, xi) arrays for a given geometry."""
    psis = np.array([psi_from_direction(d, cfg) for d in src.directions])
    xis = np.array([xi_from_direction(d, cfg) for d in src.directions])
    return psis, xis


def _check_separation(values: np.ndarray, label: str) -> None:
    # circular distance on (-pi, pi]: the steering roots live on the unit circle
    for i in range(len(values)):
        for k in range(i + 1, len(values)):
            delta = abs(values[i] - values[k]) % (2.0 * np.pi)
            delta = min(delta, 2.0 * np.pi - delta)
            if delta < MIN_ELECTRICAL_SEPARATION:
                raise UnsupportedScenario(
                    f"sources {i} and {k} have {label} separated by only {delta:.4g} rad "
                    f"(< {MIN_ELECTRICAL_SEPARATION}); steering matrix would be near rank-deficient"
                )


def separated_angle_sets(src: SourceSet, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-source (psi, xi) arrays, checked for MIN_ELECTRICAL_SEPARATION.

    Raises
    ------
    UnsupportedScenario
        If two sources are closer than MIN_ELECTRICAL_SEPARATION in psi or in xi.
    """
    psis, xis = electrical_angle_sets(src, cfg)
    _check_separation(psis, "psi")
    _check_separation(xis, "xi")
    return psis, xis


def synthesize(
    src: SourceSet,
    cfg: ArrayConfig,
    snapshots: int,
    sigma2: float,
    rng: np.random.Generator,
) -> tuple[SnapshotMatrix, SnapshotMatrix, np.ndarray]:
    """Generate (Z, X, S) for one noise realization.

    Both subarrays observe the same source matrix S; the noise draws are
    independent.  S is returned so tests can use it as an oracle.
    """
    psis, xis = separated_angle_sets(src, cfg)

    S = generate_sources(src, snapshots, rng)
    A_z = steering_vector(psis, cfg.m)
    A_x = steering_vector(xis, cfg.m)
    Z = A_z @ S + generate_noise(cfg.m, snapshots, sigma2, rng)
    X = A_x @ S + generate_noise(cfg.m, snapshots, sigma2, rng)
    return (
        SnapshotMatrix(Z, Subarray.Z),
        SnapshotMatrix(X, Subarray.X),
        S,
    )


def build_lp_system(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rearrange a block with one column per sensor into P C = P1 (no arithmetic beyond negation).

    For raw data B is the snapshot matrix transposed (M x m): row k of P is
    [z_2(t_k), ..., z_m(t_k)] and entry k of P1 is -z_1(t_k).  The estimator
    passes the subarray's columns of the triangular factor of the stacked
    data instead, which gives the same coefficients.  P is a view of B; the
    row-count rule M >= m - 1 is ``estimator.check_scenario``'s.
    """
    return B[:, 1:], -B[:, 0]
