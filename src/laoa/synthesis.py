"""Synthetic snapshot generation and linear-prediction system assembly.

Builds the two data matrices

    Z = A_z S + N_z        X = A_x S + N_x

where the steering matrices share one common source matrix S, the noise is
circular complex AWGN, and rearranges one subarray's sensor columns into the
overdetermined linear-prediction system P C = P1.

Synthesis runs on a stack of trials, each on its own random stream: only
the draws run per trial, in the seeding contract's order (S's phases, then
Z's real and imaginary noise, then X's), and the phase scaling, ``exp``,
the steering products and the noise scaling and adds run once for the
stack, with the sources' (psi, xi) from ``array_model.electrical_angles``.
``synthesize`` is a stack of one, and each trial of a stack holds exactly
what ``synthesize`` gives its stream; ``generate_sources`` and
``generate_noise`` draw the same streams one matrix at a time.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import ArrayConfig, DirectionPair, electrical_angles, steering_vector
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

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.directions) < 1:
            raise ValueError("need at least one source")

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

    Rows are independent; each sample has unit modulus, so E|s|^2 = 1.  The
    random-phase model draws e^{jU} with U uniform on [0, 2pi); QPSK draws
    uniformly from the four rotated constellation points.
    """
    q = src.q
    _check_snapshots(q, snapshots)
    if src.signal_model is SignalModel.UNIT_POWER_RANDOM_PHASE:
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(q, snapshots))
    else:
        phase = np.pi / 4 + (np.pi / 2) * rng.integers(0, 4, size=(q, snapshots))
    return np.exp(1j * phase)


def _check_snapshots(q: int, snapshots: int) -> None:
    if snapshots < q:
        raise UnsupportedScenario(f"need M >= q for full-rank S, got M={snapshots}, q={q}")


def generate_noise(m: int, snapshots: int, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circular complex Gaussian noise, E[n n^H] = sigma2 * I.

    Real and imaginary parts are independent N(0, sigma2/2), which also
    forces the pseudo-covariance E[n n^T] to vanish.
    """
    scale = _noise_scale(sigma2)
    if scale == 0.0:
        return np.zeros((m, snapshots), dtype=complex)
    return scale * (rng.standard_normal((m, snapshots)) + 1j * rng.standard_normal((m, snapshots)))


def _noise_scale(sigma2: float) -> float:
    # the standard deviation sqrt(sigma2 / 2) of each real part; it is 0.0 only at
    # sigma2 = 0 (or -0.0), which draws nothing from the stream; "not" rejects NaN too
    if not 0 <= sigma2 < np.inf:
        raise ValueError(f"sigma2 must be >= 0 and finite, got {sigma2}")
    return 0.0 if sigma2 == 0.0 else np.sqrt(sigma2 / 2.0)


def separated_angle_sets(src: SourceSet, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-source (psi, xi) arrays, checked for MIN_ELECTRICAL_SEPARATION.

    Every pair's circular distance on (-pi, pi] is taken at once; the first
    pair i < k too close is reported, psi's before xi's, in row order.

    Raises
    ------
    UnsupportedScenario
        If two sources are closer than MIN_ELECTRICAL_SEPARATION in psi or in xi.
    """
    angles = np.array(electrical_angles(src.directions, cfg))
    delta = np.abs(angles[:, :, None] - angles[:, None, :]) % (2.0 * np.pi)
    delta = np.minimum(delta, 2.0 * np.pi - delta)
    close = np.argwhere(np.triu(delta < MIN_ELECTRICAL_SEPARATION, 1))
    if len(close):
        label, i, k = close[0]
        raise UnsupportedScenario(
            f"sources {i} and {k} have {('psi', 'xi')[label]} separated by only {delta[label, i, k]:.4g} rad "
            f"(< {MIN_ELECTRICAL_SEPARATION}); steering matrix would be near rank-deficient"
        )
    return angles[0], angles[1]


def synthesize(
    src: SourceSet,
    cfg: ArrayConfig,
    snapshots: int,
    sigma2: float,
    rng: np.random.Generator,
) -> tuple[SnapshotMatrix, SnapshotMatrix, np.ndarray]:
    """Generate (Z, X, S) for one noise realization: a stack of one.

    Both subarrays observe the same source matrix S; the noise draws are
    independent.  S is returned so tests can use it as an oracle.  Z and X
    are the two halves of one new 2m x M array, [Z; X].  It checks what an
    ``ExperimentConfig`` checks for a Monte Carlo stack: separation, M >= q.
    """
    separated_angle_sets(src, cfg)
    _check_snapshots(src.q, snapshots)
    Y, S = _synthesize_stack(src, cfg, snapshots, [sigma2], [rng])
    return SnapshotMatrix(Y[0, :cfg.m], Subarray.Z), SnapshotMatrix(Y[0, cfg.m:], Subarray.X), S[0]


def _synthesize_stack(
    src: SourceSet, cfg: ArrayConfig, snapshots: int, sigma2, rngs
) -> tuple[np.ndarray, np.ndarray]:
    # T trials at once, trial t at noise variance sigma2[t] on stream rngs[t]: returns Y
    # (T x 2m x M), trial t's [Z; X], and S (T x q x M).  Only the draws run per trial, each
    # into its slice of a stack buffer in the seeding contract's order: S's phases, then
    # Z's real and imaginary noise, then X's, the streams generate_sources and
    # generate_noise draw (rng.uniform(0, 2 pi) is 2 pi times rng.random).  The phase
    # scaling, exp, the two matmuls, the noise scaling and the adds to the real and
    # imaginary views of Y then run once for the stack.  A trial at sigma2 = 0 draws no
    # noise and adds zeros, as generate_noise's zeros do: -0.0 becomes +0.0.  The sources'
    # separation and M >= q are the caller's to check
    psis, xis = electrical_angles(src.directions, cfg)
    q, m = src.q, cfg.m
    scales = [_noise_scale(s) for s in sigma2]
    T = len(scales)
    qpsk = src.signal_model is SignalModel.QPSK
    phase = np.empty((T, q, snapshots), dtype=np.int64 if qpsk else float)
    noise = np.empty((T, 2, 2, m, snapshots))  # (Z, X) x (real, imaginary) per trial
    for draw, parts, scale, rng in zip(phase, noise, scales, rngs, strict=True):
        if qpsk:
            draw[...] = rng.integers(0, 4, size=(q, snapshots))
        else:
            rng.random(out=draw)
        if scale == 0.0:
            parts.fill(0.0)
        else:
            rng.standard_normal(out=parts)
    if qpsk:
        phase = np.pi / 4 + (np.pi / 2) * phase
    else:
        phase *= 2.0 * np.pi
    S = 1j * phase
    del phase
    np.exp(S, out=S)
    Y = np.empty((T, 2 * m, snapshots), dtype=complex)
    np.matmul(steering_vector(psis, m), S, out=Y[:, :m])
    np.matmul(steering_vector(xis, m), S, out=Y[:, m:])
    noise *= np.array(scales)[:, None, None, None, None]
    halves = Y.reshape(T, 2, m, snapshots)
    halves.real += noise[:, :, 0]
    halves.imag += noise[:, :, 1]
    return Y, S


def build_lp_system(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rearrange a block with one column per sensor into P C = P1 (no arithmetic beyond negation).

    For raw data B is the snapshot matrix transposed (M x m): row k of P is
    [z_2(t_k), ..., z_m(t_k)] and entry k of P1 is -z_1(t_k).  The estimator
    passes the subarray's columns of the triangular factor of the stacked
    data instead, which gives the same coefficients.  A stack of blocks gives
    a stack of systems.  P is a view of B; the row-count rule M >= m - 1 is
    ``estimator.check_scenario``'s.
    """
    return B[..., 1:], -B[..., 0]
