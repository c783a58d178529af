"""2D angle-of-arrival estimation for an L-shaped antenna array.

Polynomial-rooting estimator with a truncated-SVD regularized coefficient
solve, synthetic snapshot generation, and a seeded Monte Carlo harness.
"""

from .array_model import (
    ArrayConfig,
    DirectionPair,
    direction_from_electrical,
    psi_from_direction,
    steering_vector,
    xi_from_direction,
)
from .config import ExperimentConfig, load_config, parse_config, serialize_config
from .estimator import EstimatorMode, StackEstimate, estimate_2d_aoa, pair_and_recover
from .linalg import solve_coeffs, svd
from .matio import read_matrix_file, write_matrix_file
from .montecarlo import MonteCarloReport, monte_carlo, run_trial, trial_seed
from .rooting import electrical_angles_from_roots, find_roots, select_unit_roots
from .synthesis import (
    SignalModel,
    SnapshotMatrix,
    SourceSet,
    Subarray,
    build_lp_system,
    generate_noise,
    generate_sources,
    synthesize,
)

__version__ = "0.1.0"
