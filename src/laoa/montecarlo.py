"""Seeded Monte Carlo experiment runner and CSV reporting.

Every trial gets its own random stream derived from (master seed, SNR index,
trial index) through a splitmix64-style avalanche.  The trials of one SNR
point run in stacks of up to STACK_TRIALS: each stack, one task for the serial
loop or the process pool, synthesizes its trials into one array and
estimates them in one pass (``estimator.estimate_stack``).  A trial's result
depends on neither its stack nor its worker, so the report is byte-identical
for any worker count and any split into stacks.  Estimator failures at low
SNR are counted per SNR point, not raised: the failure rate is itself a
result.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .array_model import steering_vector
from .errors import AoaError
from .config import ExperimentConfig
from .estimator import estimate_stack, permutation_table
from .synthesis import _synthesize_into, separated_angle_sets

# trials per estimator pass and per pool task; the gain from stacking levels off here
STACK_TRIALS = 10
# snapshot bytes per stack, which the QR holds twice; a long trial has little per-call cost to spread
STACK_BYTES = 1 << 20

CSV_HEADER = "snr_db,source_index,rmse_theta_deg,rmse_phi_deg,bias_theta_deg,bias_phi_deg,failure_count,trials"

# splitmix64 avalanche constants; part of the external seeding contract.
_MASK = (1 << 64) - 1
MIX_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * MIX_MULT_1) & _MASK
    x = ((x ^ (x >> 27)) * MIX_MULT_2) & _MASK
    return x ^ (x >> 31)


def trial_seed(seed: int, snr_index: int, trial_index: int) -> int:
    """Per-trial stream seed: two chained splitmix64 avalanche steps."""
    s = splitmix64((seed + MIX_GAMMA * (snr_index + 1)) & _MASK)
    return splitmix64((s + MIX_GAMMA * (trial_index + 1)) & _MASK)


@dataclass(frozen=True)
class TrialResult:
    theta_errors: tuple[float, ...] | None  # None on failure
    phi_errors: tuple[float, ...] | None
    failure: str | None = None


@dataclass(frozen=True)
class MonteCarloReport:
    rows: tuple[dict, ...]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                ",".join(
                    [
                        repr(row["snr_db"]),
                        str(row["source_index"]),
                        "" if row["rmse_theta_deg"] is None else repr(row["rmse_theta_deg"]),
                        "" if row["rmse_phi_deg"] is None else repr(row["rmse_phi_deg"]),
                        "" if row["bias_theta_deg"] is None else repr(row["bias_theta_deg"]),
                        "" if row["bias_phi_deg"] is None else repr(row["bias_phi_deg"]),
                        str(row["failure_count"]),
                        str(row["trials"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _match_to_truth(est_sources, truth) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # assign estimates to ground-truth sources by minimum total angular error;
    # cost[l, j] is the error of estimate j against source l, and ties go to
    # the first permutation in itertools order
    q = len(truth)
    est_theta = np.array([s.theta_deg for s in est_sources])
    est_phi = np.array([s.phi_deg for s in est_sources])
    cost = np.abs(est_theta - np.array([[t.theta] for t in truth])) + np.abs(
        est_phi - np.array([[t.phi] for t in truth])
    )
    table = permutation_table(q)
    best = table[np.argmin(cost[np.arange(q), table].sum(axis=1))]
    theta_err = tuple(est_sources[j].theta_deg - t.theta for j, t in zip(best, truth))
    phi_err = tuple(est_sources[j].phi_deg - t.phi for j, t in zip(best, truth))
    return theta_err, phi_err


def run_trials(cfg: ExperimentConfig, snr_db: float, snr_index: int, trials: range) -> list[TrialResult]:
    """Trials of one SNR point as one stack: estimator errors become failure records.

    Each trial is synthesized on its own stream straight into its slice of
    one T x 2m x M stack, which ``estimate_stack`` runs in one pass; each
    result is exactly the one the trial gets alone.  The source angles and
    steering matrices depend only on the config, so the stack builds them
    once; each slice holds exactly the data ``synthesize`` gives its stream.
    """
    sigma2 = cfg.noise_variance(snr_db)
    src, array = cfg.source_set(), cfg.array_config()
    psis, xis = separated_angle_sets(src, array)
    A_z, A_x = steering_vector(psis, cfg.m), steering_vector(xis, cfg.m)
    Y = np.empty((len(trials), 2 * cfg.m, cfg.M), dtype=complex)
    for y, trial_index in zip(Y, trials):
        _synthesize_into(y, A_z, A_x, src, sigma2, np.random.default_rng(trial_seed(cfg.seed, snr_index, trial_index)))
    return [
        TrialResult(None, None, failure=type(est).__name__)
        if isinstance(est, AoaError)
        else TrialResult(*_match_to_truth(est.sources, cfg.sources))
        for est in estimate_stack(Y, cfg.q, array, cfg.mode)
    ]


def run_trial(cfg: ExperimentConfig, snr_db: float, snr_index: int, trial_index: int) -> TrialResult:
    """One synthesis + estimation trial: a stack of one."""
    (result,) = run_trials(cfg, snr_db, snr_index, range(trial_index, trial_index + 1))
    return result


def _run_trials_star(args):
    return run_trials(*args)


def default_workers() -> int:
    """Worker count from ``AOA_THREADS`` (default 1), capped at the CPU count.

    With the ``fork`` start method the pool starts every worker at the first
    task, so an uncapped value would fork that many processes.
    """
    env = os.environ.get("AOA_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"AOA_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ValueError("AOA_THREADS must be >= 1")
        return min(n, os.cpu_count() or 1)
    return 1


def monte_carlo(cfg: ExperimentConfig, workers: int | None = None) -> MonteCarloReport:
    """Run trials x SNR points and aggregate RMSE/bias per source per SNR.

    Each task is a stack of up to STACK_TRIALS trials of one SNR point,
    fewer where their snapshots would exceed STACK_BYTES.
    Each trial seeds its own stream and both the serial loop and
    ``pool.map`` return the stacks in task order, so any worker count yields
    the same report.
    """
    if workers is None:
        workers = default_workers()
    per_stack = max(1, min(STACK_TRIALS, STACK_BYTES // (2 * cfg.m * cfg.M * np.dtype(complex).itemsize)))
    tasks = [
        (cfg, snr_db, si, range(start, min(start + per_stack, cfg.trials)))
        for si, snr_db in enumerate(cfg.snr_db_list)
        for start in range(0, cfg.trials, per_stack)
    ]
    if workers == 1:
        stacks = [_run_trials_star(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stacks = list(pool.map(_run_trials_star, tasks))
    results = [r for stack in stacks for r in stack]

    rows = []
    for si, snr_db in enumerate(cfg.snr_db_list):
        trials = results[si * cfg.trials:(si + 1) * cfg.trials]
        ok = [t for t in trials if t.failure is None]
        failures = len(trials) - len(ok)
        for source_index in range(cfg.q):
            if ok:
                te = np.array([t.theta_errors[source_index] for t in ok])
                pe = np.array([t.phi_errors[source_index] for t in ok])
                row = {
                    "rmse_theta_deg": float(np.sqrt(np.mean(te**2))),
                    "rmse_phi_deg": float(np.sqrt(np.mean(pe**2))),
                    "bias_theta_deg": float(np.mean(te)),
                    "bias_phi_deg": float(np.mean(pe)),
                }
            else:
                # AllTrialsFailed: emit the row with empty statistics
                row = {
                    "rmse_theta_deg": None,
                    "rmse_phi_deg": None,
                    "bias_theta_deg": None,
                    "bias_phi_deg": None,
                }
            row.update(
                snr_db=snr_db,
                source_index=source_index,
                failure_count=failures,
                trials=cfg.trials,
            )
            rows.append(row)

    rows.sort(key=lambda r: (r["snr_db"], r["source_index"]))
    return MonteCarloReport(rows=tuple(rows))
