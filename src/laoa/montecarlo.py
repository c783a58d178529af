"""Seeded Monte Carlo experiment runner and CSV reporting.

Every trial gets its own random stream derived from (master seed, SNR index,
trial index) through a splitmix64-style avalanche.  The trials of one SNR
point run in stacks of up to STACK_TRIALS: each stack, one task for the serial
loop or the process pool, synthesizes its trials into one array and
estimates them in one pass (``estimator.estimate_stack``).  It stays arrays
to the end: the stack's estimates are matched to the true sources in one
pass over all permutations, and a task returns T x q arrays of theta and phi
errors plus each trial's failure class name.  ``monte_carlo`` joins the
tasks' arrays and reduces each source's column at each SNR point under a
mask of the trials that did not fail.  A trial's result depends on neither
its stack nor its worker, so the report is byte-identical for any worker
count and any split into stacks.  Estimator failures at low SNR are counted
per SNR point, not raised: the failure rate is itself a result.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .array_model import steering_vector
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


def _match_to_truth(theta_deg: np.ndarray, phi_deg: np.ndarray, truth) -> tuple[np.ndarray, np.ndarray]:
    # assign each trial's estimates (T x q) to the ground-truth sources by
    # minimum total angular error and return the T x q errors in truth order;
    # cost[t, l, j] is the error of estimate j against source l, and ties go
    # to the first permutation in itertools order
    q = len(truth)
    true_theta = np.array([t.theta for t in truth])
    true_phi = np.array([t.phi for t in truth])
    cost = np.abs(theta_deg[:, None, :] - true_theta[:, None]) + np.abs(phi_deg[:, None, :] - true_phi[:, None])
    table = permutation_table(q)
    best = table[np.argmin(cost[:, np.arange(q), table].sum(axis=2), axis=1)]
    return (
        np.take_along_axis(theta_deg, best, axis=1) - true_theta,
        np.take_along_axis(phi_deg, best, axis=1) - true_phi,
    )


def run_trials(
    cfg: ExperimentConfig, snr_db: float, snr_index: int, trials: range
) -> tuple[np.ndarray, np.ndarray, list]:
    """Trials of one SNR point as one stack: their angle errors and failures.

    Each trial is synthesized on its own stream straight into its slice of
    one T x 2m x M stack, which ``estimate_stack`` runs in one pass; each
    result is exactly the one the trial gets alone.  The source angles and
    steering matrices depend only on the config, so the stack builds them
    once; each slice holds exactly the data ``synthesize`` gives its stream.

    Returns the theta and phi errors in degrees (T x q, source l of the
    config in column l; NaN rows for failed trials) and, per trial, the
    class name of the estimator error it fails with, or None.
    """
    sigma2 = cfg.noise_variance(snr_db)
    src, array = cfg.source_set(), cfg.array_config()
    psis, xis = separated_angle_sets(src, array)
    A_z, A_x = steering_vector(psis, cfg.m), steering_vector(xis, cfg.m)
    Y = np.empty((len(trials), 2 * cfg.m, cfg.M), dtype=complex)
    for y, trial_index in zip(Y, trials):
        _synthesize_into(y, A_z, A_x, src, sigma2, np.random.default_rng(trial_seed(cfg.seed, snr_index, trial_index)))
    est = estimate_stack(Y, cfg.q, array, cfg.mode)
    failures = [None if exc is None else type(exc).__name__ for exc in est.errors]
    ok = np.array([f is None for f in failures], dtype=bool)
    theta_err, phi_err = np.full(est.theta_deg.shape, np.nan), np.full(est.phi_deg.shape, np.nan)
    theta_err[ok], phi_err[ok] = _match_to_truth(est.theta_deg[ok], est.phi_deg[ok], cfg.sources)
    return theta_err, phi_err, failures


def run_trial(
    cfg: ExperimentConfig, snr_db: float, snr_index: int, trial_index: int
) -> tuple[np.ndarray, np.ndarray, list]:
    """One synthesis + estimation trial: ``run_trials`` on a stack of one."""
    return run_trials(cfg, snr_db, snr_index, range(trial_index, trial_index + 1))


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
    theta_err = np.concatenate([stack[0] for stack in stacks])
    phi_err = np.concatenate([stack[1] for stack in stacks])
    failed = np.array([f is not None for stack in stacks for f in stack[2]], dtype=bool)

    rows = []
    for si, snr_db in enumerate(cfg.snr_db_list):
        point = slice(si * cfg.trials, (si + 1) * cfg.trials)
        ok = ~failed[point]
        failures = int(np.count_nonzero(failed[point]))
        for source_index in range(cfg.q):
            if ok.any():
                # each source's errors as one 1-D array: a 2-D reduction would sum in another order
                te = theta_err[point, source_index][ok]
                pe = phi_err[point, source_index][ok]
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
