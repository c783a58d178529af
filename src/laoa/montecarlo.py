"""Seeded Monte Carlo experiment runner and CSV reporting.

Every trial gets its own random stream derived from (master seed, SNR index,
trial index) through a splitmix64-style avalanche.  The sweep's cells, its
(SNR index, trial index) pairs in that order, are cut into the fewest stacks
of consecutive cells whose snapshots fit STACK_BYTES, that count rounded up
to a multiple of the worker count and capped at one stack per cell, and the
cut is as even as it can be: stack sizes differ by at most 1.  A stack may
straddle two SNR points.  Each stack, one task, synthesizes its trials
into one array, each at its own point's noise variance, and estimates them
in one pass (``estimator.estimate_stack``).  It stays arrays to the end:
the stack's estimates are matched to the true sources in one pass over all
permutations, and a task returns T x q arrays of theta and phi errors plus each trial's
failure class name.  ``monte_carlo`` joins the tasks' arrays, which then run
in cell order, and reduces each source's column at each SNR point under a
mask of the trials that did not fail.  A trial's result depends on neither
its stack nor its worker, so the report is byte-identical for any worker
count and any split into stacks.  Estimator failures at low SNR are counted
per SNR point, not raised: the failure rate is itself a result.

A sweep of more than one task runs task k in worker process k % workers.
The workers are started for the sweep (forked, where that is the start
method) and joined before ``monte_carlo`` returns, so no process or thread
outlives a sweep.
"""

import multiprocessing
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .array_model import steering_vector
from .config import ExperimentConfig
from .estimator import estimate_stack, permutation_table
from .synthesis import _synthesize_into, separated_angle_sets

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
        columns = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        lines += (",".join("" if row[k] is None else repr(row[k]) for k in columns) for row in self.rows)
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


def run_trials(cfg: ExperimentConfig, cells) -> tuple[np.ndarray, np.ndarray, list]:
    """Trials of the sweep's cells as one stack: their angle errors and failures.

    ``cells`` is a sequence of (snr_index, trial_index) pairs, which may
    belong to several SNR points.  Each trial is synthesized on its own
    stream, at the noise variance of its point in ``cfg.snr_db_list``,
    straight into its slice of one T x 2m x M stack, which
    ``estimate_stack`` runs in one pass; each result is exactly the one the
    trial gets alone.  The source angles and steering matrices depend only
    on the config, so the stack builds them once; each slice holds exactly
    the data ``synthesize`` gives its stream.

    Returns the theta and phi errors in degrees (T x q in cell order, source
    l of the config in column l; NaN rows for failed trials) and, per trial,
    the class name of the estimator error it fails with, or None.
    """
    sigma2 = [cfg.noise_variance(snr_db) for snr_db in cfg.snr_db_list]
    src, array = cfg.source_set(), cfg.array_config()
    psis, xis = separated_angle_sets(src, array)
    A_z, A_x = steering_vector(psis, cfg.m), steering_vector(xis, cfg.m)
    Y = np.empty((len(cells), 2 * cfg.m, cfg.M), dtype=complex)
    for y, (snr_index, trial_index) in zip(Y, cells):
        rng = np.random.default_rng(trial_seed(cfg.seed, snr_index, trial_index))
        _synthesize_into(y, A_z, A_x, src, sigma2[snr_index], rng)
    est = estimate_stack(Y, cfg.q, array, cfg.mode)
    failures = [None if exc is None else type(exc).__name__ for exc in est.errors]
    ok = np.array([f is None for f in failures], dtype=bool)
    theta_err, phi_err = np.full(est.theta_deg.shape, np.nan), np.full(est.phi_deg.shape, np.nan)
    theta_err[ok], phi_err[ok] = _match_to_truth(est.theta_deg[ok], est.phi_deg[ok], cfg.sources)
    return theta_err, phi_err, failures


def run_trial(cfg: ExperimentConfig, snr_index: int, trial_index: int) -> tuple[np.ndarray, np.ndarray, list]:
    """One synthesis + estimation trial: ``run_trials`` on a stack of one."""
    return run_trials(cfg, [(snr_index, trial_index)])


def default_workers() -> int:
    """Worker count from ``AOA_THREADS`` (default 1), capped at the CPU count.

    A sweep starts one process per worker, so an uncapped value would start
    that many processes.
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


def _cut(cells: list, trial_bytes: int, workers: int) -> list:
    # the fewest stacks of trial_bytes-sized trials that fit STACK_BYTES, rounded up to a
    # multiple of workers and at most one per cell, as runs of consecutive cells whose sizes
    # differ by at most 1: an uneven cut such as 13 + 13 + 13 + 1 runs slower than 4 x 10
    fewest = -(-len(cells) // max(1, STACK_BYTES // trial_bytes))
    count = min(-(-fewest // workers) * workers, len(cells))
    size, extra = divmod(len(cells), count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [cells[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _run_share(conn, cfg: ExperimentConfig, tasks: list) -> None:
    # a worker process: sends its share's stacks, or the exception that stopped it
    try:
        stacks = list(map(run_trials, repeat(cfg), tasks))
    except BaseException as exc:
        stacks = exc
    conn.send(stacks)


def _run_shares(cfg: ExperimentConfig, tasks: list, workers: int) -> list:
    # task k runs in worker process k % workers; the stacks return in task order
    if workers == 1:
        return list(map(run_trials, repeat(cfg), tasks))
    ctx = multiprocessing.get_context()
    children = []
    try:
        for k in range(workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(sender, cfg, tasks[k::workers]))
            child.start()
            children.append((child, receiver))
            sender.close()
        stacks = [None] * len(tasks)
        for k, (child, receiver) in enumerate(children):
            try:
                share = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a Monte Carlo worker process died (exit code {child.exitcode})") from None
            if isinstance(share, BaseException):
                raise share
            stacks[k::workers] = share
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return stacks


def monte_carlo(cfg: ExperimentConfig, workers: int | None = None) -> MonteCarloReport:
    """Run trials x SNR points and aggregate RMSE/bias per source per SNR.

    The sweep's cells, (snr_index, trial_index) in that order, are cut into
    the fewest tasks of consecutive cells whose snapshots fit STACK_BYTES,
    rounded up to a multiple of ``workers`` and at most one per cell, with
    sizes that differ by at most 1; a task may straddle two SNR points.
    Each trial seeds its own stream and the stacks are joined in task order,
    so any worker count yields the same report.  Task k runs in worker
    process k % workers; the workers are started for this sweep and joined
    before it returns.  No more workers start than there are tasks, and a
    sweep of one task runs in process.  A worker's exception is re-raised
    here; a worker that dies raises ``RuntimeError``.
    """
    if workers is None:
        workers = default_workers()
    cells = [(si, ti) for si in range(len(cfg.snr_db_list)) for ti in range(cfg.trials)]
    tasks = _cut(cells, 2 * cfg.m * cfg.M * np.dtype(complex).itemsize, workers)
    stacks = _run_shares(cfg, tasks, min(workers, len(tasks)))
    theta_err = np.concatenate([stack[0] for stack in stacks])
    phi_err = np.concatenate([stack[1] for stack in stacks])
    failed = np.array([f is not None for stack in stacks for f in stack[2]], dtype=bool)

    columns = CSV_HEADER.split(",")
    rows = []
    for si, snr_db in enumerate(cfg.snr_db_list):
        point = slice(si * cfg.trials, (si + 1) * cfg.trials)
        ok = ~failed[point]
        failures = int(np.count_nonzero(failed[point]))
        for source_index in range(cfg.q):
            stats = (None,) * 4  # AllTrialsFailed: the row has empty statistics
            if ok.any():
                # each source's errors as one 1-D array: a 2-D reduction would sum in another order
                te = theta_err[point, source_index][ok]
                pe = phi_err[point, source_index][ok]
                stats = (float(np.sqrt(np.mean(te**2))), float(np.sqrt(np.mean(pe**2))),
                         float(np.mean(te)), float(np.mean(pe)))
            rows.append(dict(zip(columns, (snr_db, source_index, *stats, failures, cfg.trials))))

    rows.sort(key=lambda r: (r["snr_db"], r["source_index"]))
    return MonteCarloReport(rows=tuple(rows))
