"""Seeded Monte Carlo experiment runner and CSV reporting.

Every trial gets its own random stream derived from (master seed, SNR index,
trial index) through a splitmix64-style avalanche.  The sweep's cells, its
(SNR index, trial index) pairs in that order, are cut into the fewest stacks
of consecutive cells whose snapshots fit STACK_BYTES, that count rounded up
to a multiple of the worker count and capped at one stack per cell, and the
cut is as even as it can be: stack sizes differ by at most 1.  A stack may
straddle two SNR points.  A task is a range of flat cell indices, cell k
being divmod(k, trials), so no list of the cells is built before the first
trial, and a worker is sent only its tasks' bounds.  Each stack, one task,
synthesizes its trials into one array, each at its own point's noise
variance: only the draws run per trial, on the trial's own stream, and the
rest of the synthesis runs once for the stack.  It estimates them in one pass
(``estimator.estimate_stack``) and stays arrays to the end: the stack's
estimates are matched to the true sources in one pass over all
permutations, and a task returns T x q arrays of theta and phi errors plus
each trial's failure class name and its two flags, the subarrays' reduced
truncation ranks and the pairing's ambiguity.  ``monte_carlo`` joins the
tasks' arrays, which then run in cell order, and reduces each SNR point's
surviving trials in one pass: one contiguous block with a row per source and
statistic, each row summed as its own 1-D array is, so every statistic is
the ``np.mean`` of that source's errors.  A trial's result depends on
neither its stack nor its worker, so the report is byte-identical for any
worker count and any split into stacks.  Estimator failures at low SNR are
counted per SNR point, not raised: the failure rate is itself a result.
The flags are counted over the whole sweep, outside the CSV.

A stack's array is the first T trials of the calling thread's snapshot
buffer (a ``threading.local``), which outlives the stack: it holds the last
stack's T x 2m x M snapshots, grows to the largest stack of one (2m, M), is
replaced at another (2m, M), and is kept across stacks and sweeps only if
it fits STACK_BYTES.  So a thread that has run a stack holds at most
STACK_BYTES, a stack that reuses the buffer faults in no fresh pages, and a
one-trial stack too large for it is freed as it ends.  ``synthesize`` never
uses it: it returns views of an array of its own.

The worker count is ``monte_carlo``'s ``workers`` argument (default 1) and
nothing else: this module reads no environment variable, and ``aoa
montecarlo`` is what turns ``AOA_THREADS`` into that argument.  A sweep of
more than one task runs task k in worker process k % workers.  The workers
are started for the sweep (forked, where that is the start method) and
joined before ``monte_carlo`` returns, so no process or thread outlives a
sweep.  Each worker sends each stack through its own pipe as it
finishes, and the caller reads them in task order.  The caller holds the
only read end of each pipe, so a worker whose caller is killed fails its
next send and exits, whatever the start method.
"""

import multiprocessing
import threading
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import ExperimentConfig
from .estimator import estimate_stack, permutation_table
from .synthesis import _synthesize_stack

# snapshot bytes per stack, which the QR holds twice; a long trial has little per-call cost to spread
STACK_BYTES = 1 << 20

CSV_HEADER = "snr_db,source_index,rmse_theta_deg,rmse_phi_deg,bias_theta_deg,bias_phi_deg,failure_count,trials"

# the calling thread's snapshot buffer, kept across stacks and sweeps (see _snapshot_buffer)
_thread = threading.local()

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
    """The CSV's rows, plus the sweep's trials that reduced a truncation rank in either subarray
    and those whose pairing was ambiguous (see ``estimator.StackEstimate``)."""

    rows: tuple[dict, ...]
    rank_reduced_trials: int
    ambiguous_trials: int

    def to_csv(self) -> str:
        columns = CSV_HEADER.split(",")
        lines = [CSV_HEADER]
        lines += [",".join(["" if row[k] is None else repr(row[k]) for k in columns]) for row in self.rows]
        return "\n".join(lines) + "\n"


def _match_to_truth(theta_deg: np.ndarray, phi_deg: np.ndarray, truth) -> tuple[np.ndarray, np.ndarray]:
    # assign each trial's estimates (T x q) to the ground-truth sources by
    # minimum total angular error and return the T x q errors in truth order;
    # cost[t, l, j] is the error of estimate j against source l, and ties go
    # to the first permutation in itertools order; a NaN row, a failed trial's,
    # matches to NaN errors
    q = len(truth)
    true_theta, true_phi = np.array([(t.theta, t.phi) for t in truth]).T
    cost = np.abs(theta_deg[:, None, :] - true_theta[:, None]) + np.abs(phi_deg[:, None, :] - true_phi[:, None])
    table = permutation_table(q)
    best = table[np.argmin(cost[:, np.arange(q), table].sum(axis=2), axis=1)]
    rows = np.arange(len(best))[:, None]
    return theta_deg[rows, best] - true_theta, phi_deg[rows, best] - true_phi


def run_trials(cfg: ExperimentConfig, cells) -> tuple[np.ndarray, np.ndarray, list, np.ndarray, np.ndarray]:
    """Trials of the sweep's cells as one stack: their angle errors, failures and flags.

    ``cells`` is a sequence of (snr_index, trial_index) pairs, which may
    belong to several SNR points.  Each trial draws on its own stream, at
    the noise variance of its point in ``cfg.snr_db_list``, into one
    T x 2m x M stack, the calling thread's snapshot buffer (see the module
    docstring), which ``estimate_stack`` runs in one pass; each result
    is exactly the one the trial gets alone.  The draws run per trial and
    the rest of the synthesis once for the stack
    (``synthesis._synthesize_stack``); each slice holds exactly the data
    ``synthesize`` gives its stream.

    Returns the theta and phi errors in degrees (T x q in cell order, source
    l of the config in column l; NaN rows for failed trials), per trial the
    class name of the estimator error it fails with, or None, and the
    estimate's ``reduced_rank`` (T x 2) and ``pairing_ambiguous`` (T).
    """
    sigma2 = [cfg.noise_variance(snr_db) for snr_db in cfg.snr_db_list]
    rngs = (np.random.default_rng(trial_seed(cfg.seed, si, ti)) for si, ti in cells)
    array = cfg.array_config()
    Y = _snapshot_buffer(len(cells), 2 * cfg.m, cfg.M)
    _synthesize_stack(cfg.source_set(), array, cfg.M, [sigma2[si] for si, _ in cells], rngs, Y)
    est = estimate_stack(Y, cfg.q, array, cfg.mode)
    theta_err, phi_err = _match_to_truth(est.theta_deg, est.phi_deg, cfg.sources)
    failures = [None if exc is None else type(exc).__name__ for exc in est.errors]
    return theta_err, phi_err, failures, est.reduced_rank, est.pairing_ambiguous


def _snapshot_buffer(T: int, rows: int, M: int) -> np.ndarray:
    # the first T trials of the calling thread's snapshot buffer (see the module docstring)
    buffer = getattr(_thread, "snapshots", None)
    if buffer is None or buffer.shape[1:] != (rows, M) or len(buffer) < T:
        buffer = np.empty((T, rows, M), dtype=complex)
        _thread.snapshots = buffer if buffer.nbytes <= STACK_BYTES else None
    return buffer[:T]


def run_trial(cfg: ExperimentConfig, snr_index: int, trial_index: int) -> tuple[np.ndarray, np.ndarray, list]:
    """One synthesis + estimation trial's angle errors and failure: ``run_trials`` on a stack of one, less its flags."""
    return run_trials(cfg, [(snr_index, trial_index)])[:3]


def _cut(cells, trial_bytes: int, workers: int) -> list:
    # the fewest stacks of trial_bytes-sized trials that fit STACK_BYTES, rounded up to a
    # multiple of workers and at most one per cell, as runs of consecutive cells whose sizes
    # differ by at most 1: an uneven cut such as 13 + 13 + 13 + 1 runs slower than 4 x 10
    fewest = -(-len(cells) // max(1, STACK_BYTES // trial_bytes))
    count = min(-(-fewest // workers) * workers, len(cells))
    size, extra = divmod(len(cells), count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [cells[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _run_task(cfg: ExperimentConfig, task: range) -> tuple[np.ndarray, np.ndarray, list, np.ndarray, np.ndarray]:
    # flat cell index k is cell (snr_index, trial_index) = divmod(k, trials)
    return run_trials(cfg, [divmod(k, cfg.trials) for k in task])


def _run_share(conn, cfg: ExperimentConfig, tasks: list, inherited: list) -> None:
    # a worker process: sends each stack of its share as it finishes, or the exception that
    # stopped it.  A forked worker holds copies of its own pipe's read end and of every earlier
    # worker's, and closes them first: then the caller holds the only read end, so once the
    # caller is gone the worker's next send fails and it returns
    for receiver in inherited:
        receiver.close()
    try:
        for task in tasks:
            conn.send(_run_task(cfg, task))
    except BrokenPipeError:
        pass  # the caller is gone, and no one is left to read the share
    except BaseException as exc:
        with suppress(BrokenPipeError):
            conn.send(exc)


def _run_shares(cfg: ExperimentConfig, tasks: list, workers: int) -> list:
    # task k runs in worker process k % workers; the stacks are read in task order
    if workers == 1:
        return list(map(_run_task, repeat(cfg), tasks))
    ctx = multiprocessing.get_context()
    children = []
    try:
        for k in range(workers):
            receiver, sender = ctx.Pipe(duplex=False)
            receivers = [r for _, r in children] + [receiver]
            child = ctx.Process(target=_run_share, args=(sender, cfg, tasks[k::workers], receivers))
            child.start()
            children.append((child, receiver))
            sender.close()
        stacks = []
        for k in range(len(tasks)):
            child, receiver = children[k % workers]
            try:
                stack = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a Monte Carlo worker process died (exit code {child.exitcode})") from None
            if isinstance(stack, BaseException):
                raise stack
            stacks.append(stack)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return stacks


def monte_carlo(cfg: ExperimentConfig, workers: int = 1) -> MonteCarloReport:
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
    here; a worker that dies raises ``RuntimeError``.  ``workers`` (default
    1) is not capped at the CPU count; below 1 it is a ``ValueError`` before
    any task is cut or started.  The report also counts the sweep's flagged
    trials, as ``MonteCarloReport`` says.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = _cut(range(len(cfg.snr_db_list) * cfg.trials), 2 * cfg.m * cfg.M * np.dtype(complex).itemsize, workers)
    stacks = _run_shares(cfg, tasks, min(workers, len(tasks)))
    # one row per cell, theta's q errors then phi's
    errors = np.concatenate([np.concatenate(stack[:2], axis=1) for stack in stacks])
    failed = np.array([f is not None for stack in stacks for f in stack[2]], dtype=bool)

    columns = CSV_HEADER.split(",")
    rows = []
    for si, snr_db in enumerate(cfg.snr_db_list):
        point = slice(si * cfg.trials, (si + 1) * cfg.trials)
        ok = ~failed[point]
        n = int(np.count_nonzero(ok))
        stats = [(None,) * 4] * cfg.q  # AllTrialsFailed: the rows have empty statistics
        if n:
            # one contiguous 2q x n block, each source's errors a row: a row's mean along the
            # last axis is summed as its 1-D array's is, in pairwise order
            block = np.ascontiguousarray(errors[point][ok].T)
            rms = np.sqrt((block**2).mean(axis=-1)).tolist()
            mean = block.mean(axis=-1).tolist()
            stats = zip(rms[:cfg.q], rms[cfg.q:], mean[:cfg.q], mean[cfg.q:])
        for source_index, row_stats in enumerate(stats):
            rows.append(dict(zip(columns, (snr_db, source_index, *row_stats, cfg.trials - n, cfg.trials))))

    rows.sort(key=lambda r: (r["snr_db"], r["source_index"]))
    # the flagged trials of the whole sweep: a rank reduced in either subarray, an ambiguous pairing
    rank_reduced = sum(int(np.count_nonzero(np.any(stack[3] >= 0, axis=1))) for stack in stacks)
    return MonteCarloReport(tuple(rows), rank_reduced, sum(int(np.count_nonzero(stack[4])) for stack in stacks))
