import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

import laoa.estimator
import laoa.montecarlo
from laoa import DirectionPair, parse_config, serialize_config
from laoa.montecarlo import (
    CSV_HEADER,
    STACK_BYTES,
    _cut,
    _match_to_truth,
    monte_carlo,
    run_trial,
    run_trials,
    splitmix64,
    trial_seed,
)
from laoa.synthesis import synthesize


def _cfg(**overrides):
    base = dict(
        m=8, spacing_ratio=0.5, M=50, q=1, sources="60/45",
        signal_model="unit_power_random_phase", snr_db_list="20",
        trials=4, seed=42, mode="truncated_svd", output_path="out.csv",
    )
    base.update(overrides)
    return parse_config("\n".join(f"{k} = {v}" for k, v in base.items()))


class TestSeeding:
    def test_splitmix_reference_values(self):
        # first two outputs of the canonical splitmix64 stream seeded with 0
        assert splitmix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
        assert splitmix64((2 * 0x9E3779B97F4A7C15) % 2**64) == 0x6E789E6AA1B965F4

    def test_trial_seed_distinct(self):
        seeds = {trial_seed(7, si, ti) for si in range(10) for ti in range(100)}
        assert len(seeds) == 1000

    def test_trial_seed_deterministic(self):
        assert trial_seed(123, 4, 5) == trial_seed(123, 4, 5)


class TestRunTrial:
    def test_effectively_noiseless(self):
        cfg = _cfg(snr_db_list="300")
        theta_err, phi_err, (failure,) = run_trial(cfg, 0, 0)
        assert failure is None
        assert abs(theta_err[0, 0]) < 1e-6
        assert abs(phi_err[0, 0]) < 1e-6

    def test_repeatable(self):
        cfg = _cfg()
        a = run_trial(cfg, 0, 3)
        b = run_trial(cfg, 0, 3)
        assert _same(a, b)

    def test_extreme_noise_never_crashes(self):
        cfg = _cfg(snr_db_list="-100")
        for ti in range(5):
            theta_err, phi_err, (failure,) = run_trial(cfg, 0, ti)
            if failure is None:
                assert np.all(np.isfinite(theta_err))
                assert np.all(np.isfinite(phi_err))
            else:
                assert isinstance(failure, str)

    def test_lapack_failure_is_a_counted_failure(self, monkeypatch):
        real_svd = np.linalg.svd

        def no_convergence(a, *args, **kwargs):
            # fails a call unless each matrix is an identity, which LAPACK always handles and on which
            # lapack_stack's last call runs the failed items
            if not np.array_equal(a, np.broadcast_to(np.eye(*a.shape[-2:]), a.shape)):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        cfg = _cfg(trials=3)
        assert run_trial(cfg, 0, 0)[2] == ["ConvergenceFailure"]
        (row,) = monte_carlo(cfg, workers=1).rows
        assert row["failure_count"] == 3 and row["rmse_theta_deg"] is None

    def test_singular_pairing_is_a_counted_failure(self, monkeypatch):
        # identical (psi, xi) pairs make the pairing normal equations singular
        # one row of angles and root magnitudes per item of the stack, and no reduced rank
        monkeypatch.setattr(
            laoa.estimator,
            "estimate_electrical",
            lambda B, *a: (np.full((len(B), 2), 0.3), np.ones((len(B), 2)), np.full(len(B), -1)),
        )
        cfg = _cfg(trials=2, q=2, sources="30/40, 70/120")
        assert run_trial(cfg, 0, 0)[2] == ["ConvergenceFailure"]
        row = monte_carlo(cfg, workers=1).rows[0]
        assert row["failure_count"] == 2 and row["rmse_theta_deg"] is None


def _run_workers_in_process(monkeypatch, shares):
    # each worker of a sweep runs its share in process as it starts, and appends its tasks' sizes
    # to shares; it has no read ends to close: in process, they are the caller's own
    def process(target, args):
        shares.append([len(cells) for cells in args[2]])
        return SimpleNamespace(start=lambda: target(*args[:3], []), join=lambda: None, terminate=lambda: None)

    context = SimpleNamespace(Pipe=multiprocessing.Pipe, Process=process)
    monkeypatch.setattr(laoa.montecarlo, "multiprocessing", SimpleNamespace(get_context=lambda: context))


def _same(a, b):
    # two run_trials results: equal errors (NaN rows alike), failures and flags
    return (all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[:2], b[:2])) and a[2] == b[2]
            and all(np.array_equal(x, y) for x, y in zip(a[3:], b[3:])))


def _loop_match(est, truth):
    # reference: first minimum-cost assignment in itertools order
    perms = list(permutations(range(len(truth))))
    costs = [
        sum(abs(est[j].theta_deg - t.theta) + abs(est[j].phi_deg - t.phi) for j, t in zip(p, truth))
        for p in perms
    ]
    best = perms[costs.index(min(costs))]
    return tuple(est[j].theta_deg - t.theta for j, t in zip(best, truth)), tuple(
        est[j].phi_deg - t.phi for j, t in zip(best, truth)
    )


def _stacked_match(trials, truth):
    # _match_to_truth on a stack of trials, back as one tuple pair per trial
    theta = np.array([[s.theta_deg for s in est] for est in trials])
    phi = np.array([[s.phi_deg for s in est] for est in trials])
    theta_err, phi_err = _match_to_truth(theta, phi, truth)
    return [(tuple(te), tuple(pe)) for te, pe in zip(theta_err.tolist(), phi_err.tolist())]


class TestMatchToTruth:
    def test_agrees_with_the_permutation_loop(self):
        rng = np.random.default_rng(3)
        for q in (1, 2, 3, 5):
            truth = [DirectionPair(float(t), float(p)) for t, p in rng.uniform(20, 160, (q, 2))]
            trials = []
            for _ in range(6):
                est = [SimpleNamespace(theta_deg=t.theta + rng.normal(0, 30), phi_deg=t.phi + rng.normal(0, 30)) for t in truth]
                trials.append([est[j] for j in rng.permutation(q)])
            # a failed trial's row reads NaN: it matches to NaN errors and leaves the other rows alone
            failed = [SimpleNamespace(theta_deg=np.nan, phi_deg=np.nan)] * q
            got = _stacked_match(trials[:2] + [failed] + trials[2:], truth)
            assert np.isnan(got.pop(2)).all()
            assert got == [_loop_match(est, truth) for est in trials]

    def test_tie_keeps_the_first_permutation(self):
        # both assignments cost 30 degrees; the identity comes first
        truth = [DirectionPair(50.0, 60.0), DirectionPair(70.0, 60.0)]
        est = [SimpleNamespace(theta_deg=60.0, phi_deg=60.0), SimpleNamespace(theta_deg=60.0, phi_deg=70.0)]
        assert _stacked_match([est], truth) == [((10.0, -10.0), (0.0, 10.0))]


class TestMonteCarlo:
    def test_single_trial_rmse_is_abs_error(self):
        cfg = _cfg(trials=1, snr_db_list="300")
        report = monte_carlo(cfg)
        theta_err, _, _ = run_trial(cfg, 0, 0)
        row = report.rows[0]
        assert row["rmse_theta_deg"] == pytest.approx(abs(theta_err[0, 0]))
        assert row["rmse_theta_deg"] >= abs(row["bias_theta_deg"]) - 1e-15

    def test_csv_schema(self):
        cfg = _cfg(trials=2, snr_db_list="10, 0", q=2, sources="30/40, 70/120")
        csv = monte_carlo(cfg).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        # rows sorted by (snr asc, source asc)
        keys = [tuple(map(float, ln.split(",")[:2])) for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_each_row_aggregates_the_trials_of_its_snr_point(self):
        cfg = _cfg(trials=3, snr_db_list="20, 10")
        rows = {row["snr_db"]: row for row in monte_carlo(cfg).rows}
        for si, snr_db in enumerate(cfg.snr_db_list):
            te = np.array([run_trial(cfg, si, ti)[0][0, 0] for ti in range(cfg.trials)])
            assert rows[snr_db]["rmse_theta_deg"] == float(np.sqrt(np.mean(te**2)))
            assert rows[snr_db]["bias_theta_deg"] == float(np.mean(te))

    @pytest.mark.parametrize(
        "M, trials, snr_db_list, sizes",
        [
            (50, 23, "20", [23]),
            (50, 3, "20, 10, 0, -10", [12]),
            (5000, 3, "20", [1, 1, 1]),
            (200, 23, "20", [12, 11]),
            (200, 7, "20, 10, 0, -10", [14, 14]),
        ],
    )
    def test_stacks_are_cut_by_trial_count_and_snapshot_bytes(self, monkeypatch, M, trials, snr_db_list, sizes):
        # STACK_BYTES holds 81 trials' [Z; X] at M=50 and 20 at M=200, and not one at M=5000
        # (1.28 MB); the stacks are cut from the (snr_index, trial_index) grid, so one may
        # straddle SNR points, and as evenly as the fewest stacks allow
        cfg = _cfg(M=M, trials=trials, snr_db_list=snr_db_list)
        seen, real = [], laoa.montecarlo.run_trials
        monkeypatch.setattr(laoa.montecarlo, "run_trials", lambda c, cells: seen.append(cells) or real(c, cells))
        monte_carlo(cfg, workers=1)
        assert [len(cells) for cells in seen] == sizes
        grid = [(si, ti) for si in range(len(cfg.snr_db_list)) for ti in range(cfg.trials)]
        assert [cell for cells in seen for cell in cells] == grid

    def test_the_tasks_are_ranges_of_flat_cell_indices(self, monkeypatch):
        # a task holds only its bounds: planning a sweep builds no list of its cells, and a
        # worker's share of a 4 x 250000-cell sweep at M = 3 pickles to a few KB
        cuts, real = [], laoa.montecarlo._cut
        monkeypatch.setattr(laoa.montecarlo, "_cut", lambda *args: cuts.append(real(*args)) or cuts[-1])
        cfg = _cfg(M=5000, trials=3, snr_db_list="20, 10")
        monte_carlo(cfg, workers=1)
        (tasks,) = cuts
        assert [type(task) for task in tasks] == [range] * 6
        assert [k for task in tasks for k in task] == list(range(6))
        share = real(range(4 * 250_000), 2 * 8 * 3 * np.dtype(complex).itemsize, 2)[0::2]
        assert all(type(task) is range for task in share)
        assert len(pickle.dumps(share)) < 64 * 1024

    @pytest.mark.parametrize("cells", [1, 2, 5, 20, 21, 40, 100, 101])
    @pytest.mark.parametrize("M", [50, 200, 2000, 5000])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_cut_is_the_fewest_equal_stacks_that_fit(self, cells, M, workers):
        grid = [(ti // 7, ti % 7) for ti in range(cells)]
        trial_bytes = 2 * 8 * M * np.dtype(complex).itemsize
        per_stack = max(1, STACK_BYTES // trial_bytes)
        stacks = _cut(grid, trial_bytes, workers)
        sizes = [len(stack) for stack in stacks]
        assert [cell for stack in stacks for cell in stack] == grid
        assert max(sizes) - min(sizes) <= 1
        assert len(stacks) % workers == 0 or len(stacks) == cells
        assert max(sizes) * trial_bytes <= STACK_BYTES or max(sizes) == 1  # a trial too large for one is alone
        # no fewer stacks, a multiple of workers, would fit
        fewer = len(stacks) - workers
        assert fewer < 1 or -(-cells // fewer) > per_stack

    @pytest.mark.parametrize("signal_model", ["unit_power_random_phase", "qpsk"])
    def test_each_slice_holds_what_synthesize_draws_on_the_trials_stream(self, monkeypatch, signal_model):
        # the stack draws each trial on its own stream into stack buffers and does the rest once
        # for the stack, each trial at its own SNR point's noise variance: the stack straddles
        # three points, and the noiseless one (inf dB, no noise draw) sits between noisy ones
        cfg = _cfg(q=2, sources="30/40, 70/120", signal_model=signal_model, trials=7, snr_db_list="0, inf, 10")
        cells = [(0, 5), (0, 6), (1, 0), (1, 1), (2, 0), (1, 6), (2, 1)]
        stacks, real = [], laoa.montecarlo.estimate_stack
        monkeypatch.setattr(laoa.montecarlo, "estimate_stack", lambda Y, *a: stacks.append(Y.copy()) or real(Y, *a))
        laoa.montecarlo.run_trials(cfg, cells)
        for Y, (snr_index, trial_index) in zip(stacks[0], cells, strict=True):
            rng = np.random.default_rng(trial_seed(cfg.seed, snr_index, trial_index))
            sigma2 = cfg.noise_variance(cfg.snr_db_list[snr_index])
            Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, sigma2, rng)
            assert Y.tobytes() == np.vstack([Z.data, X.data]).tobytes()

    def test_each_statistic_is_np_mean_of_its_sources_surviving_errors(self, monkeypatch):
        # run_trials stubbed with seeded errors of mixed magnitudes and NaN rows for failed
        # trials: at 300 trials per point, every trial fails at -10 dB, 100 survive at 0 dB,
        # 200 at 10 dB and all 300 at 20 dB, so the pairwise sum splits past 128 on most rows;
        # each statistic must be, bit for bit, np.mean of its source's 1-D array
        def errors(si, ti):
            rng = np.random.default_rng([si, ti])
            return rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-3, 3, (2, 3))

        def fails(si, ti):
            return si == 0 or (si == 1 and ti % 3 != 0) or (si == 2 and ti % 3 == 0)

        def run_trials(cfg, cells):
            e = np.array([np.full((2, 3), np.nan) if fails(*cell) else errors(*cell) for cell in cells])
            flags = np.full((len(cells), 2), -1), np.zeros(len(cells), dtype=bool)
            return e[:, 0], e[:, 1], ["OutOfRange" if fails(*cell) else None for cell in cells], *flags

        monkeypatch.setattr(laoa.montecarlo, "run_trials", run_trials)
        cfg = _cfg(q=3, sources="30/40, 70/120, 110/80", trials=300, snr_db_list="-10, 0, 10, 20")
        rows = monte_carlo(cfg, workers=1).rows
        assert [row["failure_count"] for row in rows[::3]] == [300, 200, 100, 0]
        for si, snr_db in enumerate(cfg.snr_db_list):
            kept = [errors(si, ti) for ti in range(cfg.trials) if not fails(si, ti)]
            for source_index, row in enumerate(rows[3 * si:3 * si + 3]):
                assert (row["snr_db"], row["source_index"], row["trials"]) == (snr_db, source_index, 300)
                if not kept:
                    assert [row[k] for k in CSV_HEADER.split(",")[2:6]] == [None] * 4
                    continue
                te, pe = (np.array([e[k, source_index] for e in kept]) for k in (0, 1))
                want = (np.sqrt(np.mean(te**2)), np.sqrt(np.mean(pe**2)), np.mean(te), np.mean(pe))
                got = tuple(row[k] for k in CSV_HEADER.split(",")[2:6])
                assert got == tuple(map(float, want))
                assert list(map(repr, got)) == [repr(float(w)) for w in want]

    @pytest.mark.parametrize(
        "trials, snr_db_list, workers, started",
        [
            (3, "20, 10", 2, [[3], [3]]),
            (8, "20, 10", 2, [[8], [8]]),
            (8, "20, 10", 3, [[6], [5], [5]]),
            (1, "20, 10", 3, [[1], [1]]),
            (1, "20", 2, []),
        ],
    )
    def test_a_sweep_starts_no_more_workers_than_there_are_tasks(
        self, monkeypatch, trials, snr_db_list, workers, started
    ):
        # a sweep of one cell is one task and runs in process; the cells of a larger sweep fit one
        # stack, so they are cut into as many equal tasks as there are workers, or one per cell;
        # task k runs in worker k % workers
        shares, ran, real = [], [], laoa.montecarlo.run_trials
        cfg = _cfg(trials=trials, snr_db_list=snr_db_list)
        serial = monte_carlo(cfg, workers=1).to_csv()
        _run_workers_in_process(monkeypatch, shares)
        monkeypatch.setattr(laoa.montecarlo, "run_trials", lambda cfg, cells: ran.append(len(cells)) or real(cfg, cells))
        assert monte_carlo(cfg, workers=workers).to_csv() == serial
        assert shares == started
        # the stub runs each share as its worker starts
        assert ran == ([n for share in started for n in share] or [trials])

    def test_the_sweep_ignores_aoa_threads(self, monkeypatch):
        # the worker count is the caller's argument, default 1; only `aoa montecarlo` reads
        # AOA_THREADS, so neither a bad value nor a larger one reaches a library sweep
        shares = []
        cfg = _cfg(trials=3, snr_db_list="20, 10")
        serial = monte_carlo(cfg, workers=1).to_csv()
        _run_workers_in_process(monkeypatch, shares)
        for env in ("bogus", "2"):
            monkeypatch.setenv("AOA_THREADS", env)
            assert monte_carlo(cfg).to_csv() == serial
            assert shares == []
        # the stub does see the workers of an explicit count
        assert monte_carlo(cfg, workers=2).to_csv() == serial
        assert shares == [[3], [3]]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_a_worker_count_below_one_is_rejected_before_any_task(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(laoa.montecarlo, "_cut", lambda *args: calls.append("cut"))
        monkeypatch.setattr(laoa.montecarlo, "_run_shares", lambda *args: calls.append("run"))
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            monte_carlo(_cfg(), workers=workers)
        assert calls == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_started_without_fork_give_the_same_report(self, monkeypatch, method):
        # a spawned or fork server's worker inherits no read end, and sends its stacks as a forked one does
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        cfg = _cfg(trials=3, snr_db_list="20, 10")
        serial = monte_carlo(cfg, workers=1).to_csv()
        ctx = multiprocessing.get_context(method)
        monkeypatch.setattr(laoa.montecarlo, "multiprocessing", SimpleNamespace(get_context=lambda: ctx))
        assert monte_carlo(cfg, workers=2).to_csv() == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "overrides, workers",
        [
            (dict(trials=6, snr_db_list="20, 10"), 3),
            # one trial's snapshots per stack at M = 3000: 202 stacks, 101 per worker, so the
            # stacks must be read in task order, and a worker's sends run far past a pipe's buffer
            (dict(M=3000, trials=101, snr_db_list="20, 10"), 2),
        ],
    )
    def test_workers_do_not_change_bytes(self, overrides, workers):
        cfg = _cfg(**overrides)
        serial = monte_carlo(cfg, workers=1).to_csv()
        parallel = monte_carlo(cfg, workers=workers).to_csv()
        assert serial == parallel
        assert multiprocessing.active_children() == []

    def test_the_flag_counts_are_the_trials_flags_at_any_worker_count(self):
        # m = 4 and M = 3 at q = 2, noise-free QPSK then 40 dB: some trials reduce a truncation
        # rank, some of those then fail, and some pair ambiguously; nothing in the sweep warns
        cfg = _cfg(m=4, M=3, q=2, sources="30/40, 70/120", signal_model="qpsk", snr_db_list="inf, 40",
                   trials=200, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial, parallel = monte_carlo(cfg, workers=1), monte_carlo(cfg, workers=2)
            _, _, failures, reduced, ambiguous = run_trials(cfg, [divmod(k, cfg.trials) for k in range(400)])
        assert serial.to_csv() == parallel.to_csv()
        counts = serial.rank_reduced_trials, serial.ambiguous_trials
        assert counts == (parallel.rank_reduced_trials, parallel.ambiguous_trials)
        # a trial counts once if either subarray reduced its rank, also when it then fails
        rank_reduced = np.any(reduced >= 0, axis=1)
        assert counts == (np.count_nonzero(rank_reduced), np.count_nonzero(ambiguous))
        assert all(counts) and any(f is not None for f in np.array(failures, dtype=object)[rank_reduced])

    def test_rmse_bias_consistency(self):
        cfg = _cfg(trials=20, snr_db_list="10")
        for row in monte_carlo(cfg).rows:
            if row["rmse_theta_deg"] is not None:
                assert row["rmse_theta_deg"] >= abs(row["bias_theta_deg"]) - 1e-12
                assert row["rmse_phi_deg"] >= abs(row["bias_phi_deg"]) - 1e-12
            assert row["failure_count"] + row["trials"] >= row["trials"]


def _in_new_thread(fn, *args):
    # fn(*args) in a thread of its own, which starts with no snapshot buffer
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def _bits(result):
    # a run_trials result, bit for bit
    theta_err, phi_err, failures, reduced, ambiguous = result
    return theta_err.tobytes(), phi_err.tobytes(), failures, reduced.tobytes(), ambiguous.tobytes()


class TestSnapshotBuffer:
    # each thread keeps one snapshot buffer across stacks and sweeps; what a stack gets must not
    # depend on what an earlier stack left in it
    def test_a_reused_buffer_gives_the_bits_of_a_fresh_one(self):
        readme = _cfg(q=2, sources="30/40, 70/120", M=200, trials=20, snr_db_list="0, 20")
        narrow = _cfg(q=2, sources="30/40, 70/120", M=50, trials=20, snr_db_list="-10")
        # sigma^2 = 0 at inf dB draws no noise: its stack must not keep the noisy stack's data
        noiseless = _cfg(q=2, sources="30/40, 70/120", M=50, trials=20, snr_db_list="inf", signal_model="qpsk")
        runs = [
            (readme, [(0, t) for t in range(20)]),
            (readme, [(1, t) for t in range(7)]),
            (readme, [(0, t) for t in range(10, 20)] + [(1, t) for t in range(10)]),
            (narrow, [(0, t) for t in range(20)]),
            (noiseless, [(0, t) for t in range(20)]),
        ]
        reused = _in_new_thread(lambda: [_bits(run_trials(cfg, cells)) for cfg, cells in runs])
        assert reused == [_in_new_thread(lambda: _bits(run_trials(cfg, cells))) for cfg, cells in runs]

    def test_consecutive_stacks_share_one_buffer(self, monkeypatch):
        stacks, real = [], laoa.montecarlo.estimate_stack
        monkeypatch.setattr(laoa.montecarlo, "estimate_stack", lambda Y, *a: stacks.append(Y) or real(Y, *a))
        cfg = _cfg(M=200, trials=20, snr_db_list="20, 10")
        _in_new_thread(monte_carlo, cfg, 1)
        assert [len(Y) for Y in stacks] == [20, 20]
        assert np.shares_memory(*stacks)

    def test_synthesize_returns_arrays_no_sweep_reuses(self):
        # the sweep before synthesize leaves this thread a buffer of the same shape
        cfg = _cfg(M=200, trials=1, snr_db_list="20")
        monte_carlo(cfg, workers=1)
        rng = np.random.default_rng(trial_seed(cfg.seed, 0, 0))
        Z, X, S = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, 0.1, rng)
        before = [a.copy() for a in (Z.data, X.data, S)]
        monte_carlo(cfg, workers=1)
        assert [a.tobytes() for a in (Z.data, X.data, S)] == [a.tobytes() for a in before]

    def test_threads_sweeping_at_once_get_their_serial_reports(self):
        # three threads, more than this box's cores, with a short switch interval; three stacks of
        # 20 trials per sweep and three sweeps per thread; every config takes buffers of one shape,
        # so a buffer shared between the threads would be written by more than one
        cfgs = [
            _cfg(q=2, sources="30/40, 70/120", M=200, trials=30, snr_db_list="0, 20"),
            _cfg(M=200, trials=20, snr_db_list="10, 20, 30", seed=7),
            _cfg(q=2, sources="50/60, 120/30", M=200, trials=60, snr_db_list="inf", signal_model="qpsk"),
        ]
        serial = [_in_new_thread(lambda: monte_carlo(cfg, 1).to_csv()) for cfg in cfgs]
        start = threading.Barrier(len(cfgs))

        def sweeps(cfg):
            start.wait()
            return [monte_carlo(cfg, 1).to_csv() for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(cfgs)) as pool:
                got = list(pool.map(sweeps, cfgs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == [[csv] * 3 for csv in serial]

    def test_a_stack_too_large_to_keep_leaves_no_buffer(self, monkeypatch):
        # one trial at m = 8, M = 5000 is 1.28 MB, more than STACK_BYTES
        buffers, real = [], laoa.montecarlo.estimate_stack
        monkeypatch.setattr(laoa.montecarlo, "estimate_stack", lambda Y, *a: buffers.append(weakref.ref(Y.base)) or real(Y, *a))

        def run():
            # whether each stack's buffer is still held, after each stack, in the thread that ran them
            run_trials(_cfg(M=200), [(0, 0), (0, 1)])
            held = [ref() is not None for ref in buffers]
            run_trials(_cfg(M=5000), [(0, 0)])
            return held, [ref() is not None for ref in buffers]

        assert 2 * 8 * 5000 * np.dtype(complex).itemsize > STACK_BYTES
        assert _in_new_thread(run) == ([True], [False, False])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the workers must inherit the patch")
class TestWorkerFailures:
    # a failing worker stops the sweep, and no worker process outlives it; the workers are forked
    # whatever the default start method, so that they inherit the patched run_trials
    @pytest.fixture(autouse=True)
    def _fork(self, monkeypatch):
        ctx = multiprocessing.get_context("fork")
        monkeypatch.setattr(laoa.montecarlo, "multiprocessing", SimpleNamespace(get_context=lambda: ctx))

    def _patch(self, monkeypatch, first, second=None):
        # the first worker runs the first task, of the first cell; the second runs the others
        real = laoa.montecarlo.run_trials

        def run_trials(cfg, cells):
            action = first if cells[0] == (0, 0) else second
            return action() if action else real(cfg, cells)

        monkeypatch.setattr(laoa.montecarlo, "run_trials", run_trials)
        return _cfg(trials=3, snr_db_list="20, 10")

    def _raise(self):
        raise ValueError("raised in a worker")

    def test_a_workers_exception_is_raised_in_the_caller(self, monkeypatch):
        cfg = self._patch(monkeypatch, self._raise)
        with pytest.raises(ValueError, match="raised in a worker"):
            monte_carlo(cfg, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_a_runtime_error(self, monkeypatch):
        cfg = self._patch(monkeypatch, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="exit code 3"):
            monte_carlo(cfg, workers=2)
        assert multiprocessing.active_children() == []

    def test_a_failing_worker_stops_the_others(self, monkeypatch):
        cfg = self._patch(monkeypatch, self._raise, second=lambda: time.sleep(60))
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="raised in a worker"):
            monte_carlo(cfg, workers=2)
        assert time.monotonic() - t0 < 30
        assert multiprocessing.active_children() == []

    def test_a_worker_that_raises_after_sending_a_stack_raises_in_the_caller(self, monkeypatch):
        # two trials' snapshots per stack at m = 4, M = 3000: the 8 cells are 4 tasks of 2, so each
        # worker sends its first stack and then raises on its second
        real, ran = laoa.montecarlo.run_trials, []
        cfg = _cfg(m=4, M=3000, trials=4, snr_db_list="20, 10")

        def run_trials(cfg, cells):
            ran.append(cells)  # each forked worker appends to its own copy
            if len(ran) == 2:
                self._raise()
            return real(cfg, cells)

        monkeypatch.setattr(laoa.montecarlo, "run_trials", run_trials)
        with pytest.raises(ValueError, match="raised in a worker"):
            monte_carlo(cfg, workers=2)
        assert multiprocessing.active_children() == []


# the caller, in its own process, under the start method sys.argv[2]: writes both workers' pids to
# stdout once it has started them; a patched run_trials would not reach a spawned worker, so a
# thread watches the caller's children instead
_KILLED_CALLER = """
import multiprocessing, os, sys, threading, time
import laoa.montecarlo
from laoa import parse_config

def report():
    while len(workers := multiprocessing.active_children()) < 2:
        time.sleep(0.01)
    os.write(1, b"".join(b"%d\\n" % worker.pid for worker in workers))

multiprocessing.set_start_method(sys.argv[2])
threading.Thread(target=report, daemon=True).start()
laoa.montecarlo.monte_carlo(parse_config(sys.argv[1]), workers=2)
"""


def _running(pid):
    # an exited worker that its new parent has not reaped yet is a zombie, and counts as gone
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="the workers are found through /proc")
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_workers_exit_once_their_caller_is_killed(method):
    # each worker's share is 12000 trials at M = 3000, two per stack: ~40 s of work, against a
    # few ms per stack, so a worker that ran its share out after its caller was killed would
    # outlive the kill by far more than the 5 s allowed, and one whose next send fails does not;
    # under a fork server the caller is not the workers' parent, so their parent cannot tell
    # them that the caller is gone
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    text = serialize_config(_cfg(m=4, M=3000, snr_db_list="0, 10, 20, 30", trials=6000))
    src = os.path.dirname(os.path.dirname(laoa.montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER, text, method], stdout=subprocess.PIPE, env=env)
    workers = []
    try:
        while len(workers) < 2:
            line = caller.stdout.readline()
            assert line, "the caller ended before both workers started"
            workers.append(int(line))
        caller.kill()
        # killed, not finished: the workers still had their shares to return
        assert caller.wait() == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
