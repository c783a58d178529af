import multiprocessing
import os
import time
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

import laoa.estimator
import laoa.montecarlo
from laoa import DirectionPair, parse_config
from laoa.montecarlo import (
    CSV_HEADER,
    STACK_BYTES,
    _cut,
    _match_to_truth,
    default_workers,
    monte_carlo,
    run_trial,
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
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

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


class TestDefaultWorkers:
    # os.cpu_count is patched, so no test here depends on the machine or starts a pool

    @pytest.mark.parametrize(
        "env, cpus, expected", [(None, 3, 1), ("2", 3, 2), ("1000000", 3, 3), ("4", None, 1)]
    )
    def test_aoa_threads_is_capped_at_the_cpu_count(self, monkeypatch, env, cpus, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        if env is None:
            monkeypatch.delenv("AOA_THREADS", raising=False)
        else:
            monkeypatch.setenv("AOA_THREADS", env)
        assert default_workers() == expected

    @pytest.mark.parametrize("env, message", [("0", ">= 1"), ("two", "integer")])
    def test_invalid_values_are_rejected(self, monkeypatch, env, message):
        monkeypatch.setenv("AOA_THREADS", env)
        with pytest.raises(ValueError, match=message):
            default_workers()


def _same(a, b):
    # two run_trials results: equal errors (NaN rows alike) and failures
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[:2], b[:2])) and a[2] == b[2]


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
            assert _stacked_match(trials, truth) == [_loop_match(est, truth) for est in trials]

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
        # the stack builds the steering matrices once, but every draw stays on the trial's stream,
        # at its own SNR point's noise variance, also where the stack straddles two points
        cfg = _cfg(q=2, sources="30/40, 70/120", signal_model=signal_model, trials=7, snr_db_list="0, 10")
        cells = [(0, 5), (0, 6), (1, 0), (1, 1), (1, 2)]
        stacks, real = [], laoa.montecarlo.estimate_stack
        monkeypatch.setattr(laoa.montecarlo, "estimate_stack", lambda Y, *a: stacks.append(Y.copy()) or real(Y, *a))
        laoa.montecarlo.run_trials(cfg, cells)
        for Y, (snr_index, trial_index) in zip(stacks[0], cells, strict=True):
            rng = np.random.default_rng(trial_seed(cfg.seed, snr_index, trial_index))
            sigma2 = cfg.noise_variance(cfg.snr_db_list[snr_index])
            Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, sigma2, rng)
            assert np.array_equal(Y, np.vstack([Z.data, X.data]))

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
        class InProcessContext:
            Pipe = staticmethod(multiprocessing.Pipe)

            @staticmethod
            def Process(target, args):
                shares.append([len(cells) for cells in args[2]])
                return SimpleNamespace(start=lambda: target(*args), join=lambda: None, terminate=lambda: None)

        shares, ran, real = [], [], laoa.montecarlo.run_trials
        cfg = _cfg(trials=trials, snr_db_list=snr_db_list)
        serial = monte_carlo(cfg, workers=1).to_csv()
        monkeypatch.setattr(laoa.montecarlo, "multiprocessing", SimpleNamespace(get_context=lambda: InProcessContext))
        monkeypatch.setattr(laoa.montecarlo, "run_trials", lambda cfg, cells: ran.append(len(cells)) or real(cfg, cells))
        assert monte_carlo(cfg, workers=workers).to_csv() == serial
        assert shares == started
        # the stub runs each share as its worker starts
        assert ran == ([n for share in started for n in share] or [trials])

    def test_workers_do_not_change_bytes(self):
        cfg = _cfg(trials=6, snr_db_list="20, 10")
        serial = monte_carlo(cfg, workers=1).to_csv()
        parallel = monte_carlo(cfg, workers=3).to_csv()
        assert serial == parallel
        assert multiprocessing.active_children() == []

    def test_rmse_bias_consistency(self):
        cfg = _cfg(trials=20, snr_db_list="10")
        for row in monte_carlo(cfg).rows:
            if row["rmse_theta_deg"] is not None:
                assert row["rmse_theta_deg"] >= abs(row["bias_theta_deg"]) - 1e-12
                assert row["rmse_phi_deg"] >= abs(row["bias_phi_deg"]) - 1e-12
            assert row["failure_count"] + row["trials"] >= row["trials"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the workers must inherit the patch")
class TestWorkerFailures:
    # a failing worker stops the sweep, and no worker process outlives it
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
