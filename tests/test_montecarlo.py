from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

import laoa.estimator
import laoa.montecarlo
from laoa import DirectionPair, parse_config
from laoa.montecarlo import (
    CSV_HEADER,
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
        theta_err, phi_err, (failure,) = run_trial(cfg, 300.0, 0, 0)
        assert failure is None
        assert abs(theta_err[0, 0]) < 1e-6
        assert abs(phi_err[0, 0]) < 1e-6

    def test_repeatable(self):
        cfg = _cfg()
        a = run_trial(cfg, 20.0, 0, 3)
        b = run_trial(cfg, 20.0, 0, 3)
        assert _same(a, b)

    def test_extreme_noise_never_crashes(self):
        cfg = _cfg(snr_db_list="-100")
        for ti in range(5):
            theta_err, phi_err, (failure,) = run_trial(cfg, -100.0, 0, ti)
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
        assert run_trial(cfg, 20.0, 0, 0)[2] == ["ConvergenceFailure"]
        (row,) = monte_carlo(cfg, workers=1).rows
        assert row["failure_count"] == 3 and row["rmse_theta_deg"] is None

    def test_singular_pairing_is_a_counted_failure(self, monkeypatch):
        # identical (psi, xi) pairs make the pairing normal equations singular
        # one row of angles and root magnitudes per trial of the stack
        monkeypatch.setattr(
            laoa.estimator, "estimate_electrical", lambda B, *a: (np.full((len(B), 2), 0.3), np.ones((len(B), 2)))
        )
        cfg = _cfg(trials=2, q=2, sources="30/40, 70/120")
        assert run_trial(cfg, 20.0, 0, 0)[2] == ["ConvergenceFailure"]
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
        theta_err, _, _ = run_trial(cfg, 300.0, 0, 0)
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
            te = np.array([run_trial(cfg, snr_db, si, ti)[0][0, 0] for ti in range(cfg.trials)])
            assert rows[snr_db]["rmse_theta_deg"] == float(np.sqrt(np.mean(te**2)))
            assert rows[snr_db]["bias_theta_deg"] == float(np.mean(te))

    @pytest.mark.parametrize("M, sizes", [(50, [10, 10, 3]), (5000, [1, 1, 1])])
    def test_stacks_are_cut_by_trial_count_and_snapshot_bytes(self, monkeypatch, M, sizes):
        # at M=5000 one trial's [Z; X] (1.28 MB) already exceeds STACK_BYTES
        cfg = _cfg(M=M, trials=sum(sizes))
        seen, real = [], laoa.montecarlo.run_trials
        monkeypatch.setattr(laoa.montecarlo, "run_trials", lambda c, *a: seen.append(len(a[-1])) or real(c, *a))
        monte_carlo(cfg, workers=1)
        assert seen == sizes

    @pytest.mark.parametrize("signal_model", ["unit_power_random_phase", "qpsk"])
    def test_each_slice_holds_what_synthesize_draws_on_the_trials_stream(self, monkeypatch, signal_model):
        # the stack builds the steering matrices once, but every draw stays on the trial's stream
        cfg = _cfg(q=2, sources="30/40, 70/120", signal_model=signal_model, trials=7, snr_db_list="0")
        stacks, real = [], laoa.montecarlo.estimate_stack
        monkeypatch.setattr(laoa.montecarlo, "estimate_stack", lambda Y, *a: stacks.append(Y.copy()) or real(Y, *a))
        laoa.montecarlo.run_trials(cfg, 0.0, 0, range(2, 7))
        for Y, trial_index in zip(stacks[0], range(2, 7)):
            rng = np.random.default_rng(trial_seed(cfg.seed, 0, trial_index))
            Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, cfg.noise_variance(0.0), rng)
            assert np.array_equal(Y, np.vstack([Z.data, X.data]))

    def test_workers_do_not_change_bytes(self):
        cfg = _cfg(trials=6, snr_db_list="20, 10")
        serial = monte_carlo(cfg, workers=1).to_csv()
        parallel = monte_carlo(cfg, workers=3).to_csv()
        assert serial == parallel

    def test_rmse_bias_consistency(self):
        cfg = _cfg(trials=20, snr_db_list="10")
        for row in monte_carlo(cfg).rows:
            if row["rmse_theta_deg"] is not None:
                assert row["rmse_theta_deg"] >= abs(row["bias_theta_deg"]) - 1e-12
                assert row["rmse_phi_deg"] >= abs(row["bias_phi_deg"]) - 1e-12
            assert row["failure_count"] + row["trials"] >= row["trials"]
