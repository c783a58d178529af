import warnings
from dataclasses import replace

import numpy as np
import pytest

import laoa.cli
from laoa import (
    ArrayConfig, DirectionPair, SnapshotMatrix, SourceSet, Subarray, load_config, read_matrix_file, synthesize,
    write_matrix_file,
)
from laoa.cli import main
from laoa.errors import AoaError, ConvergenceFailure
from laoa.estimator import estimate_stack
from laoa.montecarlo import run_trials, trial_seed

CONFIG = """\
m = 8
spacing_ratio = 0.5
M = 50
q = 1
sources = 60/45
signal_model = unit_power_random_phase
snr_db_list = 300
trials = 2
seed = 42
mode = truncated_svd
output_path = {out}
"""


@pytest.fixture(autouse=True)
def _no_inherited_aoa_threads(monkeypatch):
    # a test that needs AOA_THREADS sets it itself
    monkeypatch.delenv("AOA_THREADS", raising=False)


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "report.csv"
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.format(out=out))
    return path, out


@pytest.fixture
def rank_deficient_config(config_file):
    # m = 4 and M = 3 at q = 2, noise-free QPSK then 40 dB: of its 400 trials, some reduce the
    # truncation rank of both subarrays, some of those then fail, and some pair ambiguously
    path, out = config_file
    path.write_text(path.read_text().replace("m = 8", "m = 4").replace("M = 50", "M = 3").replace("q = 1", "q = 2")
                    .replace("sources = 60/45", "sources = 30/40, 70/120").replace("unit_power_random_phase", "qpsk")
                    .replace("snr_db_list = 300", "snr_db_list = inf, 40").replace("trials = 2", "trials = 200")
                    .replace("seed = 42", "seed = 1"))
    return path, out


def _flag_lines(reduced, ambiguous):
    # the stderr lines of one trial's flags at q = 2
    lines = [f"# warning: {name} truncation rank reduced from 2 to {rank}" for name, rank in zip("ZX", reduced) if rank >= 0]
    return lines + ["# warning: pairing ambiguous"] * bool(ambiguous)


def _simulate_failure(path, trial):
    # the estimator error that `aoa simulate` hands to main to report for a failing trial
    args = laoa.cli._build_parser().parse_args(["simulate", "--config", str(path), "--trial", str(trial)])
    with pytest.raises(AoaError) as info:
        laoa.cli._cmd_simulate(args)
    return info.value


def _key(exc):
    # a failure as a comparable value: its class and its message
    return type(exc), str(exc)


def test_simulate(config_file, capsys):
    path, _ = config_file
    assert main(["simulate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("source,theta_true")
    fields = lines[1].split(",")
    assert abs(float(fields[3])) < 1e-6  # theta error at SNR 300 dB


def test_simulate_seed_override_is_the_config_seed(config_file, capsys):
    path, _ = config_file
    path.write_text(path.read_text().replace("snr_db_list = 300", "snr_db_list = 10"))
    assert main(["simulate", "--config", str(path)]) == 0
    own = capsys.readouterr().out
    assert main(["simulate", "--config", str(path), "--seed", "7"]) == 0
    overridden = capsys.readouterr().out
    path.write_text(path.read_text().replace("seed = 42", "seed = 7"))
    assert main(["simulate", "--config", str(path)]) == 0
    assert overridden == capsys.readouterr().out != own


def test_simulate_reports_a_failing_trial_as_a_data_error(config_file, capsys):
    # q = 5 at -10 dB: the trial that fails first is found through run_trials, which the CLI also runs
    path, _ = config_file
    path.write_text(path.read_text().replace("M = 50", "M = 64").replace("q = 1", "q = 5")
                    .replace("sources = 60/45", "sources = 30/40, 60/100, 100/60, 140/130, 80/150")
                    .replace("snr_db_list = 300", "snr_db_list = -10").replace("trials = 2", "trials = 10"))
    failures = run_trials(load_config(path), [(0, t) for t in range(10)])[2]
    trial, failure = next((t, f) for t, f in enumerate(failures) if f is not None)
    assert main(["simulate", "--config", str(path), "--trial", str(trial)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {failure}\n" and captured.out == ""
    assert _key(_simulate_failure(path, trial)) == _key(failure)


def test_simulate_prints_its_trials_flags(rank_deficient_config, capsys):
    # an ambiguous trial and a failing one, each of which reduced both subarrays' truncation rank
    path, _ = rank_deficient_config
    _, _, failures, reduced, ambiguous = run_trials(load_config(path), [(0, t) for t in range(200)])
    flagged = np.flatnonzero(np.all(reduced >= 0, axis=1))
    passed = next(t for t in flagged if ambiguous[t])
    failed = next(t for t in flagged if failures[t] is not None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path), "--trial", str(passed)]) == 0
        assert capsys.readouterr().err == "\n".join(_flag_lines(reduced[passed], True)) + "\n"
        assert main(["simulate", "--config", str(path), "--trial", str(failed)]) == 2
        err = capsys.readouterr().err
    assert err == "\n".join(_flag_lines(reduced[failed], False) + [f"error: {failures[failed]}"]) + "\n"
    assert _key(_simulate_failure(path, failed)) == _key(failures[failed])


def test_simulate_rejects_snr_outside_the_list(config_file, capsys):
    path, _ = config_file
    assert main(["simulate", "--config", str(path), "--snr-db", "20"]) == 1
    assert "snr_db_list" in capsys.readouterr().err


def test_simulate_rejects_a_negative_trial(config_file, capsys):
    path, _ = config_file
    assert main(["simulate", "--config", str(path), "--trial", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--trial must be >= 0" in captured.err and captured.out == ""


@pytest.mark.parametrize("trial", ["2", str(2**64)])
def test_simulate_rejects_a_trial_at_or_past_trials(config_file, capsys, trial):
    # the config has trials = 2; 2**64 would otherwise seed the stream of trial 0
    path, _ = config_file
    assert main(["simulate", "--config", str(path), "--trial", trial]) == 1
    captured = capsys.readouterr()
    assert "< trials = 2" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
@pytest.mark.parametrize("theta", ["0.5", "179.5"])
def test_a_source_near_the_z_axis_fails_before_any_trial(config_file, command, theta, capsys):
    path, out = config_file
    path.write_text(path.read_text().replace("sources = 60/45", f"sources = {theta}/45"))
    assert main([command, "--config", str(path)]) == 2
    assert f"source 0 at theta = {theta} deg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_unusable_scenario_fails_before_any_trial(config_file, command, capsys):
    path, out = config_file
    path.write_text(path.read_text().replace("m = 8", "m = 4").replace("q = 1", "q = 3")
                    .replace("sources = 60/45", "sources = 30/40, 70/120, 110/60"))
    assert main([command, "--config", str(path)]) == 2
    assert "q <= m - 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_pairing_budget_fails_before_any_trial(config_file, command, capsys):
    path, out = config_file
    path.write_text(path.read_text().replace("m = 8", "m = 10").replace("q = 1", "q = 8")
                    .replace("sources = 60/45", "sources = 41/166, 145/142, 87/47, 132/158, "
                             "57/96, 82/159, 26/127, 106/15"))
    assert main([command, "--config", str(path)]) == 2
    assert "pairings" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_writes_csv(config_file, capsys):
    path, out = config_file
    assert main(["montecarlo", "--config", str(path)]) == 0
    text = out.read_text()
    assert text.startswith("snr_db,source_index,")
    assert len(text.strip().split("\n")) == 2
    # no trial is flagged, so no count line is printed
    assert capsys.readouterr().err == f"wrote {out}\n"


def test_montecarlo_prints_one_count_line_per_flag(rank_deficient_config, capsys, monkeypatch):
    # the same CSV and the same two lines at one and two workers, and no Python warning
    path, out = rank_deficient_config
    _, _, _, reduced, ambiguous = run_trials(load_config(path), [(si, t) for si in range(2) for t in range(200)])
    counts = np.count_nonzero(np.any(reduced >= 0, axis=1)), np.count_nonzero(ambiguous)
    assert all(counts)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AOA_THREADS", threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["montecarlo", "--config", str(path)]) == 0
        runs.append((out.read_text(), capsys.readouterr().err))
    assert runs[0] == runs[1]
    assert runs[0][1] == (
        f"# warning: truncation rank reduced in {counts[0]} of 400 trials\n"
        f"# warning: pairing ambiguous in {counts[1]} of 400 trials\n"
        f"wrote {out}\n"
    )


def test_montecarlo_seed_override_changes_output(config_file, tmp_path):
    path, out = config_file
    cfg_text = path.read_text().replace("300", "10")
    path.write_text(cfg_text)
    main(["montecarlo", "--config", str(path)])
    first = out.read_text()
    main(["montecarlo", "--config", str(path), "--seed", "7"])
    assert out.read_text() != first


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_an_out_of_range_seed_is_a_usage_error(config_file, command, seed, capsys):
    # exit 1 with a message naming the flag, as a bad --trial gets, and no CSV opened
    path, out = config_file
    assert main([command, "--config", str(path), "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seed {seed}: seed must be a 64-bit unsigned integer\n"
    assert not out.exists()


def _write_pair(tmp_path, x_snapshots=50, m=8):
    cfg = ArrayConfig(m=m, spacing_ratio=0.5)
    src = SourceSet(directions=(DirectionPair(60, 45),))
    Z, X, _ = synthesize(src, cfg, 50, 0.0, np.random.default_rng(1))
    zf, xf = tmp_path / "z.mat", tmp_path / "x.mat"
    write_matrix_file(Z, zf)
    write_matrix_file(SnapshotMatrix(X.data[:, :x_snapshots], Subarray.X), xf)
    return zf, xf


def test_estimate_from_files(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path)
    rc = main([
        "estimate", "--z-file", str(zf), "--x-file", str(xf),
        "--q", "1", "--spacing-ratio", "0.5", "--mode", "noiseless",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # every field must parse, so no numpy repr such as np.float64(...) leaks out
    values = [float(f) for f in out.strip().split("\n")[1].split(",")]
    assert values[1] == pytest.approx(60.0, abs=1e-6)
    assert values[2] == pytest.approx(45.0, abs=1e-6)


@pytest.mark.parametrize("q, M", [(1, 64), (2, 2000), (5, 64)])
def test_estimate_prints_row_0_of_the_stack_estimate(tmp_path, capsys, q, M):
    # stdout is the header plus the repr of each field of estimate_stack's row 0, in column
    # order, and stderr opens with the repr of its pairing residual
    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    pairs = ((30, 40), (60, 100), (100, 60), (140, 130), (80, 150))[:q]
    src = SourceSet(tuple(DirectionPair(t, p) for t, p in pairs))
    Z, X, _ = synthesize(src, cfg, M, 0.01, np.random.default_rng(q))
    zf, xf = tmp_path / "z.mat", tmp_path / "x.mat"
    write_matrix_file(Z, zf)
    write_matrix_file(X, xf)
    assert main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", str(q), "--spacing-ratio", "0.5"]) == 0
    out, err = capsys.readouterr()
    est = estimate_stack(np.vstack([read_matrix_file(zf).data, read_matrix_file(xf).data])[None], q, cfg)
    columns = (est.theta_deg, est.phi_deg, est.psi_hat, est.xi_hat, est.mag_z, est.mag_x)
    rows = [",".join([repr(i)] + [repr(float(a[0, i])) for a in columns]) for i in range(q)]
    header = "source,theta_deg,phi_deg,psi_hat,xi_hat,root_magnitude_z,root_magnitude_x"
    assert out == "\n".join([header, *rows]) + "\n"
    assert err.split("\n")[0] == f"# pairing_residual = {float(est.pairing_residual[0])!r}"


def test_estimate_warns_of_an_ambiguous_pairing(tmp_path, capsys, monkeypatch):
    zf, xf = _write_pair(tmp_path)
    args = ["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"]
    assert main(args) == 0
    plain = capsys.readouterr()
    assert "ambiguous" not in plain.err
    real = laoa.cli.estimate_2d_aoa
    monkeypatch.setattr(laoa.cli, "estimate_2d_aoa", lambda *a: replace(real(*a), pairing_ambiguous=np.array([True])))
    assert main(args) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain.out
    assert flagged.err == plain.err + "# warning: pairing ambiguous\n"


def test_estimate_reports_each_flag_once(rank_deficient_config, tmp_path, capsys):
    # an ambiguous trial of the rank-deficient config, written to matrix files: each flag is one
    # line, with no Python warning beside it
    path, _ = rank_deficient_config
    cfg = load_config(path)
    _, _, _, reduced, ambiguous = run_trials(cfg, [(0, t) for t in range(200)])
    trial = int(np.flatnonzero(ambiguous)[0])
    rng = np.random.default_rng(trial_seed(cfg.seed, 0, trial))
    Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, 0.0, rng)
    zf, xf = tmp_path / "z.mat", tmp_path / "x.mat"
    write_matrix_file(Z, zf)
    write_matrix_file(X, xf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "2", "--spacing-ratio", "0.5"]) == 0
    assert capsys.readouterr().err.split("\n")[1:] == [*_flag_lines(reduced[trial], True), ""]


def test_estimate_rejects_unequal_subarray_sizes(tmp_path, capsys):
    zf, _ = _write_pair(tmp_path)
    (tmp_path / "m6").mkdir()
    _, xf = _write_pair(tmp_path / "m6", m=6)
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    # estimate_2d_aoa's shape rule, the only check of it
    assert captured.err == "error: Z is 8 x 50 and X is 6 x 50; both must be 8 x M\n" and captured.out == ""


def test_estimate_rejects_swapped_files(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path)
    rc = main(["estimate", "--z-file", str(xf), "--x-file", str(zf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--z-file holds a matrix tagged X" in captured.err
    assert captured.err == "error: --z-file holds a matrix tagged X, expected Z\n"
    assert captured.out == ""


def test_estimate_rejects_unequal_snapshot_counts(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path, x_snapshots=40)
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: Z is 8 x 50 and X is 8 x 40; both must be 8 x M\n" and captured.out == ""


@pytest.mark.parametrize("q, rule", [("8", "pairings"), ("0", "q <= m - 2")])
def test_estimate_rejects_an_unsupported_q_before_any_svd(tmp_path, capsys, monkeypatch, q, rule):
    zf, xf = _write_pair(tmp_path, m=10)
    svd_calls, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or real_svd(*a, **k))
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", q, "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert rule in captured.err
    assert captured.out == ""
    assert svd_calls == []


def test_estimate_reports_an_overflowing_solve_as_a_data_error(tmp_path, capsys):
    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    src = SourceSet(directions=(DirectionPair(30, 40), DirectionPair(70, 120)))
    Z, X, _ = synthesize(src, cfg, 200, 0.01, np.random.default_rng(2))
    zf, xf = tmp_path / "z.mat", tmp_path / "x.mat"
    write_matrix_file(SnapshotMatrix(1e307 * Z.data, Subarray.Z), zf)
    write_matrix_file(SnapshotMatrix(1e307 * X.data, Subarray.X), xf)
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "2", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "coefficient solve" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("entry", ["inf:0", "nan:0"])
def test_estimate_rejects_a_non_finite_entry_before_any_svd(tmp_path, capsys, monkeypatch, entry):
    zf, xf = _write_pair(tmp_path)
    lines = zf.read_text().split("\n")
    lines[2] = " ".join([entry] + lines[2].split()[1:])
    zf.write_text("\n".join(lines))
    svd_calls, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or real_svd(*a, **k))
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "(line 3, column 1)" in captured.err
    assert captured.out == ""
    assert svd_calls == []


def test_estimate_rejects_a_degenerate_header(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path)
    zf.write_text("aoa-matrix 1 1 2 Z\n1:0 2:0\n")
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "need rows >= 2 and cols >= 1 (line 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where", ["comment", "entry"])
def test_estimate_names_the_file_that_is_not_ascii(tmp_path, capsys, where):
    zf, xf = _write_pair(tmp_path)
    lines = xf.read_bytes().split(b"\n")
    if where == "comment":
        lines.insert(1, "# café".encode())
    else:
        lines[3] = "é".encode() + lines[3]
    xf.write_bytes(b"\n".join(lines))
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: --x-file {xf}: not ASCII text" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--z-file", "--x-file"])
def test_estimate_names_the_file_that_fails_to_parse(tmp_path, capsys, flag):
    zf, xf = _write_pair(tmp_path)
    bad = zf if flag == "--z-file" else xf
    lines = bad.read_text().split("\n")
    lines[3] = " ".join(["nope"] + lines[3].split()[1:])
    bad.write_text("\n".join(lines))
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"error: {flag} {bad}: bad complex entry 'nope' (line 4, column 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "old, new",
    [("snr_db_list = 300", "snr_db_list = 300, nan"), ("snr_db_list = 300", "snr_db_list = -inf")],
    ids=["snr_nan", "snr_minus_inf"],
)
def test_montecarlo_rejects_non_finite_noise_before_any_trial(config_file, capsys, old, new):
    path, out = config_file
    path.write_text(path.read_text().replace(old, new))
    assert main(["montecarlo", "--config", str(path)]) == 2
    assert "non-finite noise variance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("power", ["0", "2"])
def test_montecarlo_rejects_a_power_key(config_file, capsys, power):
    # sources have unit power and the SNR alone sets the noise; power = 0 once gave an all-empty report
    path, out = config_file
    path.write_text(path.read_text() + f"power = {power}\n")
    assert main(["montecarlo", "--config", str(path)]) == 2
    assert "unknown keys: power" in capsys.readouterr().err
    assert not out.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("monte_carlo ran")


def test_montecarlo_checks_the_output_before_any_trial(config_file, capsys, monkeypatch, tmp_path):
    path, _ = config_file
    monkeypatch.setattr("laoa.cli.monte_carlo", _no_sweep)
    out = tmp_path / "no-such-dir" / "x.csv"
    assert main(["montecarlo", "--config", str(path), "--output", str(out)]) == 2
    assert "no-such-dir" in capsys.readouterr().err
    assert not out.parent.exists()


def test_montecarlo_checks_aoa_threads_before_any_trial(config_file, capsys, monkeypatch):
    path, out = config_file
    monkeypatch.setattr("laoa.cli.monte_carlo", _no_sweep)
    monkeypatch.setenv("AOA_THREADS", "0")
    assert main(["montecarlo", "--config", str(path)]) == 2
    assert "AOA_THREADS must be >= 1" in capsys.readouterr().err
    assert not out.exists()


class TestAoaThreads:
    # os.cpu_count is patched, so no test here depends on the machine or starts a worker

    @pytest.mark.parametrize(
        "env, cpus, expected", [(None, 3, 1), ("2", 3, 2), ("1000000", 3, 3), ("4", None, 1)]
    )
    def test_aoa_threads_is_capped_at_the_cpu_count(self, monkeypatch, env, cpus, expected):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        if env is not None:
            monkeypatch.setenv("AOA_THREADS", env)
        assert laoa.cli._workers() == expected

    @pytest.mark.parametrize("env, message", [("0", ">= 1"), ("two", "integer")])
    def test_invalid_values_are_rejected(self, monkeypatch, env, message):
        monkeypatch.setenv("AOA_THREADS", env)
        with pytest.raises(ValueError, match=message):
            laoa.cli._workers()


def test_a_failed_sweep_leaves_no_csv(config_file, monkeypatch):
    path, out = config_file

    def failing_sweep(cfg, workers):
        assert out.exists()  # opened before the first trial
        raise ConvergenceFailure("every worker failed")

    monkeypatch.setattr("laoa.cli.monte_carlo", failing_sweep)
    assert main(["montecarlo", "--config", str(path)]) == 2
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_a_usage_error_leaves_the_parser_as_a_fresh_one(config_file, capsys):
    # main builds its parser once per process: a call after a usage error (a bad --trial, parsed
    # after --config) prints what it prints with a parser built afresh
    path, _ = config_file
    calls = [["simulate", "--config", "other.cfg", "--trial", "x"], ["simulate", "--config", str(path)]]
    fresh = []
    for argv in calls:
        laoa.cli._build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert [code for code, _ in fresh] == [1, 0]
    assert [(main(argv), capsys.readouterr()) for argv in calls] == fresh
    assert laoa.cli._build_parser() is laoa.cli._build_parser()


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = not-a-number\n")
    assert main(["montecarlo", "--config", str(bad)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["montecarlo", "--config", str(tmp_path / "nope.cfg")]) == 2
