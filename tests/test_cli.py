import numpy as np
import pytest

from laoa import ArrayConfig, DirectionPair, SnapshotMatrix, SourceSet, Subarray, synthesize, write_matrix_file
from laoa.cli import main

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


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "report.csv"
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.format(out=out))
    return path, out


def test_simulate(config_file, capsys):
    path, _ = config_file
    assert main(["simulate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("source,theta_true")
    fields = lines[1].split(",")
    assert abs(float(fields[3])) < 1e-6  # theta error at SNR 300 dB


def test_simulate_rejects_snr_outside_the_list(config_file, capsys):
    path, _ = config_file
    assert main(["simulate", "--config", str(path), "--snr-db", "20"]) == 1
    assert "snr_db_list" in capsys.readouterr().err


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


def test_montecarlo_writes_csv(config_file):
    path, out = config_file
    assert main(["montecarlo", "--config", str(path)]) == 0
    text = out.read_text()
    assert text.startswith("snr_db,source_index,")
    assert len(text.strip().split("\n")) == 2


def test_montecarlo_seed_override_changes_output(config_file, tmp_path):
    path, out = config_file
    cfg_text = path.read_text().replace("300", "10")
    path.write_text(cfg_text)
    main(["montecarlo", "--config", str(path)])
    first = out.read_text()
    main(["montecarlo", "--config", str(path), "--seed", "7"])
    assert out.read_text() != first


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


def test_estimate_rejects_swapped_files(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path)
    rc = main(["estimate", "--z-file", str(xf), "--x-file", str(zf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--z-file holds a matrix tagged X" in captured.err
    assert captured.out == ""


def test_estimate_rejects_unequal_snapshot_counts(tmp_path, capsys):
    zf, xf = _write_pair(tmp_path, x_snapshots=40)
    rc = main(["estimate", "--z-file", str(zf), "--x-file", str(xf), "--q", "1", "--spacing-ratio", "0.5"])
    assert rc == 2
    assert "snapshot counts differ: 50 vs 40" in capsys.readouterr().err


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
    [("snr_db_list = 300", "snr_db_list = 300, nan"), ("snr_db_list = 300", "snr_db_list = -inf"),
     ("trials = 2", "trials = 2\npower = nan"), ("trials = 2", "trials = 2\npower = inf")],
    ids=["snr_nan", "snr_minus_inf", "power_nan", "power_inf"],
)
def test_montecarlo_rejects_non_finite_noise_before_any_trial(config_file, capsys, old, new):
    path, out = config_file
    path.write_text(path.read_text().replace(old, new))
    assert main(["montecarlo", "--config", str(path)]) == 2
    assert "non-finite noise variance" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = not-a-number\n")
    assert main(["montecarlo", "--config", str(bad)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["montecarlo", "--config", str(tmp_path / "nope.cfg")]) == 2
