"""Fast self-test of the benchmark: tiny runs emit every metric, and the gate trips.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json

import pytest

import run
import workloads as wl
from layers import Tracer


def tiny(name):
    """The named workload shrunk to one-trial sweeps and at most two file pairs."""
    w = wl.WORKLOADS[name]
    return dataclasses.replace(w, sweep_trials=1, scaling_trials=1, pairs=min(w.pairs, 2))


@pytest.fixture(autouse=True)
def _short(monkeypatch):
    monkeypatch.setattr(wl, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)


def test_benchmark_json_names_the_emitted_workloads_and_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize(
    "name,trace",
    [("mc_readme_2w", 0), ("estimate_files", 0), ("mc_five_sources", 1), ("estimate_files", 1)],
)
def test_tiny_run_emits_every_metric(name, trace, capsys):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    out = capsys.readouterr().out
    assert all(f"  {metric} = " in out for metric in expected)


def _perturbed(reference: str, column: int, change) -> str:
    header, first, *rest = reference.splitlines()
    cells = first.split(",")
    cells[column] = change(cells[column])
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


@pytest.mark.parametrize(
    "column,change,accepted",
    [
        (2, lambda v: repr(float(v) * (1 + 1e-13)), True),   # within the same-behaviour tolerance
        (2, lambda v: repr(float(v) * (1 + 1e-9)), False),   # rmse_theta_deg
        (5, lambda v: repr(float(v) + 1e-9), False),         # bias_phi_deg
        (6, lambda v: str(int(v) + 1), False),               # failure_count
        (3, lambda v: "", False),                            # a statistic went missing
    ],
)
def test_compare_reports(column, change, accepted):
    reference = (wl.REFERENCE_DIR / "mc_five_sources.csv").read_text()
    assert wl.compare_reports(reference, reference) == []
    assert (wl.compare_reports(_perturbed(reference, column, change), reference) == []) == accepted


def test_gate_trips_on_a_perturbed_reference_report(tmp_path, monkeypatch):
    w = tiny("mc_readme")
    reference = (wl.REFERENCE_DIR / w.reference).read_text()
    (tmp_path / w.reference).write_text(_perturbed(reference, 2, lambda v: repr(float(v) * (1 + 1e-9))))
    monkeypatch.setattr(wl, "REFERENCE_DIR", tmp_path)
    result = run.run_workload(w, seed=3, seconds=0, trace=0)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_estimate_check_rejects_wrong_angles():
    w = wl.WORKLOADS["estimate_files"]
    header = "source,theta_deg,phi_deg,psi_hat,xi_hat,root_magnitude_z,root_magnitude_x\n"
    good = header + "0,70.01,119.99,0,0,1,1\n1,30.02,40.0,0,0,1,1\n"
    assert wl.estimate_problems(w, 0, good) == []
    assert wl.estimate_problems(w, 0, good.replace("119.99", "122.5"))
    assert wl.estimate_problems(w, 2, good)


def test_tracer_wraps_every_alias_and_reports_removed_functions(monkeypatch):
    laoa = wl.import_laoa()
    original = laoa.array_model.steering_vector
    monkeypatch.delattr(laoa.estimator, "estimate_electrical")
    tracer = Tracer()
    assert tracer.missing == ["estimator.estimate_electrical"]
    tracer.install()
    try:
        wrapped = laoa.array_model.steering_vector
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert laoa.synthesis.steering_vector is wrapped and laoa.estimator.steering_vector is wrapped
    finally:
        tracer.uninstall()
    assert laoa.synthesis.steering_vector is original and laoa.estimator.steering_vector is original
