#!/usr/bin/env python3
"""laoa benchmark: seeded Monte Carlo sweeps and `aoa estimate` calls.

    python3 bench/run.py --workload mc_readme --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20 --trace 1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` the run reports the end-to-end metrics,
with `--trace 1` the per-layer split (1 worker, in process).  Every run checks
the program's outputs.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
bench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from layers import FAILURE_TYPES, LAYERS, Tracer

RUN_PY = str(Path(__file__).resolve())
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
# Untimed units first: the first estimate calls of a process run 2-3x slower.
WARMUP_S = 1.0

# The shared 2-core machine the baseline was measured on changes speed by up to 1.8x
# in phases that last seconds, and each core can be in a different phase.
# Timing metrics are therefore scaled by the speed of the core doing the work,
# measured around each timed unit (and in each set-up process) with a fixed
# pure-Python loop that touches neither laoa nor numpy:
#     scaled time = raw time * CAL_REF_S / calibration time.
# CAL_REF_S is the loop's median time on that machine; it only sets the scale.
CAL_REF_S = 0.0084
_CAL_TEXT = " ".join(f"{0.1 * i!r}:{-0.3 * i!r}" for i in range(1, 400))


def calibration_s() -> float:
    """Seconds taken by the calibration loop: float parsing and complex arithmetic."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(16):
        for tok in _CAL_TEXT.split():
            re_s, im_s = tok.split(":")
            z = complex(float(re_s), float(im_s))
            acc += abs(z) + (z * z.conjugate()).real
    return time.perf_counter() - t0


# name -> unit; reported with --trace 0 on every workload.
END_TO_END = {
    "trials_per_s": "trials/s",
    "trial_success_ratio": "ratio",
    "estimate_ms_p50": "ms",
    "estimate_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit; reported with --trace 1 on every workload (0 where the layer does not run).
PER_LAYER = {
    "linalg.svd.us_p50": "us",
    "linalg.solve_coeffs.self_us_p50": "us",
    "rooting.find_roots.us_p50": "us",
    "rooting.select_unit_roots.us_p50": "us",
    "estimator.pair_and_recover.us_p50": "us",
    "estimator.estimate_2d_aoa.self_us_p50": "us",
    "array_model.steering_vector.calls_per_op": "count",
    "synthesis.synthesize.us_p50": "us",
    "synthesis.build_lp_system.us_p50": "us",
    "montecarlo.run_trial.self_us_p50": "us",
    "montecarlo.aggregate_ms": "ms",
    "montecarlo.trial_failure_ratio": "ratio",
    **{f"montecarlo.failures.{t}": "count" for t in FAILURE_TYPES},
    "montecarlo.failures.other": "count",
    "montecarlo.pool.scaling_eff": "ratio",
    "montecarlo.pool.scaling_eff_blas1": "ratio",
    "matio.read_matrix_file.ms_p50": "ms",
    "matio.read_matrix_file.mb_per_s": "MB/s",
    "matio.write_matrix_file.mb_per_s": "MB/s",
    "cli.main.self_ms_p50": "ms",
    "config.parse_config.us": "us",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.missing": "count",
}


@dataclass
class Measurement:
    """Timed units (sweeps or estimate calls) of one run."""

    ms_per_op: list = field(default_factory=list)
    speed: list = field(default_factory=list)    # CAL_REF_S / mean calibration time around the unit
    traced: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    trial_failures: int = 0
    failed_ops: int = 0
    problems: list = field(default_factory=list)

    def total(self, values, traced=None):
        return sum(v for v, t in zip(values, self.traced) if traced is None or t == traced)


def run_unit(laoa, w, files, seed, i, workers, tracer=None):
    """One timed unit: a sweep or an estimate call.

    Returns (seconds, counted trial failures, problems); `tracer`, if given,
    is installed for exactly the timed call.
    """
    if w.kind == "mc":
        cfg = laoa.config.parse_config(wl.config_text(w, w.sweep_trials, wl.sweep_seed(seed, i)))
        call = lambda: laoa.montecarlo.monte_carlo(cfg, workers=workers).to_csv()
    else:
        z_path, x_path = files[i % len(files)]
        call = lambda: wl.estimate_call(laoa, w, z_path, x_path)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = call()
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if w.kind == "mc":
        return dt, wl.failure_count(out), wl.sanity_problems(w, out)
    return dt, 0, wl.estimate_problems(w, *out)


def measure(laoa, w, files, seed, seconds, tracer=None) -> Measurement:
    """Warm up for WARMUP_S, then run units back to back for `seconds` (at least one each).

    The calibration loop runs before every unit and once after the last; a
    unit's speed is taken from the two calibrations around it.  With a tracer,
    sweeps run at 1 worker and every other measured unit is traced.  A unit
    that raises is counted as measured and failed, and ends the run.
    """
    m = Measurement()
    workers = w.workers if tracer is None else 1
    n = w.sweep_trials * len(w.snr_db) if w.kind == "mc" else 1
    warm_until = time.perf_counter() + WARMUP_S
    measure_until = None
    calibrations = []
    i = 0
    while True:
        now = time.perf_counter()
        if measure_until is None and i > 0 and now >= warm_until:
            measure_until = now + seconds
        elif measure_until is not None and m.ops and now >= measure_until:
            break
        traced = measure_until is not None and tracer is not None and len(m.traced) % 2 == 0
        calibration = calibration_s()
        raised = False
        t0 = time.perf_counter()
        try:
            dt, failures, problems = run_unit(laoa, w, files, seed, i, workers, tracer if traced else None)
        except Exception:
            traceback.print_exc()
            dt, failures, problems, raised = time.perf_counter() - t0, 0, ["raised; traceback on stderr"], True
        m.problems.extend(f"unit {i}: {p}" for p in problems)
        i += 1
        if measure_until is not None or raised:
            calibrations.append(calibration)
            m.ms_per_op.append(dt * 1e3 / n)
            m.traced.append(traced)
            m.ops.append(n)
            m.seconds.append(dt)
            m.trial_failures += failures
            m.failed_ops += n if problems else 0
        if raised:
            break
    calibrations.append(calibration_s())
    m.speed = [2 * CAL_REF_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]
    return m


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_child(args, problems, env=None):
    """Run this script in a child mode and return the numbers on its last stdout line.

    A child that fails or times out adds to `problems` and returns None.
    """
    try:
        proc = subprocess.run(
            [sys.executable, RUN_PY, *args], cwd=wl.ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode == 0:
            return [float(x) for x in proc.stdout.splitlines()[-1].split()]
        problems.append(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    except subprocess.TimeoutExpired:
        problems.append(f"child {args[0]} ran over {CHILD_TIMEOUT_S} s")
    except (IndexError, ValueError):
        problems.append(f"child {args[0]} printed no number")
    return None


def scaling_eff(w, seed, pin_blas, problems) -> float:
    env = dict(os.environ)
    if pin_blas:
        env.update({v: "1" for v in BLAS_THREAD_VARS})
    eff = run_child(["--scaling-child", w.to_json(), "--seed", str(seed)], problems, env=env)
    return 0.0 if eff is None else eff[0]


def scaling_child(w, seed) -> float:
    """2-worker trials/s over twice the 1-worker trials/s on one short config.

    After one warm-up sweep the sweeps run in the order 1, 2, 2, 1 workers so
    that a drift in machine speed affects both sides alike.
    """
    laoa = wl.import_laoa()
    cfg = laoa.config.parse_config(wl.config_text(w, w.scaling_trials, seed))
    laoa.montecarlo.monte_carlo(cfg, workers=1)
    elapsed = {1: 0.0, 2: 0.0}
    for workers in (1, 2, 2, 1):
        t0 = time.perf_counter()
        laoa.montecarlo.monte_carlo(cfg, workers=workers)
        elapsed[workers] += time.perf_counter() - t0
    return elapsed[1] / (2.0 * elapsed[2])


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "AOA_THREADS": os.environ.get("AOA_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def reference_problems(laoa, w) -> list:
    if w.kind != "mc":
        return []
    try:
        return wl.reference_problems(laoa, w)
    except Exception:
        traceback.print_exc()
        return ["reference sweep raised; traceback on stderr"]


def timed_setup(w, seed, workdir):
    """Files, raw set-up seconds and the machine speed measured just before."""
    speed = CAL_REF_S / calibration_s()
    files, seconds = wl.setup(w, seed, workdir)
    return files, seconds, speed


def run_untraced(w, seed, seconds, workdir):
    files, setup_s, speed = timed_setup(w, seed, workdir)
    setups = [(setup_s, speed)]                  # (raw seconds, speed) per set-up
    laoa = sys.modules["laoa"]
    m = measure(laoa, w, files, seed, seconds)
    peak = peak_rss_mib()
    problems = m.problems + reference_problems(laoa, w)
    for _ in range(wl.SETUP_REPS - 1):
        rep_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        rep = run_child(["--setup-child", w.to_json(), "--seed", str(seed), "--workdir", rep_dir], problems)
        if rep is not None:
            setups.append(tuple(rep))
    ops = sum(m.ops)
    scaled_ms = [v * f for v, f in zip(m.ms_per_op, m.speed)]
    metrics = {
        "trials_per_s": ops / sum(dt * f for dt, f in zip(m.seconds, m.speed)),
        "trial_success_ratio": 1.0 - (m.trial_failures + m.failed_ops) / ops,
        "estimate_ms_p50": wl.percentile(scaled_ms, 50),
        "estimate_ms_p90": wl.percentile(scaled_ms, 90),
        "setup_s": statistics.median(t * f for t, f in setups),
        "peak_rss_mb": peak,
    }
    unit = "sweeps" if w.kind == "mc" else "calls"
    notes = [
        f"samples: {len(m.ms_per_op)} {unit}, {ops} trials, {m.trial_failures} counted trial failures "
        f"(trial_failure_ratio {m.trial_failures / ops:.6g}), {len(setups)} set-ups",
        f"machine speed (CAL_REF_S / calibration time): median {statistics.median(m.speed):.4g}, "
        f"range {min(m.speed):.4g}-{max(m.speed):.4g}",
        f"unscaled: trials_per_s {ops / sum(m.seconds):.6g}, "
        f"estimate_ms_p50 {wl.percentile(m.ms_per_op, 50):.6g}, "
        f"estimate_ms_p90 {wl.percentile(m.ms_per_op, 90):.6g}, "
        f"setup_s {statistics.median(t for t, _ in setups):.6g}",
    ]
    return metrics, END_TO_END, ops, problems, notes


def run_traced(w, seed, seconds, workdir):
    laoa = wl.import_laoa()
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        files, _ = wl.setup(w, seed, workdir)
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    m = measure(laoa, w, files, seed, seconds, tracer)
    problems = m.problems + reference_problems(laoa, w)
    eff = {False: 0.0, True: 0.0}
    if w.kind == "mc":
        # the side that runs first alternates with the seed, so order effects do not favour one
        for pin_blas in (seed % 2 == 0, seed % 2 == 1):
            eff[pin_blas] = scaling_eff(w, seed, pin_blas, problems)

    traced_s = m.total(m.seconds, traced=True)
    traced_ops = m.total(m.ops, traced=True)
    untraced_ms = [v for v, t in zip(m.ms_per_op, m.traced) if not t]
    traced_ms = [v for v, t in zip(m.ms_per_op, m.traced) if t]
    us = lambda key, self_time=False: tracer.median(key, self_time) * 1e6
    trials = tracer.count("montecarlo.run_trial")
    other = sum(c for t, c in tracer.failures.items() if t not in FAILURE_TYPES)
    metrics = {
        "linalg.svd.us_p50": us("linalg.svd"),
        "linalg.solve_coeffs.self_us_p50": us("linalg.solve_coeffs", True),
        "rooting.find_roots.us_p50": us("rooting.find_roots"),
        "rooting.select_unit_roots.us_p50": us("rooting.select_unit_roots"),
        "estimator.pair_and_recover.us_p50": us("estimator.pair_and_recover"),
        "estimator.estimate_2d_aoa.self_us_p50": us("estimator.estimate_2d_aoa", True),
        "array_model.steering_vector.calls_per_op": tracer.count("array_model.steering_vector") / traced_ops,
        "synthesis.synthesize.us_p50": us("synthesis.synthesize"),
        "synthesis.build_lp_system.us_p50": us("synthesis.build_lp_system"),
        "montecarlo.run_trial.self_us_p50": us("montecarlo.run_trial", True),
        "montecarlo.aggregate_ms": tracer.median("montecarlo.monte_carlo", True) * 1e3,
        "montecarlo.trial_failure_ratio": m.trial_failures / sum(m.ops) if w.kind == "mc" else 0.0,
        **{f"montecarlo.failures.{t}": tracer.failures[t] for t in FAILURE_TYPES},
        "montecarlo.failures.other": other,
        "montecarlo.pool.scaling_eff": eff[False],
        "montecarlo.pool.scaling_eff_blas1": eff[True],
        "matio.read_matrix_file.ms_p50": tracer.median("matio.read_matrix_file") * 1e3,
        "matio.read_matrix_file.mb_per_s": tracer.throughput_mb_per_s("matio.read_matrix_file"),
        "matio.write_matrix_file.mb_per_s": setup_tracer.throughput_mb_per_s("matio.write_matrix_file"),
        "cli.main.self_ms_p50": tracer.median("cli.main", True) * 1e3,
        "config.parse_config.us": setup_tracer.median("config.parse_config") * 1e6,
        **{f"{layer}.share": tracer.layer_self(layer) / traced_s for layer in LAYERS},
        "trace.overhead_ratio": (
            statistics.median(traced_ms) / statistics.median(untraced_ms) if untraced_ms else 0.0
        ),
        "trace.missing": len(tracer.missing),
    }
    notes = [
        f"samples: {len(traced_ms)} traced and {len(untraced_ms)} untraced units, "
        f"{traced_ops} traced trials, {trials} run_trial calls",
        f"failures by type: {dict(tracer.failures)}",
        f"missing layer functions: {tracer.missing}",
    ]
    return metrics, PER_LAYER, sum(m.ops), problems, notes


def run_workload(w, seed, seconds, trace) -> dict:
    """One run of one workload; prints its report and returns the result object."""
    work_root = wl.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    try:
        metrics, units, attempted, problems, notes = (run_traced if trace else run_untraced)(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(f"workload {w.name} seed {seed} seconds {seconds} trace {int(trace)}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  env: {json.dumps(environment(), sort_keys=True)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  check: {'ok' if not problems else f'{len(problems)} problems'}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed, seconds, trace) -> dict:
    """Every workload, each in its own process; metrics are keyed `<workload>:<metric>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  workload {name} exited {proc.returncode} without a result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child modes used by the benchmark itself; the workload travels as JSON
    parser.add_argument("--setup-child", metavar="WORKLOAD_JSON", help=argparse.SUPPRESS)
    parser.add_argument("--scaling-child", metavar="WORKLOAD_JSON", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        _, seconds, speed = timed_setup(wl.Workload.from_json(args.setup_child), args.seed, Path(args.workdir))
        print(seconds, speed)
        return 0
    if args.scaling_child:
        print(scaling_child(wl.Workload.from_json(args.scaling_child), args.seed))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    wl.package_dir()  # fail before any output when the checkout has no package
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
