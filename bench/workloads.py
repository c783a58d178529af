"""Benchmark workloads: generated inputs, timed operations and correctness checks.

End-to-end code calls only the package's public entry points
(``config.parse_config``, ``montecarlo.monte_carlo``, ``synthesis.synthesize``,
``matio.write_matrix_file`` and ``cli.main``) and looks each one up on its
module at call time, so a traced run can wrap it without editing the package.

Nothing here imports numpy or laoa at module level: set-up time includes the
first import of the package, which must not have been paid already.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
# "Same behaviour" tolerance on report statistics, relative to the row's RMSE scale.
REL_TOL = 1e-12
# An `aoa estimate` answer must land this close to every true angle.
ESTIMATE_TOL_DEG = 1.0
SETUP_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                     # "mc" (Monte Carlo sweeps) or "estimate" (aoa estimate calls)
    M: int
    sources: tuple[tuple[float, float], ...]
    snr_db: tuple[float, ...]
    sweep_trials: int = 0         # mc: trials per SNR point in one timed sweep
    workers: int = 1              # mc: worker processes of the timed sweeps
    ref_trials: int = 0           # mc: trials per SNR point of the default-seed reference sweep
    reference: str = ""           # mc: file name of the stored reference report
    rmse_bound_deg: float = 0.0   # mc: sanity bound on every RMSE at the highest SNR
    scaling_trials: int = 0       # mc: trials per SNR point of the 1- vs 2-worker pair
    pairs: int = 0                # estimate: distinct Z/X file pairs, cycled through
    m: int = 8
    spacing_ratio: float = 0.5

    @property
    def q(self) -> int:
        return len(self.sources)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        fields = json.loads(text)
        fields["sources"] = tuple(tuple(s) for s in fields["sources"])
        fields["snr_db"] = tuple(fields["snr_db"])
        return cls(**fields)


README_SOURCES = ((30.0, 40.0), (70.0, 120.0))
FIVE_SOURCES = ((30.0, 40.0), (60.0, 100.0), (100.0, 60.0), (140.0, 130.0), (80.0, 150.0))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_readme",
            why="README sweep (M=200, q=2) at 1 worker: SVD- and rooting-bound, never fails",
            kind="mc", M=200, sources=README_SOURCES, snr_db=(0.0, 10.0, 20.0, 30.0),
            sweep_trials=10, ref_trials=10, reference="mc_readme.csv",
            rmse_bound_deg=1.0, scaling_trials=40,
        ),
        Workload(
            name="mc_five_sources",
            why="q=5, M=64 down to -10 dB: 120 pairings per trial dominate and trials fail",
            kind="mc", M=64, sources=FIVE_SOURCES, snr_db=(-10.0, 0.0, 10.0, 20.0),
            sweep_trials=5, ref_trials=8, reference="mc_five_sources.csv",
            rmse_bound_deg=5.0, scaling_trials=16,
        ),
        Workload(
            name="estimate_files",
            why="aoa estimate on stored M=2000 Z/X files: matrix-file parsing dominates",
            kind="estimate", M=2000, sources=README_SOURCES, snr_db=(10.0,), pairs=8,
        ),
        Workload(
            name="mc_readme_2w",
            why="README sweep at 2 worker processes: the only run of the process-pool path",
            kind="mc", M=200, sources=README_SOURCES, snr_db=(0.0, 10.0, 20.0, 30.0),
            sweep_trials=25, workers=2, ref_trials=10, reference="mc_readme.csv",
            rmse_bound_deg=1.0, scaling_trials=40,
        ),
    )
}


def config_text(w: Workload, trials: int, seed: int) -> str:
    """The workload's experiment config in the package's `key = value` format."""
    sources = ", ".join(f"{t!r}/{p!r}" for t, p in w.sources)
    snrs = ", ".join(repr(s) for s in w.snr_db)
    return (
        f"m = {w.m}\nspacing_ratio = {w.spacing_ratio!r}\nM = {w.M}\nq = {w.q}\n"
        f"sources = {sources}\nsignal_model = unit_power_random_phase\n"
        f"snr_db_list = {snrs}\ntrials = {trials}\nseed = {seed}\n"
        f"mode = truncated_svd\noutput_path = report.csv\n"
    )


def sweep_seed(seed: int, index: int) -> int:
    return (seed * 1000 + index) % 2**64


def package_dir() -> Path:
    """This checkout's `src/laoa`; exits with an error if it is absent."""
    package = ROOT / "src" / "laoa"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no laoa package at {package}")
    return package


def import_laoa():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    package = package_dir()
    src = package.parent
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    laoa = importlib.import_module("laoa")
    if Path(laoa.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported laoa from {laoa.__file__}, not from {src}")
    for name in ("config", "montecarlo", "synthesis", "matio", "cli"):
        importlib.import_module(f"laoa.{name}")
    return laoa


def setup(w: Workload, seed: int, workdir: Path) -> tuple[list[tuple[str, str]], float]:
    """Import laoa, parse the config and write the inputs.

    Returns the (Z path, X path) file pairs (none for Monte Carlo workloads)
    and the seconds taken.
    """
    t0 = time.perf_counter()
    laoa = import_laoa()
    cfg = laoa.config.parse_config(config_text(w, max(w.sweep_trials, 1), seed))
    files = []
    if w.kind == "estimate":
        import numpy as np

        sigma2 = cfg.power * 10.0 ** (-cfg.snr_db_list[0] / 10.0)
        for i in range(w.pairs):
            rng = np.random.default_rng([seed, i])
            Z, X, _ = laoa.synthesis.synthesize(cfg.source_set(), cfg.array_config(), cfg.M, sigma2, rng)
            z_path, x_path = str(workdir / f"pair{i}_z.mat"), str(workdir / f"pair{i}_x.mat")
            laoa.matio.write_matrix_file(Z, z_path)
            laoa.matio.write_matrix_file(X, x_path)
            files.append((z_path, x_path))
    return files, time.perf_counter() - t0


# --- Monte Carlo ------------------------------------------------------------


def parse_report(text: str) -> dict:
    """CSV report -> {(snr_db, source_index): row dict of strings}."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {(float(r["snr_db"]), int(r["source_index"])): r for r in rows}


STAT_COLUMNS = ("rmse_theta_deg", "rmse_phi_deg", "bias_theta_deg", "bias_phi_deg")


def compare_reports(report: str, reference: str, rel_tol: float = REL_TOL) -> list[str]:
    """Differences between two CSV reports beyond the same-behaviour tolerance.

    Failure and trial counts must be equal.  A statistic may differ by
    `rel_tol` times the larger of its own magnitude and the row's RMSE, since a
    bias near zero has no meaningful relative precision of its own.
    """
    got, ref = parse_report(report), parse_report(reference)
    if got.keys() != ref.keys():
        return [f"report rows {sorted(got)} differ from reference rows {sorted(ref)}"]
    problems = []
    for key, r in ref.items():
        g = got[key]
        for col in ("failure_count", "trials"):
            if g[col] != r[col]:
                problems.append(f"{key} {col}: {g[col]} != reference {r[col]}")
        scale = max((abs(float(r[c])) for c in STAT_COLUMNS[:2] if r[c]), default=0.0)
        for col in STAT_COLUMNS:
            if (g[col] == "") != (r[col] == ""):
                problems.append(f"{key} {col}: {g[col]!r} vs reference {r[col]!r}")
            elif r[col]:
                a, b = float(g[col]), float(r[col])
                if not abs(a - b) <= rel_tol * max(abs(a), abs(b), scale):
                    problems.append(f"{key} {col}: {a!r} != reference {b!r}")
    return problems


def sanity_problems(w: Workload, report: str) -> list[str]:
    """Every source must be estimated, within the RMSE bound, at the highest SNR."""
    rows = parse_report(report)
    top = max(w.snr_db)
    problems = []
    for s in range(w.q):
        r = rows.get((top, s))
        if r is None:
            problems.append(f"no row for snr {top} source {s}")
            continue
        for col in STAT_COLUMNS[:2]:
            if r[col] == "" or not float(r[col]) <= w.rmse_bound_deg:
                problems.append(f"snr {top} source {s} {col} = {r[col]!r} exceeds {w.rmse_bound_deg} deg")
    return problems


def failure_count(report: str) -> int:
    """Counted trial failures over all SNR points of a report."""
    return sum(int(r["failure_count"]) for (snr, s), r in parse_report(report).items() if s == 0)


def run_sweep(laoa, w: Workload, trials: int, seed: int, workers: int) -> str:
    cfg = laoa.config.parse_config(config_text(w, trials, seed))
    return laoa.montecarlo.monte_carlo(cfg, workers=workers).to_csv()


def reference_problems(laoa, w: Workload) -> list[str]:
    """Re-run the default-seed reference sweep and compare it with the stored report."""
    report = run_sweep(laoa, w, w.ref_trials, DEFAULT_SEED, w.workers)
    problems = [f"reference: {p}" for p in compare_reports(report, (REFERENCE_DIR / w.reference).read_text())]
    if w.workers > 1:
        single = run_sweep(laoa, w, w.ref_trials, DEFAULT_SEED, 1)
        if single != report:
            problems.append(f"{w.workers}-worker CSV differs from the 1-worker CSV of the same config")
    return problems + sanity_problems(w, report)


# --- aoa estimate -----------------------------------------------------------


def estimate_call(laoa, w: Workload, z_path: str, x_path: str) -> tuple[int, str]:
    """One in-process `aoa estimate` call; returns (exit code, stdout)."""
    out = io.StringIO()
    argv = ["estimate", "--z-file", z_path, "--x-file", x_path,
            "--q", str(w.q), "--spacing-ratio", repr(w.spacing_ratio)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = laoa.cli.main(argv)
    return code, out.getvalue()


def estimate_problems(w: Workload, code: int, stdout: str) -> list[str]:
    """The call must exit 0 and recover every true angle within ESTIMATE_TOL_DEG."""
    if code != 0:
        return [f"aoa estimate exited {code}"]
    try:
        est = [(float(r["theta_deg"]), float(r["phi_deg"])) for r in csv.DictReader(io.StringIO(stdout))]
    except (KeyError, ValueError) as exc:
        return [f"unreadable aoa estimate output: {exc}"]
    if len(est) != w.q:
        return [f"aoa estimate printed {len(est)} sources, expected {w.q}"]
    worst = min(
        max(max(abs(est[p][0] - t), abs(est[p][1] - ph)) for p, (t, ph) in zip(perm, w.sources))
        for perm in permutations(range(w.q))
    )
    if not worst <= ESTIMATE_TOL_DEG:
        return [f"aoa estimate missed the true angles by {worst:.4g} deg"]
    return []


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated p-th percentile (0 <= p <= 100) of a nonempty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
