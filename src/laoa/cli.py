"""Command-line interface.

Subcommands:
  simulate    one synthesized trial, prints per-source estimates
  estimate    run the pipeline on stored Z/X matrix files
  montecarlo  full RMSE-vs-SNR experiment, writes the CSV report

Exit codes: 0 success, 1 usage error, 2 data error.
``AOA_THREADS`` sets the worker count of ``montecarlo``; the library reads no environment variable.
"""

import argparse
import functools
import os
import sys

from .array_model import ArrayConfig
from .config import load_config
from .errors import AoaError, ParseError
from .estimator import EstimatorMode, estimate_2d_aoa
from .matio import read_matrix_file
from .montecarlo import monte_carlo, run_trials
from .synthesis import Subarray


@functools.cache  # built once per process; parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoa",
        description="2D angle-of-arrival estimation for an L-shaped array.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one synthesized trial and print estimates")
    p_sim.add_argument("--config", required=True, help="experiment config file")
    p_sim.add_argument("--snr-db", type=float, default=None,
                       help="SNR for the trial, one of snr_db_list (default: its first entry)")
    p_sim.add_argument("--trial", type=int, default=0, help="trial index, 0 <= trial < trials (default 0)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_est = sub.add_parser("estimate", help="estimate angles from stored snapshot matrices")
    p_est.add_argument("--z-file", required=True)
    p_est.add_argument("--x-file", required=True)
    p_est.add_argument("--q", type=int, required=True, help="number of sources")
    p_est.add_argument("--spacing-ratio", type=float, required=True, help="d/lambda")
    p_est.add_argument("--mode", choices=[m.value for m in EstimatorMode],
                       default=EstimatorMode.TRUNCATED_SVD.value)

    p_mc = sub.add_parser("montecarlo", help="run the full Monte Carlo experiment")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_mc.add_argument("--output", default=None, help="override the config output_path")

    return parser


def _print_estimate(est) -> None:
    # row 0 of a stack of one; .tolist() keeps numpy reprs out of the printed fields
    print("source,theta_deg,phi_deg,psi_hat,xi_hat,root_magnitude_z,root_magnitude_x")
    columns = (est.theta_deg, est.phi_deg, est.psi_hat, est.xi_hat, est.mag_z, est.mag_x)
    for i, row in enumerate(zip(*(a[0].tolist() for a in columns))):
        print(",".join(map(repr, (i, *row))))
    print(f"# pairing_residual = {est.pairing_residual[0].tolist()!r}", file=sys.stderr)
    _print_flags(est.reduced_rank[0], est.pairing_ambiguous[0], est.theta_deg.shape[1])


def _print_flags(reduced_rank, ambiguous, q: int) -> None:
    # one trial's flags on stderr: each subarray's reduced truncation rank, then an ambiguous pairing
    for name, rank in zip("ZX", reduced_rank.tolist()):
        if rank >= 0:
            print(f"# warning: {name} truncation rank reduced from {q} to {rank}", file=sys.stderr)
    if ambiguous:
        print("# warning: pairing ambiguous", file=sys.stderr)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if not 0 <= args.trial < cfg.trials:
        # any other index would seed a trial that no Monte Carlo run of the config contains
        print(f"error: --trial must be >= 0 and < trials = {cfg.trials}, got {args.trial}", file=sys.stderr)
        return 1
    snr_db = args.snr_db if args.snr_db is not None else cfg.snr_db_list[0]
    if snr_db not in cfg.snr_db_list:
        # the trial seed depends on the SNR's index in the list
        print(f"error: --snr-db {snr_db!r} is not in snr_db_list {list(cfg.snr_db_list)}", file=sys.stderr)
        return 1
    theta_err, phi_err, (failure,), reduced, ambiguous = run_trials(cfg, [(cfg.snr_db_list.index(snr_db), args.trial)])
    _print_flags(reduced[0], ambiguous[0], cfg.q)
    if failure is not None:
        print(f"trial failed: {failure}", file=sys.stderr)
        return 2
    print("source,theta_true,phi_true,theta_err_deg,phi_err_deg")
    for i, (d, te, pe) in enumerate(zip(cfg.sources, theta_err[0].tolist(), phi_err[0].tolist())):
        print(f"{i},{d.theta!r},{d.phi!r},{te!r},{pe!r}")
    return 0


def _read(flag: str, path: str):
    try:
        return read_matrix_file(path)
    except ParseError as exc:
        exc.args = (f"{flag} {path}: {exc}",)  # keeps its line and column attributes
        raise


def _cmd_estimate(args) -> int:
    Z = _read("--z-file", args.z_file)
    X = _read("--x-file", args.x_file)
    for flag, snap, tag in (("--z-file", Z, Subarray.Z), ("--x-file", X, Subarray.X)):
        if snap.subarray is not tag:
            raise ValueError(f"{flag} holds a matrix tagged {snap.subarray.value}, expected {tag.value}")
    cfg = ArrayConfig(m=Z.m, spacing_ratio=args.spacing_ratio)
    est = estimate_2d_aoa(Z, X, args.q, cfg, EstimatorMode(args.mode))
    _print_estimate(est)
    return 0


def _workers() -> int:
    # the worker count from AOA_THREADS (default 1), capped at the CPU count: a sweep starts one
    # process per worker, so an uncapped value would start that many
    env = os.environ.get("AOA_THREADS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError:
        raise ValueError(f"AOA_THREADS must be an integer, got {env!r}") from None
    if n < 1:
        raise ValueError("AOA_THREADS must be >= 1")
    return min(n, os.cpu_count() or 1)


def _cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    workers = _workers()
    output = args.output if args.output is not None else cfg.output_path
    # opened before the first trial, so a bad path fails at once; a failed sweep leaves no CSV
    fh = open(output, "w", encoding="ascii", newline="")
    try:
        with fh:
            report = monte_carlo(cfg, workers)
            fh.write(report.to_csv())
    except BaseException:
        if os.path.isfile(output):  # not a device such as /dev/stdout
            os.remove(output)
        raise
    counts = {"truncation rank reduced": report.rank_reduced_trials, "pairing ambiguous": report.ambiguous_trials}
    for what, count in counts.items():
        if count:
            print(f"# warning: {what} in {count} of {len(cfg.snr_db_list) * cfg.trials} trials", file=sys.stderr)
    print(f"wrote {output}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
    }
    try:
        return handlers[args.command](args)
    except (AoaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
