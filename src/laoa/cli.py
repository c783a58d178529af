"""Command-line interface.

Subcommands:
  simulate    one synthesized trial, prints per-source estimates
  estimate    run the pipeline on stored Z/X matrix files
  montecarlo  full RMSE-vs-SNR experiment, writes the CSV report

Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import sys

from .array_model import ArrayConfig
from .config import load_config
from .errors import AoaError, ParseError
from .estimator import EstimatorMode, estimate_2d_aoa
from .matio import read_matrix_file
from .montecarlo import monte_carlo, run_trial
from .synthesis import Subarray


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
    p_sim.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
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
    print("source,theta_deg,phi_deg,psi_hat,xi_hat,root_magnitude_z,root_magnitude_x")
    for i, s in enumerate(est.sources):
        print(f"{i},{s.theta_deg!r},{s.phi_deg!r},{s.psi_hat!r},{s.xi_hat!r},"
              f"{s.root_magnitude_z!r},{s.root_magnitude_x!r}")
    print(f"# pairing_residual = {est.pairing_residual!r}", file=sys.stderr)
    if est.pairing_ambiguous:
        print("# warning: pairing ambiguous", file=sys.stderr)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    snr_db = args.snr_db if args.snr_db is not None else cfg.snr_db_list[0]
    if snr_db not in cfg.snr_db_list:
        # the trial seed depends on the SNR's index in the list
        print(f"error: --snr-db {snr_db!r} is not in snr_db_list {list(cfg.snr_db_list)}", file=sys.stderr)
        return 1
    snr_index = cfg.snr_db_list.index(snr_db)
    theta_err, phi_err, (failure,) = run_trial(cfg, snr_db, snr_index, args.trial)
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
            print(f"{flag} holds a matrix tagged {snap.subarray.value}, expected {tag.value}", file=sys.stderr)
            return 2
    if Z.m != X.m:
        print(f"subarray sizes differ: {Z.m} vs {X.m}", file=sys.stderr)
        return 2
    if Z.snapshots != X.snapshots:
        print(f"snapshot counts differ: {Z.snapshots} vs {X.snapshots} columns", file=sys.stderr)
        return 2
    cfg = ArrayConfig(m=Z.m, spacing_ratio=args.spacing_ratio)
    est = estimate_2d_aoa(Z, X, args.q, cfg, EstimatorMode(args.mode))
    _print_estimate(est)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    report = monte_carlo(cfg)
    output = args.output if args.output is not None else cfg.output_path
    with open(output, "w", encoding="ascii", newline="") as fh:
        fh.write(report.to_csv())
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
