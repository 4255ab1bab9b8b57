"""Command-line interface: benchmark experiments and trajectory dumps.

Two subcommands share the flag set:

* ``run`` executes the multi-run RMSE benchmark and writes a summary CSV
  plus a per-run CSV next to it (``<out>.runs.csv``),
* ``trajectory`` executes a single seeded run and writes per-step truth,
  observation and estimates.

Exit codes: 0 on success, 1 on usage errors, 2 when every requested
filter failed on every run.
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .bench import ExperimentConfig, FILTER_ORDER


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common_flags(parser, *, trajectory: bool):
    parser.add_argument(
        "--filter",
        choices=[*FILTER_ORDER, "all"],
        default="all",
        help="which filter(s) to run (default: all)",
    )
    parser.add_argument(
        "--steps", type=int, default=50, help="time steps per run (default: 50)"
    )
    if not trajectory:
        parser.add_argument(
            "--runs", type=int, default=50, help="independent runs (default: 50)"
        )
    parser.add_argument(
        "--particles",
        type=int,
        default=100,
        help="particle count for the particle filter (default: 100)",
    )
    parser.add_argument(
        "--grid",
        type=int,
        default=100,
        help="grid node count for the density-evolution filter (default: 100)",
    )
    parser.add_argument(
        "--state-quantiles",
        type=int,
        default=16,
        help="posterior quantile points per prediction (default: 16)",
    )
    parser.add_argument(
        "--noise-points",
        type=int,
        default=16,
        help="process-noise representative points (default: 16)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7 if trajectory else 42,
        help="master seed (default: %(default)s)",
    )
    parser.add_argument(
        "--out", required=True, help="output CSV path"
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pdefilter",
        description="Nonlinear Bayesian filtering benchmark: density-evolution "
        "filter vs particle filter vs unscented Kalman filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common_flags(
        sub.add_parser("run", help="multi-run RMSE benchmark"), trajectory=False
    )
    _add_common_flags(
        sub.add_parser("trajectory", help="single-run per-step estimates"),
        trajectory=True,
    )
    return parser


def _selected_filters(choice: str) -> tuple:
    return FILTER_ORDER if choice == "all" else (choice,)


def _config_echo(args) -> str:
    pairs = [("filter", args.filter), ("steps", args.steps)]
    if args.command == "run":
        pairs.append(("runs", args.runs))
    pairs += [
        ("particles", args.particles),
        ("grid", args.grid),
        ("state-quantiles", args.state_quantiles),
        ("noise-points", args.noise_points),
        ("seed", args.seed),
    ]
    return " ".join(f"{key}={value}" for key, value in pairs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig(
            filters=_selected_filters(args.filter),
            steps=args.steps,
            runs=getattr(args, "runs", 1),
            particles=args.particles,
            grid_nodes=args.grid,
            state_quantiles=args.state_quantiles,
            noise_points=args.noise_points,
            seed=args.seed,
        )
    except ValueError as err:
        print(f"pdefilter: error: {err}", file=sys.stderr)
        return 1
    echo = _config_echo(args)

    if args.command == "run":
        reports = bench.run_experiment(cfg)
        bench.write_summary_csv(args.out, reports, echo)
        bench.write_runs_csv(f"{args.out}.runs.csv", reports, echo)
        for report in reports:
            summary = (
                f"mean RMSE {report.mean_rmse:.4f}" if report.runs_ok else "no successful runs"
            )
            print(
                f"{report.filter_name}: {report.runs_ok} ok, "
                f"{report.runs_failed} failed, {summary}"
            )
        if all(report.runs_ok == 0 for report in reports):
            return 2
        return 0

    records = bench.run_trajectory(cfg)
    bench.write_trajectory_csv(args.out, records, echo)
    produced = {
        name
        for record in records
        for name, value in record.estimates.items()
        if value is not None
    }
    print(f"wrote {len(records)} steps for {', '.join(sorted(produced)) or 'no filter'}")
    if not produced:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
