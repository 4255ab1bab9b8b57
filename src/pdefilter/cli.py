"""Command-line interface: benchmark experiments and trajectory dumps.

Two subcommands share the flag set:

* ``run`` executes the multi-run RMSE benchmark and writes a summary CSV
  plus a per-run CSV next to it (``<out>.runs.csv``),
* ``trajectory`` executes a single seeded run and writes per-step truth,
  observation and estimates.

Exit codes: 0 on success, 1 on usage errors or an unwritable output path
(both found before the first step), 2 when every requested filter failed
on every run.
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


# (flag, ExperimentConfig field, help): the parser, the "# config:" echo and
# the configuration are all built from this table, and every default but the
# trajectory seed is the ExperimentConfig default
_FLAGS = (
    ("steps", "steps", "time steps per run"),
    ("runs", "runs", "independent runs"),
    ("particles", "particles", "particle count for the particle filter"),
    ("grid", "grid_nodes", "grid node count for the density-evolution filter"),
    ("state-quantiles", "state_quantiles", "posterior and process-noise points per prediction"),
    ("seed", "seed", "master seed"),
)

# a trajectory is a single run
_TRAJECTORY_FLAGS = tuple(row for row in _FLAGS if row[0] != "runs")


def _add_flags(parser, flags, seed: int):
    parser.add_argument(
        "--filter",
        choices=[*FILTER_ORDER, "all"],
        default="all",
        help="which filter(s) to run (default: all)",
    )
    for flag, name, text in flags:
        parser.add_argument(
            f"--{flag}",
            dest=name,
            metavar=flag.replace("-", "_").upper(),
            type=int,
            default=seed if name == "seed" else getattr(ExperimentConfig, name),
            help=f"{text} (default: %(default)s)",
        )
    parser.add_argument("--out", required=True, help="output CSV path")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pdefilter",
        description="Nonlinear Bayesian filtering benchmark: density-evolution "
        "filter vs particle filter vs unscented Kalman filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="multi-run RMSE benchmark")
    _add_flags(run, _FLAGS, seed=ExperimentConfig.seed)
    trajectory = sub.add_parser("trajectory", help="single-run per-step estimates")
    _add_flags(trajectory, _TRAJECTORY_FLAGS, seed=7)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flags = _FLAGS if args.command == "run" else _TRAJECTORY_FLAGS
    try:
        cfg = ExperimentConfig(
            filters=FILTER_ORDER if args.filter == "all" else (args.filter,),
            **{name: getattr(args, name) for _, name, _ in flags},
        )
    except ValueError as err:
        print(f"pdefilter: error: {err}", file=sys.stderr)
        return 1
    outputs = [args.out, f"{args.out}.runs.csv"] if args.command == "run" else [args.out]
    for path in outputs:
        # append mode: a missing file is created, an existing one kept until rewritten
        try:
            open(path, "a").close()
        except OSError as err:
            print(f"pdefilter: error: cannot write {path}: {err.strerror}", file=sys.stderr)
            return 1
    pairs = [("filter", args.filter)] + [(flag, getattr(args, name)) for flag, name, _ in flags]
    echo = " ".join(f"{flag}={value}" for flag, value in pairs)

    if args.command == "run":
        reports = bench.run_experiment(cfg)
        bench.write_summary_csv(args.out, reports, echo)
        bench.write_runs_csv(outputs[1], reports, echo)
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
