"""Typed failures of the three filters over many seeded trajectories.

    PYTHONPATH=src python tools/failure_sweep.py [--runs N] [--seed S]

At each of the three sizes of ``tools/microbench.py`` (grid 100 with 16 x
16 branches on the growth model, grid 150 with 64 x 64 on the linear model,
grid 48 with 4 x 4 on the growth model) it steps ukf, pf and pdef through
the same N trajectories of 50 steps, runs 0 to N - 1 of ``--seed``
(``pdefilter.bench.run_seed_streams``), with the particle filter at 100,
100 and 10^4 particles.  Those are the benchmark's settings; the benchmark
checks accuracy on a few fixed trajectories only, which cannot show a
change in how often a filter fails.

For each size and filter it prints the runs, the typed failures
(``FilterDivergenceError``, ``WeightUnderflowError``,
``DomainEscapeError``) and the first reasons.  It exits with 1 if any run
failed; any other exception stops it with a traceback.
"""

from __future__ import annotations

import argparse
from time import perf_counter

from pdefilter.bench import ExperimentConfig, benchmark_model, run_experiment

from microbench import SIZES, linear_model

STEPS = 50

# particles of the particle filter at each size of SIZES, as in the benchmark
PARTICLES = {"grid100-16x16": 100, "grid150-64x64": 100, "grid48-4x4": 10_000}

# failure reasons printed per size and filter
SHOWN = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1000, help="trajectories per size (default 1000)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be >= 1 and --seed >= 0")
    models = {"growth": benchmark_model, "linear": linear_model}
    failed = 0
    for label, model, nodes, points in SIZES:
        cfg = ExperimentConfig(
            steps=STEPS, runs=args.runs, particles=PARTICLES[label], grid_nodes=nodes,
            state_quantiles=points, seed=args.seed,
        )
        start = perf_counter()
        reports = run_experiment(cfg, models[model]())
        print(
            f"{label}: {model} model, pf {cfg.particles} particles, {args.runs} runs "
            f"of {STEPS} steps, seed {args.seed} ({perf_counter() - start:.0f} s)"
        )
        for report in reports:
            print(f"  {report.filter_name:<5} runs {args.runs}  failed {report.runs_failed}")
            for run, reason in report.failures[:SHOWN]:
                print(f"    run {run} {reason}")
            failed += report.runs_failed
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
