"""Attempted and failed filter operations over many seeded trajectories.

    PYTHONPATH=src python tools/failure_sweep.py [--runs N] [--seed S]

For each workload of ``perfbench/workloads.py`` it steps ukf, pf and pdef
through trajectories 0 to N - 1 of ``--seed``, 50 steps each, with the
benchmark's own ``run_trajectory``: the same settings, inputs, output
checks and accounting as the benchmark's closed loop.  It prints the
attempted and failed operations per workload, as the benchmark's result
line counts them, then per filter, then each typed failure
(``FilterDivergenceError``, ``WeightUnderflowError``,
``DomainEscapeError``) with its trajectory.  It exits with 1 if any
operation failed; a failed output check or any other exception stops it
with a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads as W  # noqa: E402


def sweep(workload: W.Workload, runs: int, seed: int) -> bool:
    """Print the counts of one workload; true if any operation failed."""
    s = W.setting(workload)
    tally = W.Tally()
    reasons = []
    start = perf_counter()
    for index in range(runs):
        seen = len(tally.failures)
        W.run_trajectory(s, W.trajectory_inputs(workload, seed, index, W.STEPS), tally)
        reasons += [f"trajectory {index}, {reason}" for reason in tally.failures[seen:]]
    print(
        f"{workload.name}: attempted {tally.attempted}  failed {tally.failed}  "
        f"({runs} trajectories of {W.STEPS} steps, seed {seed}, {perf_counter() - start:.1f} s)"
    )
    for name in W.FILTERS:
        failed = sum(reason.startswith(f"{name} step ") for reason in tally.failures)
        print(f"  {name:<5} attempted {len(tally.step_s[name]) + failed}  failed {failed}")
    for reason in reasons:
        print(f"    {reason}")
    return tally.failed > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs", type=int, default=1000, help="trajectories per workload (default 1000)"
    )
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (default 0)")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seed < 0:
        parser.error("--runs must be >= 1 and --seed >= 0")
    failed = [sweep(workload, args.runs, args.seed) for workload in W.WORKLOADS.values()]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())
