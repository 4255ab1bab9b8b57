"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --ref REF [--pairs 10] [--seconds 30]
        [--first-seed 1] [--claim WORKLOAD:METRIC] [--out BENCH.json]

Run from the root of a checkout.  It builds two sides in a temporary
directory, each holding ``src/``, ``perfbench/`` and ``BENCHMARK.json``:
the parent from ``git archive REF``, the change from the working tree,
uncommitted edits included.  It refuses to run, with exit code 1, if the
two sides' ``perfbench/`` or ``BENCHMARK.json`` differ, since a pair then
measures two benchmarks.

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
on both sides for every workload of ``BENCHMARK.json``, with S the first
seed plus i; the parent goes first in even pairs and the change in odd
ones.  For each workload and end-to-end metric it records both sides'
runs, medians and inclusive quartiles, the per-pair ratios change/parent
with their median and inclusive quartiles, the pairs the change won (ties
count for neither side), and a verdict against the metric's bound:

- ``worse than bound``: the change's median is worse than the parent's by
  more than the bound;
- ``unresolved``: it is not, but the parent's interquartile range exceeds
  the bound times its median, and not every change run beats every parent
  run;
- ``within bound`` otherwise.

For each workload and side it records the failed and attempted operations
of the runs' result lines and the failed share, failed over attempted, and
it prints each workload where the change's share is larger than the
parent's.  ``--claim`` names a gain to judge: it is met when the change
wins at least nine tenths of the pairs, the medians differ, in the better
direction, by more than the parent's interquartile range, and the
change's failed share on that workload is no larger than the parent's.
The ratios are reported only: no verdict or claim reads them.
The JSON report goes to ``--out`` or to standard output; a run that
exits with an error stops the tool with exit code 2 and its standard error.
SIGTERM stops the tool with exit code 143 after it has killed the current
run and removed its temporary directory.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what each side needs to run the benchmark, relative to a checkout's root
PARTS = ("src", "perfbench", "BENCHMARK.json")

# left behind by running, never copied into a side
IGNORED = shutil.ignore_patterns("__pycache__", "traces", "*.pyc")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# share of pairs a claimed gain must win
CLAIM_SHARE = 0.9


def parent_side(ref: str, dest: Path) -> str:
    """Extract *ref*'s parts into *dest*; returns the commit's hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit, *PARTS],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def change_side(dest: Path) -> None:
    """Copy the working tree's parts into *dest*."""
    dest.mkdir()
    for part in PARTS:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, dest / part, ignore=IGNORED)
        else:
            shutil.copy2(source, dest / part)


def files(root: Path, part: str) -> dict:
    """Relative path -> bytes of every file of *part* under *root*."""
    base = root / part
    paths = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
    return {str(path.relative_to(root)): path.read_bytes() for path in paths}


def benchmark_differs(parent: Path, change: Path) -> list:
    """The paths of ``perfbench/`` and ``BENCHMARK.json`` that differ."""
    differ = []
    for part in ("perfbench", "BENCHMARK.json"):
        a, b = files(parent, part), files(change, part)
        differ += sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
    return differ


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line, the last line of its output."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{side.name} {workload} seed {seed} exited with {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def spread(runs: list) -> dict:
    """Median and inclusive quartiles of *runs*."""
    if len(runs) < 2:
        return {"median": runs[0], "q1": runs[0], "q3": runs[0]}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(metric: dict, parent: list, change: list) -> dict:
    """Both sides' figures for one metric, the per-pair ratios, the pairs
    won and the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = spread(parent), spread(change)
    ratios = [b / a if a else math.nan for a, b in zip(parent, change)]
    won = sum(sign * (b - a) < 0.0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    base = p["median"]
    worse = sign * (c["median"] - base) > metric["bound"] * abs(base)
    clear = max(sign * x for x in change) < min(sign * x for x in parent)
    if worse:
        verdict = "worse than bound"
    elif iqr > metric["bound"] * abs(base) and not clear:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    relative = (c["median"] - base) / base if base else math.nan
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_runs": parent,
        "change_runs": change,
        "parent": p,
        "change": c,
        "pair_ratios": ratios,
        "pair_ratio": spread(ratios),
        "change_won_pairs": won,
        "pairs": len(parent),
        "median_change": f"{relative:+.1%}",
        "parent_iqr": iqr,
        "verdict": verdict,
    }


def gain_met(figures: dict) -> bool:
    """The claim rule: the change wins at least nine tenths of the pairs,
    and its median is better than the parent's by more than the parent's
    interquartile range."""
    sign = 1.0 if figures["better"] == "lower" else -1.0
    gap = sign * (figures["parent"]["median"] - figures["change"]["median"])
    won = figures["change_won_pairs"] >= math.ceil(CLAIM_SHARE * figures["pairs"])
    return won and gap > figures["parent_iqr"]


def operations(runs: list) -> dict:
    """Failed and attempted operations over one side's result lines, and
    the failed share."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return {
        "failed": failed,
        "attempted": attempted,
        "failed_share": failed / attempted,
        "correct_all": all(r["correct"] for r in runs),
    }


def share_larger(ops: dict) -> bool:
    """Whether the change failed a larger share of its operations than the
    parent, compared exactly on the integer counts."""
    parent, change = ops["parent"], ops["change"]
    return change["failed"] * parent["attempted"] > parent["failed"] * change["attempted"]


def _terminate(signum, frame):
    """SIGTERM as an exception, so that ``subprocess.run`` kills its run and
    the temporary directory is removed on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="the parent commit, any git revision")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 0 (default 1)")
    parser.add_argument("--claim", help="a claimed gain to judge, WORKLOAD:METRIC")
    parser.add_argument("--out", help="report path (default: standard output)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.pairs < 1 or seconds < 0 or args.first_seed < 0:
        parser.error("--pairs must be >= 1, --seconds and --first-seed >= 0")
    claim = None
    if args.claim:
        claim = tuple(args.claim.split(":", 1))
        if len(claim) != 2 or claim[0] not in workloads or claim[1] not in metrics:
            parser.error(f"--claim must be WORKLOAD:METRIC of BENCHMARK.json, got {args.claim!r}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commit = parent_side(args.ref, sides["parent"])
        change_side(sides["change"])
        differ = benchmark_differs(sides["parent"], sides["change"])
        if differ:
            print(f"bench_pairs: the benchmark differs between {args.ref} and the working "
                  f"tree: {', '.join(differ)}", file=sys.stderr)
            return 1
        seeds = [args.first_seed + i for i in range(args.pairs)]
        results = {w: {"parent": [], "change": []} for w in workloads}
        try:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for workload in workloads:
                    for side in order:
                        result = run_once(sides[side], workload, seed, seconds)
                        results[workload][side].append(result)
                        print(f"pair {i} seed {seed} {workload} {side}: "
                              f"{result['failed']} of {result['attempted']} failed",
                              file=sys.stderr)
        except RuntimeError as err:
            print(f"bench_pairs: {err}", file=sys.stderr)
            return 2

    report = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "method": f"{args.pairs} pairs, parent first in even pairs and change first in odd "
                  "ones, the workloads interleaved within each pair; parent: git archive of "
                  "the ref, change: the working tree; quartiles by "
                  "statistics.quantiles(method='inclusive')",
        "ref": args.ref,
        "parent_commit": commit,
        "seeds": seeds,
        "end_to_end": {},
        "operations": {},
        "claim": None,
    }
    for workload, sides_runs in results.items():
        figures = {}
        for name, metric in metrics.items():
            parent, change = ([r["metrics"][name]["value"] for r in sides_runs[side]]
                              for side in ("parent", "change"))
            figures[name] = judge(metric, parent, change)
        report["end_to_end"][workload] = figures
        report["operations"][workload] = {
            side: operations(runs) for side, runs in sides_runs.items()
        }
    if claim is not None:
        workload, name = claim
        report["claim"] = {
            "workload": workload,
            "metric": name,
            "met": gain_met(report["end_to_end"][workload][name])
            and not share_larger(report["operations"][workload]),
        }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for workload, figures in report["end_to_end"].items():
        for name, f in figures.items():
            r = f["pair_ratio"]
            print(f"{workload:<14} {name:<17} {f['parent']['median']:.6g} -> "
                  f"{f['change']['median']:.6g} ({f['median_change']}, pair ratio "
                  f"{r['median']:.3f} [{r['q1']:.3f}, {r['q3']:.3f}], won "
                  f"{f['change_won_pairs']}/{f['pairs']}): {f['verdict']}", file=sys.stderr)
    for workload, ops in report["operations"].items():
        if share_larger(ops):
            p, c = ops["parent"], ops["change"]
            print(f"{workload:<14} failed share larger: {p['failed']} of {p['attempted']} -> "
                  f"{c['failed']} of {c['attempted']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
