"""Filter benchmark: per-step latency, throughput and accuracy of the ukf, pf
and pdef filters on three closed-loop workloads, with a traced per-layer
split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload growth-table1 --seed 1 --seconds 30 --trace 0

Workloads: ``growth-table1``, ``linear-dense`` and ``pf-wide`` (see
``workloads.py`` for why each exists).  A run completes the workload's
accuracy ensemble, which is the same in every run, and one trajectory drawn
from ``--seed``; it then steps further seeded trajectories until
``--seconds`` have passed.  With ``--trace 1`` it instead runs that fixed
part twice, plain and then traced, and reports the per-layer split of the
traced pass; the spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, sample counts and details of the run.  A failed
output check is named on standard error and exits with code 1; a missing
program source exits with code 2.  Both print no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

# fresh-process set-ups per run, spread over it because machine speed can
# drift over seconds (see below) and taken between trajectories so that no
# timed step follows one with cold caches; their median is reported
SETUP_REPEATS = 8
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import pdefilter
import workloads
workloads.initialise(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - t0)
"""

# Step latency is gated at p90 only.  On a shared 2-vCPU VM whose speed
# switches between states 1.5-1.75x apart for seconds at a time (CPU time
# tracks wall time, so it is not preemption), a median or a mean follows the
# share of a run spent in each state: over ten 30 s runs p50 spread by up to
# 40% and the mean-based throughput by up to 18%, while p90 sits in the slow
# state and spread by at most 7%.  p50 and throughput go in the detail line.
END_TO_END = {
    "setup_s": "s",
    "pdef.step_ms.p90": "ms",
    "pf.step_ms.p90": "ms",
    "ukf.step_ms.p90": "ms",
    "pdef.rmse": "state",
    "pf.rmse": "state",
    "ukf.rmse": "state",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``pdefilter`` from this checkout's ``src``, and only from there."""
    init = SRC / "pdefilter" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import pdefilter

    if Path(pdefilter.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"pdefilter was imported from {pdefilter.__file__}")
    return pdefilter


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_seconds(workload: str) -> float:
    """Fresh-process import of pdefilter plus the workload's first inits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def mean_rmse(tally, name) -> float:
    from workloads import CheckFailed

    if not tally.rmse[name]:
        raise CheckFailed(f"{name}.rmse", "no accuracy trajectory completed")
    return statistics.fmean(tally.rmse[name])


def end_to_end(s, seed, seconds, steps, trajectories):
    import workloads as W

    setups = []
    start = perf_counter()

    def sample_setups():
        # the samples due by now, one every seconds / SETUP_REPEATS
        while len(setups) < SETUP_REPEATS and (
            perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS
        ):
            setups.append(setup_seconds(s.workload.name))

    W.warm_up(s)
    tally = W.closed_loop(s, seed, seconds, steps, trajectories, between=sample_setups)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(s.workload.name))
    ms = {name: [1e3 * t for t in tally.step_s[name]] for name in W.FILTERS}
    values = {
        "setup_s": statistics.median(setups),
        "pdef.step_ms.p90": p90(ms["pdef"]),
        "pf.step_ms.p90": p90(ms["pf"]),
        "ukf.step_ms.p90": p90(ms["ukf"]),
        "pdef.rmse": mean_rmse(tally, "pdef"),
        "pf.rmse": mean_rmse(tally, "pf"),
        "ukf.rmse": mean_rmse(tally, "ukf"),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {
        "step_ms": {
            name: {"p50": statistics.median(ms[name]), "p90": p90(ms[name]), "samples": len(ms[name])}
            for name in W.FILTERS
        },
        "trajectories_per_s": tally.observations / steps / tally.busy_s,
        "setup_s": setups,
    }
    return tally, [tally], metrics, detail


def per_layer(s, seed, steps, trajectories):
    """The fixed part of a run, plain and then traced.

    Layers below ``pdef_step`` are reported per pdef step, the particle
    filter's per pf step, and model and likelihood calls, which every
    filter makes, per observation.
    """
    import workloads as W
    from pdefilter import chebyshev
    from tracer import Tracer

    W.warm_up(s)
    plain = W.fixed_pass(s, seed, steps, trajectories)
    t = Tracer()
    traced_setting = W.setting(s.workload, model=t.counting_model(s.model))
    with t.patched():
        traced = W.fixed_pass(traced_setting, seed, steps, trajectories)
    path = TRACE_DIR / f"{s.workload.name}-seed{seed}.npz"
    spans = t.write(path)

    pdef = t.calls("filters.pdef_step")
    pf = t.calls("filters.pf_step")
    ukf = t.calls("filters.ukf_step")
    obs = traced.observations
    cache_misses = sum(
        fn.cache_info().misses
        for fn in vars(chebyshev).values()
        if hasattr(fn, "cache_info")
    )
    layer = {
        "linalg.expm.calls": (t.calls("linalg.expm") / pdef, "count/step"),
        "linalg.expm.ms": (t.total_ms("linalg.expm") / pdef, "ms/step"),
        "linalg.expm.squarings": (t.expm_squarings / pdef, "count/step"),
        "linalg.expm.mflop_computed": (t.expm_flops / 1e6 / pdef, "Mflop/step"),
        "linalg.lu_solve.ms": (t.total_ms("linalg.lu_solve") / pdef, "ms/step"),
        "density.assemble_prior.ms": (t.total_ms("density.assemble_prior") / pdef, "ms/step"),
        "density.assemble_prior.self_ms": (t.self_ms("density.assemble_prior") / pdef, "ms/step"),
        "density.mollified_delta.calls": (t.calls("density.mollified_delta") / pdef, "count/step"),
        "density.mollified_delta.ms": (t.total_ms("density.mollified_delta") / pdef, "ms/step"),
        "density.make_branches.self_ms": (t.self_ms("density.make_branches") / pdef, "ms/step"),
        "density.branches_per_step": (t.branches / pdef, "count/step"),
        "density.density_quantiles.self_ms": (t.self_ms("density.density_quantiles") / pdef, "ms/step"),
        "density.prediction_domain.ms": (t.total_ms("density.prediction_domain") / pdef, "ms/step"),
        "chebyshev.barycentric_interp.ms": (t.total_ms("chebyshev.barycentric_interp") / pdef, "ms/step"),
        "chebyshev.SpectralGrid.build.calls": (t.calls("chebyshev.SpectralGrid.build") / pdef, "count/step"),
        "chebyshev.cache_misses": (cache_misses, "count"),
        "filters.pdef_step.self_ms": (t.self_ms("filters.pdef_step") / pdef, "ms/step"),
        "filters.posterior_update.ms": (t.total_ms("filters.posterior_update") / pdef, "ms/step"),
        "filters.gaussian_likelihood.ms": (t.total_ms("filters.gaussian_likelihood") / obs, "ms/step"),
        "filters.pdef.attempts_per_step": (t.calls("density.assemble_prior") / pdef, "count/step"),
        "filters.pf_step.self_ms": (t.self_ms("filters.pf_step") / pf, "ms/step"),
        "filters.systematic_resample.ms": (t.total_ms("filters.systematic_resample") / pf, "ms/step"),
        "model.transition.calls": (t.calls("model.transition") / obs, "count/step"),
        "model.observation.calls": (t.calls("model.observation") / obs, "count/step"),
        "model.transition.ms": (t.total_ms("model.transition") / obs, "ms/step"),
        "filters.ukf_step.ms": (t.total_ms("filters.ukf_step") / ukf, "ms/step"),
        "trace.overhead_frac": (traced.busy_s / plain.busy_s - 1.0, "ratio"),
        "trace.coverage": (t.coverage(), "ratio"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    detail = {
        "traced_steps": {"pdef": pdef, "pf": pf, "ukf": ukf, "observations": obs},
        "plain_busy_s": plain.busy_s,
        "traced_busy_s": traced.busy_s,
        "spans": spans,
        "span_file": str(path.relative_to(ROOT)),
    }
    return traced, [plain, traced], metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None, *, steps=None, trajectories=None) -> int:
    """Run one workload and print its result; returns the exit code.

    *steps* and *trajectories* shrink the run for the smoke test; they
    default to 50-step trajectories and the workload's accuracy ensemble.
    """
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    steps = W.STEPS if steps is None else steps
    trajectories = workload.accuracy_trajectories if trajectories is None else trajectories
    s = W.setting(workload)

    try:
        if args.trace:
            main_tally, tallies, metrics, detail = per_layer(s, args.seed, steps, trajectories)
        else:
            main_tally, tallies, metrics, detail = end_to_end(
                s, args.seed, args.seconds, steps, trajectories
            )
    except W.CheckFailed as err:
        print(f"perfbench: output check failed: {err}", file=sys.stderr)
        return 1

    runs = sum(t.runs for t in tallies)
    runs_failed = sum(t.runs_failed for t in tallies)
    detail.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        environment=environment(),
        trajectory_steps=steps,
        accuracy_trajectories=trajectories,
        observations=main_tally.observations,
        filter_runs=runs,
        runs_failed_frac=runs_failed / runs,
        failures=[f for t in tallies for f in t.failures],
        rmse_by_trajectory=main_tally.rmse,
    )
    if workload.model == "linear":
        detail["pdef.ref_err"] = main_tally.ref_err
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
