"""Benchmark model, truth simulation, RMSE scoring and the multi-run
experiment harness behind the command-line interface.

The benchmark is the classic scalar growth model: a strongly nonlinear
transition driven by a cosine forcing term, observed through a quadratic
map whose sign ambiguity is what separates the filters.  Runs are seeded
through :class:`numpy.random.SeedSequence` so every trajectory depends only
on the master seed and the run index; adding or removing filters never
perturbs the simulated truth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import filters as f
from .chebyshev import checked_count
from .errors import DomainEscapeError, FilterDivergenceError, WeightUnderflowError

FILTER_ORDER = ("ukf", "pf", "pdef")

_FAILURE_KINDS = (FilterDivergenceError, WeightUnderflowError, DomainEscapeError)


def benchmark_model() -> f.ScalarStateModel:
    """The scalar growth benchmark with Q = 10, R = 1, initial N(0, 10)."""
    return f.ScalarStateModel(
        transition=lambda x, k, v: x / 2.0 + 25.0 * x / (1.0 + x * x)
        + 8.0 * math.cos(1.2 * k) + v,
        observation=lambda x, k: x * x / 20.0,
        process_noise=f.GaussianSpec(0.0, 10.0),
        obs_noise=f.GaussianSpec(0.0, 1.0),
        initial=f.GaussianSpec(0.0, 10.0),
    )


def simulate_truth(
    model: f.ScalarStateModel, steps: int, rng: np.random.Generator
):
    """Simulate a truth/observation trajectory of the given length.

    The initial state is drawn from the model's initial distribution; each
    step applies the transition with a fresh process-noise draw and observes
    with a fresh observation-noise draw.  Returns ``(truth, observations)``
    arrays for steps 1..steps.
    """
    steps = checked_count("steps", steps, 1)
    x = rng.normal(model.initial.mean, model.initial.std)
    truth = np.empty(steps)
    obs = np.empty(steps)
    for k in range(1, steps + 1):
        x = float(
            model.transition(x, k, rng.normal(0.0, model.process_noise.std))
        )
        truth[k - 1] = x
        obs[k - 1] = float(model.observation(x, k)) + rng.normal(
            0.0, model.obs_noise.std
        )
    return truth, obs


def rmse(truth, estimates) -> float:
    """Root mean squared error of point estimates against the truth."""
    t = np.asarray(truth, dtype=float)
    e = np.asarray(estimates, dtype=float)
    if t.shape != e.shape or t.ndim != 1 or t.size == 0:
        raise ValueError(
            f"need equal-length nonempty series, got {t.shape} and {e.shape}"
        )
    return float(np.sqrt(np.mean((e - t) ** 2)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a multi-run benchmark experiment; its defaults are
    the command line's."""

    filters: tuple = FILTER_ORDER
    steps: int = 50
    runs: int = 50
    particles: int = 100
    grid_nodes: int = f.PdefConfig.grid_nodes
    state_quantiles: int = f.PdefConfig.state_quantiles
    noise_points: int = 16
    seed: int = 42
    pdef: f.PdefConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # tuple("pf") would split a bare name into letters
        if isinstance(self.filters, str):
            raise ValueError(
                f"filters must be a sequence of names, not the string {self.filters!r}"
            )
        object.__setattr__(self, "filters", tuple(self.filters))
        for i, name in enumerate(self.filters):
            if name not in FILTER_ORDER:
                raise ValueError(f"unknown filter {name!r}")
            # a repeat would step again on the run's particle stream and
            # overwrite the first pass's estimates
            if name in self.filters[:i]:
                raise ValueError(f"duplicate filter {name!r}")
        if not self.filters:
            raise ValueError("no filters requested")
        for attr in ("steps", "runs", "particles", "noise_points"):
            f._set_count(self, attr, 1)
        # numpy's SeedSequence takes non-negative integer entropy only
        f._set_count(self, "seed", 0)
        # the density filter's configuration, built here so that the CLI
        # reports its bounds as a usage error before any run starts
        pdef = f.PdefConfig(grid_nodes=self.grid_nodes, state_quantiles=self.state_quantiles)
        object.__setattr__(self, "pdef", pdef)


@dataclass
class RmseReport:
    """Per-filter error summary over an experiment's runs."""

    filter_name: str
    steps: int
    rmse_by_run: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def per_run(self) -> list:
        return [self.rmse_by_run[r] for r in sorted(self.rmse_by_run)]

    @property
    def runs_ok(self) -> int:
        return len(self.rmse_by_run)

    @property
    def runs_failed(self) -> int:
        return len(self.failures)

    @property
    def mean_rmse(self) -> float:
        if not self.rmse_by_run:
            return float("nan")
        return float(np.mean(self.per_run))

    @property
    def std_rmse(self) -> float:
        if self.runs_ok < 2:
            return 0.0
        return float(np.std(self.per_run, ddof=1))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One step of a single-run trajectory: truth, observation, estimates.

    ``failures`` maps each filter that failed at this step to the reason,
    ``"ErrorType: message"``; its estimate here and later is None.
    """

    k: int
    truth: float
    observation: float
    estimates: dict
    failures: dict = field(default_factory=dict)


def run_seed_streams(master_seed: int, run_index: int):
    """Derive the (truth, particle) generator pair for one run.

    Pure function of the master seed and run index: the truth stream never
    depends on which filters are requested.  Either argument that is not a
    non-negative integer raises ``ValueError`` naming it.
    """
    master_seed = checked_count("master_seed", master_seed, 0)
    run_index = checked_count("run_index", run_index, 0)
    children = np.random.SeedSequence((master_seed, run_index)).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(children[0])),
        np.random.Generator(np.random.PCG64(children[1])),
    )


def _step_estimates(name, cfg, model, noise, observations, pf_rng):
    """Yield one point estimate per step for the named filter."""
    steps = len(observations)
    if name == "ukf":
        state = f.ukf_init(model)
        for k in range(1, steps + 1):
            state = f.ukf_step(state, model, k, observations[k - 1])
            yield f.estimate(state)
    elif name == "pf":
        state = f.pf_init(model, cfg.particles, pf_rng)
        for k in range(1, steps + 1):
            state = f.pf_step(state, model, k, observations[k - 1], pf_rng)
            yield f.estimate(state)
    else:
        state = f.pdef_init(model, cfg.pdef)
        for k in range(1, steps + 1):
            state = f.pdef_step(state, model, noise, k, observations[k - 1], cfg.pdef)
            yield f.estimate(state)


def _runs(cfg: ExperimentConfig, model, run_indices):
    """Simulate each run and step every requested filter through it.

    Yields ``(run, truth, observations, outcomes)`` per run index;
    ``outcomes`` maps each filter, in ``cfg.filters`` order, to its
    completed estimates and the reason it stopped, ``"ErrorType:
    message"``, or None; it failed at step ``len(estimates) + 1``.  The
    model and the noise points are resolved once for all runs.
    """
    model = benchmark_model() if model is None else model
    noise = f.gaussian_quantile_points(
        cfg.noise_points, model.process_noise.variance
    )
    for run in run_indices:
        truth_rng, pf_rng = run_seed_streams(cfg.seed, run)
        truth, observations = simulate_truth(model, cfg.steps, truth_rng)
        outcomes = {}
        for name in cfg.filters:
            estimates, failure = [], None
            try:
                for value in _step_estimates(name, cfg, model, noise, observations, pf_rng):
                    estimates.append(float(value))
            except _FAILURE_KINDS as err:
                failure = f"{type(err).__name__}: {err}"
            outcomes[name] = (estimates, failure)
        yield run, truth, observations, outcomes


def run_experiment(cfg: ExperimentConfig, model=None) -> list:
    """Run the benchmark for every requested filter over ``cfg.runs`` runs.

    Every filter in a run consumes the identical observation sequence.  A
    run where a filter diverges is recorded as failed for that filter (with
    the reason, ``"step <k>: <ErrorType>: <message>"``), excluded from its
    mean and kept in the failure count; it is never retried, since silent
    retries would bias the error statistics.
    ``model`` overrides the benchmark model (tests use this to pin noise
    variances); the CLI always runs the benchmark.
    """
    reports = {name: RmseReport(name, cfg.steps) for name in cfg.filters}
    for run, truth, _, outcomes in _runs(cfg, model, range(cfg.runs)):
        for name, (estimates, failure) in outcomes.items():
            if failure is None:
                reports[name].rmse_by_run[run] = rmse(truth, estimates)
            else:
                reports[name].failures.append((run, f"step {len(estimates) + 1}: {failure}"))
    return list(reports.values())


def run_trajectory(cfg: ExperimentConfig, model=None) -> list:
    """Single seeded run (run 0; ``cfg.runs`` is unused), recording per-step
    estimates for every filter.

    A filter that fails mid-run keeps its completed estimates; the failing
    step records the reason and it and later steps are missing (None).
    """
    [(_, truth, observations, outcomes)] = _runs(cfg, model, [0])
    failures = [{} for _ in range(cfg.steps)]
    for name, (estimates, failure) in outcomes.items():
        if failure is not None:
            failures[len(estimates)][name] = failure
        estimates += [None] * (cfg.steps - len(estimates))
    return [
        TrajectoryRecord(
            k=k,
            truth=float(truth[k - 1]),
            observation=float(observations[k - 1]),
            estimates={name: outcomes[name][0][k - 1] for name in cfg.filters},
            failures=failures[k - 1],
        )
        for k in range(1, cfg.steps + 1)
    ]


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    return "" if x is None else f"{float(x):.6g}"


def write_summary_csv(path, reports, config_echo: str) -> None:
    """RMSE summary: one row per filter, 6 significant digits."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# config: {config_echo}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["filter", "runs_ok", "runs_failed", "steps", "mean_rmse", "std_rmse"]
        )
        for report in reports:
            writer.writerow(
                [
                    report.filter_name,
                    report.runs_ok,
                    report.runs_failed,
                    report.steps,
                    _fmt(report.mean_rmse) if report.runs_ok else "",
                    _fmt(report.std_rmse) if report.runs_ok else "",
                ]
            )


def write_runs_csv(path, reports, config_echo: str) -> None:
    """Per-run RMSE rows, including failed runs with their reason."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# config: {config_echo}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["filter", "run", "status", "rmse", "note"])
        for report in reports:
            rows = [
                (run, "ok", _fmt(value), "")
                for run, value in sorted(report.rmse_by_run.items())
            ] + [
                (run, "failed", "", reason)
                for run, reason in report.failures
            ]
            for run, status, value, note in sorted(rows):
                writer.writerow([report.filter_name, run, status, value, note])


def write_trajectory_csv(path, records, config_echo: str) -> None:
    """Per-step trajectory rows; absent filters leave their field empty.

    Each filter failure is appended after the rows as a line
    ``# failed: <filter> step <k>: <ErrorType>: <message>``.
    """
    with open(path, "w", newline="") as handle:
        handle.write(f"# config: {config_echo}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k", "truth", "observation", *FILTER_ORDER])
        for record in records:
            writer.writerow(
                [
                    record.k,
                    _fmt(record.truth),
                    _fmt(record.observation),
                    *(
                        _fmt(record.estimates.get(name))
                        for name in FILTER_ORDER
                    ),
                ]
            )
        for record in records:
            for name in FILTER_ORDER:
                if name in record.failures:
                    handle.write(
                        f"# failed: {name} step {record.k}: {record.failures[name]}\n"
                    )
