"""Workloads, inputs, the closed loop and the output checks of the filter
benchmark.

Every workload runs the three filters of ``pdefilter.filters`` side by side
on 50-step trajectories of one scalar model.  It is a closed loop with one
client: the filters take turns on each observation and every step is issued
only after the previous one returns.  The configurations are chosen so that
a different layer does most of the work in each workload:

``growth-table1``
    The paper's Table-1 setting (growth model, 100 particles, grid 100 with
    16 x 16 branches).  The pdef step is led by propagator build and
    application: ``linalg.expm`` and the bin chain in ``assemble_prior``.
``linear-dense``
    The linear-Gaussian model with grid 150 and 64 x 64 = 4096 branches.
    Per-branch work (bumps, branch objects, model calls) leads, and a
    closed-form Kalman filter makes the accuracy check exact.
``pf-wide``
    The growth model with 10^4 particles, where ``pf_step``'s per-particle
    model calls lead.  Its pdef is the lightest configuration that runs
    without failures (grid 48, 4 x 4 branches), so every layer stays
    measured while the particle filter does most of the work.

The filters receive only models, noise quantizations, observation arrays
and the particle filter's generator; the truth, the observations and that
generator come from :class:`numpy.random.SeedSequence` streams of the
benchmark's seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from pdefilter import filters as F
from pdefilter.errors import (
    DomainEscapeError,
    FilterDivergenceError,
    WeightUnderflowError,
)

STEPS = 50
FILTERS = ("ukf", "pf", "pdef")
FAILURES = (DomainEscapeError, FilterDivergenceError, WeightUnderflowError)

# tolerances of the output checks
POSTERIOR_MASS_TOL = 1e-9
KALMAN_TOL = 1e-8

# linear-Gaussian model of the acceptance suite's consistency criterion
LINEAR_A, LINEAR_Q, LINEAR_R, LINEAR_P0 = 0.9, 1.0, 1.0, 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a model and the three filters' settings.

    ``accuracy_trajectories`` is the size of the accuracy ensemble that
    every run completes first.  The ensemble is the same in every run, so
    the RMSE figures are exact: per-trajectory RMSE varies by 30-36% on the
    growth model, and a seed-drawn set this small would spread by more than
    any bound that could still catch a changed answer.
    """

    name: str
    model: str
    particles: int
    grid_nodes: int
    state_quantiles: int
    noise_points: int
    accuracy_trajectories: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("growth-table1", "growth", 100, 100, 16, 16, 8),
        Workload("linear-dense", "linear", 100, 150, 64, 64, 1),
        Workload("pf-wide", "growth", 10_000, 48, 4, 4, 12),
    )
}


def growth_model() -> F.ScalarStateModel:
    """Growth model of Gordon, Salmond & Smith (1993), Q = 10, R = 1."""

    def transition(x, k, v):
        return x / 2.0 + 25.0 * x / (1.0 + x * x) + 8.0 * math.cos(1.2 * k) + v

    def observation(x, k):
        return x * x / 20.0

    return F.ScalarStateModel(
        transition,
        observation,
        process_noise=F.GaussianSpec(0.0, 10.0),
        obs_noise=F.GaussianSpec(0.0, 1.0),
        initial=F.GaussianSpec(0.0, 10.0),
    )


def linear_model() -> F.ScalarStateModel:
    """x_k = a x_{k-1} + v, y_k = x_k + n with a = 0.9 and q = r = p0 = 1."""

    def transition(x, k, v):
        return LINEAR_A * x + v

    def observation(x, k):
        return 1.0 * x

    return F.ScalarStateModel(
        transition,
        observation,
        process_noise=F.GaussianSpec(0.0, LINEAR_Q),
        obs_noise=F.GaussianSpec(0.0, LINEAR_R),
        initial=F.GaussianSpec(0.0, LINEAR_P0),
    )


MODELS = {"growth": growth_model, "linear": linear_model}


@dataclass(frozen=True)
class Setting:
    """What the filters of one workload are called with."""

    workload: Workload
    model: F.ScalarStateModel
    noise: F.NoiseQuantization
    pdef: F.PdefConfig


def setting(workload: Workload, model=None) -> Setting:
    """Build the model, noise quantization and pdef configuration.

    *model* replaces the workload's model (the traced run passes one whose
    calls are counted).
    """
    model = MODELS[workload.model]() if model is None else model
    noise = F.gaussian_quantile_points(
        workload.noise_points, model.process_noise.variance
    )
    cfg = F.PdefConfig(
        grid_nodes=workload.grid_nodes, state_quantiles=workload.state_quantiles
    )
    return Setting(workload, model, noise, cfg)


def initialise(workload: Workload):
    """First ``*_init`` of every filter; fills the spectral-grid caches."""
    s = setting(workload)
    rng = np.random.default_rng(0)
    return (
        F.ukf_init(s.model),
        F.pf_init(s.model, workload.particles, rng),
        F.pdef_init(s.model, s.pdef),
    )


@dataclass(frozen=True)
class Inputs:
    truth: np.ndarray
    observations: np.ndarray
    pf_seed: np.random.SeedSequence


def trajectory_inputs(workload: Workload, seed, index: int, steps: int) -> Inputs:
    """Truth and observations of trajectory *index* under the run's seed, or
    of the accuracy ensemble when *seed* is None.

    Simulated with a model of the benchmark's own, never through the
    counting wrappers of a traced run.
    """
    model = MODELS[workload.model]()
    key = (0, index) if seed is None else (1, seed, index)
    truth_seq, pf_seq = np.random.SeedSequence(key).spawn(2)
    rng = np.random.default_rng(truth_seq)
    x = rng.normal(model.initial.mean, model.initial.std)
    truth = np.empty(steps)
    obs = np.empty(steps)
    for k in range(1, steps + 1):
        x = float(model.transition(x, k, rng.normal(0.0, model.process_noise.std)))
        truth[k - 1] = x
        obs[k - 1] = float(model.observation(x, k)) + rng.normal(
            0.0, model.obs_noise.std
        )
    return Inputs(truth, obs, pf_seq)


def kalman_means(observations) -> np.ndarray:
    """Closed-form Kalman posterior means of the linear workload's model."""
    m, p = 0.0, LINEAR_P0
    means = np.empty(len(observations))
    for i, y in enumerate(observations):
        m_pred = LINEAR_A * m
        p_pred = LINEAR_A * LINEAR_A * p + LINEAR_Q
        gain = p_pred / (p_pred + LINEAR_R)
        m = m_pred + gain * (y - m_pred)
        p = (1.0 - gain) * p_pred
        means[i] = m
    return means


class CheckFailed(Exception):
    """An output check failed; ``check`` names it."""

    def __init__(self, check: str, detail: str):
        self.check = check
        super().__init__(f"{check}: {detail}")


@dataclass
class Tally:
    """What a sequence of trajectories did and how long it took."""

    step_s: dict = field(default_factory=lambda: {n: [] for n in FILTERS})
    busy_s: float = 0.0
    observations: int = 0
    attempted: int = 0
    failed: int = 0
    runs: int = 0
    runs_failed: int = 0
    failures: list = field(default_factory=list)
    rmse: dict = field(default_factory=lambda: {n: [] for n in FILTERS})
    ref_err: float = 0.0


def _step(s: Setting, name, state, k, y, rng):
    # looked up on the module at call time, so a traced run's wrappers apply
    if name == "ukf":
        return F.ukf_step(state, s.model, k, y)
    if name == "pf":
        return F.pf_step(state, s.model, k, y, rng)
    return F.pdef_step(state, s.model, s.noise, k, y, s.pdef)


def _check(name, state, estimate, k):
    if not math.isfinite(estimate):
        raise CheckFailed(f"{name}.estimate_finite", f"step {k}: {estimate!r}")
    if name != "pdef":
        return
    post = state.posterior
    if not np.isfinite(post.values).all():
        raise CheckFailed("pdef.posterior_finite", f"step {k}")
    mass = float(post.grid.physical_weights @ post.values)
    if not abs(mass - 1.0) <= POSTERIOR_MASS_TOL:
        raise CheckFailed("pdef.posterior_mass", f"step {k}: integral {mass!r}")


def run_trajectory(s: Setting, inputs: Inputs, tally: Tally, stop=None, score=False):
    """Run every filter over one trajectory, checking each output.

    ``stop()`` is asked after each observation; a true answer ends the
    trajectory early.  With
    ``score`` (accuracy-ensemble trajectories, which are never stopped) the
    per-filter RMSE is recorded.  A filter that raises one of the typed
    failures is counted and drops out of this trajectory; it is never
    retried.
    """
    steps = len(inputs.observations)
    rng = np.random.default_rng(inputs.pf_seed)
    t0 = perf_counter()
    states = {
        "ukf": F.ukf_init(s.model),
        "pf": F.pf_init(s.model, s.workload.particles, rng),
        "pdef": F.pdef_init(s.model, s.pdef),
    }
    tally.busy_s += perf_counter() - t0
    tally.runs += len(FILTERS)
    estimates = {n: np.empty(steps) for n in FILTERS}
    kalman = kalman_means(inputs.observations) if s.workload.model == "linear" else None

    for k in range(1, steps + 1):
        y = float(inputs.observations[k - 1])
        for name in FILTERS:
            if name not in states:
                continue
            tally.attempted += 1
            t0 = perf_counter()
            try:
                state = _step(s, name, states[name], k, y, rng)
            except FAILURES as err:
                tally.busy_s += perf_counter() - t0
                tally.failed += 1
                tally.runs_failed += 1
                tally.failures.append(f"{name} step {k}: {type(err).__name__}: {err}")
                del states[name]
                continue
            dt = perf_counter() - t0
            tally.busy_s += dt
            tally.step_s[name].append(dt)
            states[name] = state
            estimate = F.estimate(state)
            _check(name, state, estimate, k)
            estimates[name][k - 1] = estimate
            if kalman is not None:
                gap = abs(estimate - kalman[k - 1])
                if name == "ukf" and not gap <= KALMAN_TOL:
                    raise CheckFailed("ukf.kalman_match", f"step {k}: |ukf - kalman| {gap:.3e}")
                if name == "pdef" and score:
                    tally.ref_err = max(tally.ref_err, gap)
        tally.observations += 1
        if stop is not None and stop():
            return
    if score:
        for name in states:
            err = estimates[name] - inputs.truth
            tally.rmse[name].append(math.sqrt(float(np.mean(err * err))))


def warm_up(s: Setting):
    """Two untimed steps, so first-call costs stay out of the figures."""
    run_trajectory(s, trajectory_inputs(s.workload, None, 0, 2), Tally())


def fixed_pass(s: Setting, seed: int, steps: int, accuracy: int, between=None) -> Tally:
    """The accuracy ensemble, scored, then the first seeded trajectory.

    ``between()`` is called before each trajectory, outside the timed calls.
    """
    tally = Tally()
    for index in range(accuracy):
        inputs = trajectory_inputs(s.workload, None, index, steps)
        if between is not None:
            between()
        run_trajectory(s, inputs, tally, score=True)
    if between is not None:
        between()
    run_trajectory(s, trajectory_inputs(s.workload, seed, 0, steps), tally)
    return tally


def closed_loop(s: Setting, seed: int, seconds: float, steps: int, accuracy: int, between=None) -> Tally:
    """:func:`fixed_pass`, then seeded trajectories until *seconds* have passed."""
    start = perf_counter()

    def out_of_time():
        return perf_counter() - start >= seconds

    tally = fixed_pass(s, seed, steps, accuracy, between)
    index = 1
    while not out_of_time():
        inputs = trajectory_inputs(s.workload, seed, index, steps)
        if between is not None:
            between()
        run_trajectory(s, inputs, tally, stop=out_of_time)
        index += 1
    return tally
