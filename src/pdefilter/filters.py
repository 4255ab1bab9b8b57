"""Recursive Bayesian filters over a shared scalar state-space model.

Three filters share one model abstraction:

* a density-evolution filter that predicts the prior by transporting the
  posterior density along representative characteristics on a spectral grid
  (see :mod:`pdefilter.density`) and updates it by Bayes' rule,
* a bootstrap particle filter with systematic resampling at every step,
* an unscented Kalman filter in augmented-state form.

All stepping functions are pure in the sense that they take a state and
return a new state; randomness enters only through generators passed in
explicitly, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import density as density_mod
from .chebyshev import Interval, SpectralGrid
from .density import GridDensity, assemble_prior, make_branches, model_output, prediction_domain
from .errors import DomainEscapeError, FilterDivergenceError, WeightUnderflowError


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and variance of a scalar Gaussian."""

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class ScalarStateModel:
    """Scalar state-space model with additive Gaussian noises.

    ``transition(x, k, v)`` maps the previous state and a process-noise value
    to the state at step k; ``observation(x, k)`` maps a state to the
    noise-free measurement.  Both must work elementwise on numpy arrays and
    broadcast ``x`` against ``v`` (the particle and density filters call
    them once per step on whole arrays), and must still accept Python
    floats, which is how the unscented filter calls them.  An output that
    does not depend on ``x`` may be a scalar; it is broadcast.  The inputs
    must not be modified in place.

    The process noise must be additive: the density-evolution filter relies
    on ``transition(x, k, v) == transition(x, k, 0.0) + v``, calling the
    transition once with ``v = 0.0`` and adding its noise points.  The
    particle and unscented filters do not rely on it.  It is not checked.

    Both noises are zero-mean: every filter and the truth simulation draw
    or score them about zero, so a nonzero ``process_noise.mean`` or
    ``obs_noise.mean`` is rejected (fold an offset into the transition or
    the observation instead).  ``initial.mean`` may be anything.
    """

    transition: callable
    observation: callable
    process_noise: GaussianSpec
    obs_noise: GaussianSpec
    initial: GaussianSpec

    def __post_init__(self):
        for name in ("process_noise", "obs_noise"):
            noise_mean = getattr(self, name).mean
            if noise_mean != 0.0:
                raise ValueError(f"{name}.mean must be 0, got {noise_mean}")


@dataclass(frozen=True)
class NoiseQuantization:
    """Deterministic representative points with probability weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape or pts.size == 0:
            raise ValueError("points and weights must be equal-length 1-D arrays")
        if not np.isfinite(pts).all():
            raise ValueError("noise points must be finite")
        if not np.isfinite(wts).all():
            raise ValueError("noise weights must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("points must be strictly increasing")
        if wts.min() <= 0.0:
            raise ValueError("weights must be positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {wts.sum()!r}, expected 1")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


@dataclass(frozen=True)
class PdefState:
    """Grid posterior of the density-evolution filter."""

    posterior: GridDensity


@dataclass(frozen=True)
class PfState:
    """Weighted particle approximation of the posterior."""

    particles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        parts = np.array(self.particles, dtype=float)
        wts = np.array(self.weights, dtype=float)
        if parts.ndim != 1 or parts.shape != wts.shape or parts.size == 0:
            raise ValueError("particles and weights must be equal-length 1-D arrays")
        if not np.isfinite(parts).all():
            raise ValueError("particles must be finite")
        if not np.isfinite(wts).all():
            raise ValueError("particle weights must be finite")
        if wts.min() < 0.0:
            raise ValueError("particle weights must be nonnegative")
        if abs(wts.sum() - 1.0) > 1e-9:
            raise ValueError(f"particle weights sum to {wts.sum()!r}, expected 1")
        parts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "particles", parts)
        object.__setattr__(self, "weights", wts)


@dataclass(frozen=True)
class UkfState:
    """Gaussian posterior of the unscented Kalman filter."""

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")


@dataclass(frozen=True)
class PdefConfig:
    """Tunables of the density-evolution filter.

    ``grid_nodes`` is the node count of the spectral grid (the polynomial
    order is one less) and ``state_quantiles`` the number of
    equal-probability posterior points entering each prediction.  The
    mollification width is fixed at 1.5 node spacings
    (:func:`~pdefilter.density.mollified_delta`).
    """

    grid_nodes: int = 100
    state_quantiles: int = 16

    def __post_init__(self):
        if self.grid_nodes < 4:
            raise ValueError(f"grid_nodes must be >= 4, got {self.grid_nodes}")
        if self.state_quantiles < 1:
            raise ValueError(
                f"state_quantiles must be >= 1, got {self.state_quantiles}"
            )


def gaussian_quantile_points(n: int, variance: float) -> NoiseQuantization:
    """Equal-weight midpoint quantiles of a zero-mean Gaussian.

    Points sit at the inverse normal CDF of (2i + 1) / (2n), scaled by the
    standard deviation; each carries weight 1/n.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    probs = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    points = ndtri(probs) * math.sqrt(variance)
    return NoiseQuantization(points, np.full(n, 1.0 / n))


def gaussian_likelihood(y, y_pred, obs_variance: float):
    """Normal density of the innovation ``y - y_pred`` with the given variance.

    Broadcasts over array-valued ``y_pred`` (e.g. grid nodes or particles).
    """
    if not obs_variance > 0.0:
        raise ValueError(f"observation variance must be positive, got {obs_variance}")
    resid = np.asarray(y, dtype=float) - np.asarray(y_pred, dtype=float)
    out = np.exp(-0.5 * resid * resid / obs_variance) / math.sqrt(
        2.0 * math.pi * obs_variance
    )
    return float(out) if np.ndim(out) == 0 else out


# --------------------------------------------------------------------------
# density-evolution filter
# --------------------------------------------------------------------------

def pdef_init(model: ScalarStateModel, cfg: PdefConfig = PdefConfig()) -> PdefState:
    """Initial grid posterior: the model's initial Gaussian on an 8-sigma grid."""
    initial = model.initial
    half = 8.0 * initial.std
    grid = SpectralGrid.build(
        cfg.grid_nodes - 1, Interval(initial.mean - half, initial.mean + half)
    )
    values = np.exp(-0.5 * ((grid.nodes - initial.mean) / initial.std) ** 2)
    posterior = density_mod.normalize(GridDensity(grid, values))
    return PdefState(posterior)


def posterior_update(prior: GridDensity, likelihood_values) -> GridDensity:
    """Bayes update on the grid: multiply by the likelihood and renormalize.

    Normalizing the pointwise product realizes the evidence denominator by
    the same quadrature, so no separate integral is needed.
    """
    lik = np.asarray(likelihood_values, dtype=float)
    if lik.shape != prior.values.shape:
        raise ValueError(
            f"likelihood shape {lik.shape} does not match grid {prior.values.shape}"
        )
    if lik.min() < 0.0:
        raise ValueError("likelihood values must be nonnegative")
    return density_mod.normalize(GridDensity(prior.grid, prior.values * lik))


def pdef_step(
    state: PdefState,
    model: ScalarStateModel,
    noise: NoiseQuantization,
    k: int,
    y_k: float,
    cfg: PdefConfig = PdefConfig(),
) -> PdefState:
    """One predict/update recursion of the density-evolution filter.

    Prediction decomposes the posterior into branches, selects a fresh grid
    covering their starts and ends with margin, and assembles the transported
    prior there; the update multiplies the prior by the observation
    likelihood at the nodes and renormalizes.

    Raises
    ------
    FilterDivergenceError
        If the posterior mass collapses below threshold or the model returns
        a non-finite value.
    """
    branches = make_branches(state.posterior, noise, model, k, cfg.state_quantiles)
    margin_scale = 1.0
    for attempt in range(6):
        domain = prediction_domain(
            branches, cfg.grid_nodes - 1, model.process_noise.std, margin_scale
        )
        grid = SpectralGrid.build(cfg.grid_nodes - 1, domain)
        try:
            prior = assemble_prior(branches, grid)
            break
        except DomainEscapeError:
            if attempt == 5:
                raise
            margin_scale *= 1.6
    predicted = model_output(
        "observation", model.observation(grid.nodes, k), grid.nodes.shape, k
    )
    lik = gaussian_likelihood(y_k, predicted, model.obs_noise.variance)
    return PdefState(posterior_update(prior, lik))


# --------------------------------------------------------------------------
# bootstrap particle filter
# --------------------------------------------------------------------------

def pf_init(model: ScalarStateModel, n_particles: int, rng: np.random.Generator) -> PfState:
    """Draw the initial particle cloud from the model's initial Gaussian."""
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")
    particles = rng.normal(model.initial.mean, model.initial.std, n_particles)
    return PfState(particles, np.full(n_particles, 1.0 / n_particles))


def pf_step(
    state: PfState,
    model: ScalarStateModel,
    k: int,
    y_k: float,
    rng: np.random.Generator,
) -> PfState:
    """Bootstrap proposal, likelihood reweighting, systematic resampling.

    Every particle is pushed through the transition with a fresh process
    noise draw, weights are multiplied by the observation likelihood and the
    cloud is resampled every step, so the returned weights are uniform.  The
    transition and the observation are each called once, on the particle
    array.

    Raises
    ------
    WeightUnderflowError
        If every reweighted particle weight underflows to zero.
    FilterDivergenceError
        If the model returns a non-finite value.
    """
    n = state.particles.size
    draws = rng.normal(0.0, model.process_noise.std, n)
    moved = model_output(
        "transition", model.transition(state.particles, k, draws), (n,), k
    )
    predicted = model_output("observation", model.observation(moved, k), (n,), k)
    weights = state.weights * gaussian_likelihood(
        y_k, predicted, model.obs_noise.variance
    )
    total = float(weights.sum())
    if not total > 0.0:
        raise WeightUnderflowError(
            f"all particle likelihoods underflowed at step {k}"
        )
    weights = weights / total
    indices = systematic_resample(weights, n, rng.random())
    return PfState(moved[indices], np.full(n, 1.0 / n))


def systematic_resample(weights, n_out: int, u0: float) -> np.ndarray:
    """Systematic (single stratified offset) resampling indices.

    Positions ``(u0 + j) / n_out`` are matched against the cumulative
    weights, so the offspring count of index i is fixed by u0 alone; with
    uniform weights and ``n_out`` equal to the input size every index
    appears exactly once.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
    if not 0.0 <= u0 < 1.0:
        raise ValueError(f"u0 must lie in [0, 1), got {u0}")
    if n_out < 1:
        raise ValueError(f"n_out must be >= 1, got {n_out}")
    positions = (u0 + np.arange(n_out)) / n_out
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions, side="right")


# --------------------------------------------------------------------------
# unscented Kalman filter
# --------------------------------------------------------------------------

# n + lambda and the sigma-point weights for alpha = 1, beta = 0, kappa = 2
# on the augmented dimension n = 2 (see ukf_step)
_UKF_SPREAD = 4.0
_UKF_WEIGHTS = (0.5, 0.125, 0.125, 0.125, 0.125)


def ukf_init(model: ScalarStateModel) -> UkfState:
    return UkfState(model.initial.mean, model.initial.variance)


def ukf_step(state: UkfState, model: ScalarStateModel, k: int, y_k: float) -> UkfState:
    """Scalar unscented Kalman step, augmented-state form.

    The sigma set spans state and process noise jointly (five points for the
    scalar model), so the predicted spread carries the noise through the
    transition and the same propagated points drive the measurement update;
    on a linear model this reproduces the Kalman recursion exactly.  The
    observation noise is additive, entering the innovation variance as R.

    The spread parameters are fixed at alpha = 1, beta = 0, kappa = 2.  With
    n = 2, lambda = alpha^2 (n + kappa) - n = 2, so the points sit
    ``sqrt(n + lambda) = 2`` standard deviations out; the center weight
    lambda / (n + lambda) = 1/2 and side weights 1 / (2 (n + lambda)) = 1/8
    serve for both mean and covariance, since 1 - alpha^2 + beta = 0.  No
    weight is negative, so the innovation variance is at least R.

    The five-point arithmetic runs on Python floats, with one scalar model
    call per sigma point: at this size numpy arrays cost more than the
    arithmetic itself.

    Raises
    ------
    FilterDivergenceError
        If the model returns a non-finite value or the moments overflow.
    """
    m, var = state.mean, state.variance
    spread_x = math.sqrt(_UKF_SPREAD * var)
    spread_v = math.sqrt(_UKF_SPREAD * model.process_noise.variance)
    points = (m, m + spread_x, m - spread_x, m, m)
    noises = (0.0, 0.0, 0.0, spread_v, -spread_v)
    moved = [
        model_output("transition", model.transition(x, k, v), (), k)
        for x, v in zip(points, noises)
    ]
    predicted = [
        model_output("observation", model.observation(x, k), (), k) for x in moved
    ]
    mean_pred = _weighted_sum(_UKF_WEIGHTS, moved)
    y_mean = _weighted_sum(_UKF_WEIGHTS, predicted)
    dx = [x - mean_pred for x in moved]
    dy = [y - y_mean for y in predicted]
    var_pred = _weighted_sum(_UKF_WEIGHTS, [d * d for d in dx])
    innovation_var = _weighted_sum(_UKF_WEIGHTS, [d * d for d in dy]) + model.obs_noise.variance
    cross = _weighted_sum(_UKF_WEIGHTS, [a * b for a, b in zip(dx, dy)])
    gain = cross / innovation_var
    mean_post = mean_pred + gain * (float(y_k) - y_mean)
    var_post = max(var_pred - gain * gain * innovation_var, 1e-12)
    if not (math.isfinite(mean_post) and math.isfinite(var_post)):
        raise FilterDivergenceError(f"unscented filter overflowed at step {k}")
    return UkfState(mean_post, var_post)


def _weighted_sum(weights, values) -> float:
    return sum(w * x for w, x in zip(weights, values))


def estimate(state) -> float:
    """Point estimate (posterior mean) of any filter state."""
    if isinstance(state, PdefState):
        return density_mod.mean(state.posterior)
    if isinstance(state, PfState):
        return float(state.weights @ state.particles)
    if isinstance(state, UkfState):
        return state.mean
    raise TypeError(f"not a filter state: {type(state).__name__}")
