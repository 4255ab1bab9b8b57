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
from statistics import NormalDist

import numpy as np

from . import density as density_mod
from .chebyshev import Interval, SpectralGrid, checked_count
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


class UkfState(GaussianSpec):
    """Gaussian posterior of the unscented Kalman filter; a distinct type so
    that :func:`estimate` can tell a filter state from a model's noise."""


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
        _set_count(self, "grid_nodes", 4)
        _set_count(self, "state_quantiles", 1)


def _set_count(config, name: str, minimum: int) -> None:
    """Check field *name* of a frozen dataclass with
    :func:`~pdefilter.chebyshev.checked_count` and store it as a Python
    int."""
    object.__setattr__(config, name, checked_count(name, getattr(config, name), minimum))


_STANDARD_NORMAL = NormalDist()


def gaussian_quantile_points(n: int, variance: float) -> NoiseQuantization:
    """Equal-weight midpoint quantiles of a zero-mean Gaussian.

    Points sit at the inverse normal CDF of (2i + 1) / (2n), scaled by the
    standard deviation; each carries weight 1/n.  The inverse CDF is the
    standard library's ``statistics.NormalDist().inv_cdf`` (Wichura's
    AS241 rational approximations), within 6 ulps of the exact quantile for
    every n up to 256; n = 1 gives exactly 0.
    """
    n = checked_count("n", n, 1)
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    probs = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    standard = np.array([_STANDARD_NORMAL.inv_cdf(p) for p in probs.tolist()])
    return NoiseQuantization(standard * math.sqrt(variance), np.full(n, 1.0 / n))


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


def _observed(y_k, k: int) -> float:
    """The observation ``y_k`` as a float, rejected if NaN or infinite."""
    y = float(y_k)
    if not math.isfinite(y):
        raise ValueError(f"observation y_k must be finite, got {y} at step {k}")
    return y


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
    lo, hi = density_mod._extremes(lik)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("likelihood values must be finite")
    if lo < 0.0:
        raise ValueError("likelihood values must be nonnegative")
    return density_mod.normalize(GridDensity(prior.grid, prior.values * lik))


# prediction attempts per step; each retry widens the domain margin 1.6-fold
_PDEF_ATTEMPTS = 6


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
    ValueError
        If ``y_k`` is NaN or infinite, before any model call.
    DomainEscapeError
        If the transported mass still crosses the boundary margin after six
        attempts, each with a margin 1.6 times wider; the message names the
        attempts, the final margin scale and ``grid_nodes``.
    FilterDivergenceError
        If the posterior mass collapses below threshold or the model returns
        a non-finite value.
    """
    y_obs = _observed(y_k, k)
    branches = make_branches(state.posterior, noise, model, k, cfg.state_quantiles)
    margin_scale = 1.0
    for attempt in range(1, _PDEF_ATTEMPTS + 1):
        domain = prediction_domain(
            branches, cfg.grid_nodes - 1, model.process_noise.std, margin_scale
        )
        grid = SpectralGrid.build(cfg.grid_nodes - 1, domain)
        try:
            prior = assemble_prior(branches, grid)
            break
        except DomainEscapeError as err:
            if attempt == _PDEF_ATTEMPTS:
                raise DomainEscapeError(
                    f"{err} (after {attempt} attempts, final margin scale "
                    f"{margin_scale:.4g}, grid_nodes={cfg.grid_nodes})"
                ) from err
            margin_scale *= 1.6
    predicted = model_output(
        "observation", model.observation(grid.nodes, k), grid.nodes.shape, k
    )
    lik = gaussian_likelihood(y_obs, predicted, model.obs_noise.variance)
    return PdefState(posterior_update(prior, lik))


# --------------------------------------------------------------------------
# bootstrap particle filter
# --------------------------------------------------------------------------

def pf_init(model: ScalarStateModel, n_particles: int, rng: np.random.Generator) -> PfState:
    """Draw the initial particle cloud from the model's initial Gaussian."""
    n_particles = checked_count("n_particles", n_particles, 1)
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
    ValueError
        If ``y_k`` is NaN or infinite, before any model call.
    WeightUnderflowError
        If every reweighted particle weight underflows to zero.
    FilterDivergenceError
        If the model returns a non-finite value.
    """
    y_obs = _observed(y_k, k)
    n = state.particles.size
    draws = rng.normal(0.0, model.process_noise.std, n)
    moved = model_output(
        "transition", model.transition(state.particles, k, draws), (n,), k
    )
    predicted = model_output("observation", model.observation(moved, k), (n,), k)
    weights = state.weights * gaussian_likelihood(
        y_obs, predicted, model.obs_noise.variance
    )
    total = float(weights.sum())
    if not total > 0.0:
        raise WeightUnderflowError(
            f"all particle likelihoods underflowed at step {k}"
        )
    weights = weights / total
    indices = systematic_resample(weights, n, rng.random())
    return PfState(moved[indices], np.full(n, 1.0 / n))


# n_out at and above which systematic_resample counts offspring in one
# linear pass instead of binary-searching each position.  Best of five
# timings per call on random weights with n equal to n_out, one 2-vCPU host,
# one BLAS thread (binary search / linear pass, microseconds): 13 / 24 at
# 100, 23 / 34 at 300, 45 / 48 at 1000, 41 / 43 at 1200, 79 / 73 at 1400,
# 103 / 80 at 2000 and 541 / 230 at 10^4.
_LINEAR_RESAMPLE_MIN = 1024


def systematic_resample(weights, n_out: int, u0: float) -> np.ndarray:
    """Systematic (single stratified offset) resampling indices.

    Position ``(u0 + j) / n_out`` takes the first index whose cumulative
    weight exceeds it, and the last index if none does, so the offspring
    count of index i is fixed by u0 alone; with uniform weights and
    ``n_out`` equal to the input size every index appears exactly once.

    Below ``n_out = 1024`` each position is binary-searched in the
    cumulative weights, O(n_out log n).  From 1024 on, the offspring are
    counted in one linear pass (Hol, Schoen & Gustafsson, NSSPW 2006): the
    number of positions strictly below cumulative weight c is guessed as
    ``ceil(c * n_out - u0)`` from the even spacing, then corrected by
    comparing c with the two positions next to the guess, computed by the
    same expression as the positions searched below 1024.  In units of the
    spacing the guess and the positions are off by a few ulps of ``n_out``
    while the positions lie a whole unit apart, so for any ``n_out`` far
    below 2^50 the guess is at most one off and the corrected counts, and
    the indices, are exactly those of the binary search.

    Raises
    ------
    ValueError
        If the weights are empty, NaN, infinite or negative, or do not sum
        to 1 within 1e-9; if ``u0`` is outside [0, 1); if ``n_out`` is not an
        integer of at least 1.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if not w.min() >= 0.0:
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    if not 0.0 <= u0 < 1.0:
        raise ValueError(f"u0 must lie in [0, 1), got {u0}")
    n_out = checked_count("n_out", n_out, 1)
    # the last index takes every position at or past the second-to-last
    # cumulative weight, also one that rounds up to 1.0
    inner = np.cumsum(w[:-1])
    if n_out < _LINEAR_RESAMPLE_MIN:
        return np.searchsorted(inner, (u0 + np.arange(n_out)) / n_out, side="right")
    # positions strictly below each inner cumulative weight: the guess g,
    # then checked against positions g - 1 and g
    below = np.ceil(inner * n_out - u0)
    below -= (u0 + (below - 1.0)) / n_out >= inner
    below += (u0 + below) / n_out < inner
    # position j takes the number of counts at most j; counts of n_out or
    # more, from inner cumulative weights rounded past 1, are sliced off
    return np.cumsum(np.bincount(below.astype(np.intp), minlength=n_out + 1)[:n_out])


# --------------------------------------------------------------------------
# unscented Kalman filter
# --------------------------------------------------------------------------

# n + lambda and the sigma-point weights for alpha = 1, beta = 0, kappa = 2
# on the augmented dimension n = 2 (see ukf_step)
_UKF_SPREAD = 4.0
_UKF_CENTER_WEIGHT = 0.5
_UKF_SIDE_WEIGHT = 0.125


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

    The five-point arithmetic runs on Python floats held in locals, with one
    scalar model call per sigma point: at this size numpy arrays, and even
    Python lists, cost more than the arithmetic itself.  Each moment is
    written out as a weighted sum, center point first and then left to
    right, which fixes the order in which its rounding accumulates.

    Raises
    ------
    ValueError
        If ``y_k`` is NaN or infinite, before any model call.
    FilterDivergenceError
        If the model returns a non-finite value or the moments overflow.
    """
    y_obs = _observed(y_k, k)
    m = state.mean
    spread_x = math.sqrt(_UKF_SPREAD * state.variance)
    spread_v = math.sqrt(_UKF_SPREAD * model.process_noise.variance)
    f, h = model.transition, model.observation
    # sigma points: the mean, then the state spread, then the noise spread
    x0 = model_output("transition", f(m, k, 0.0), (), k)
    x1 = model_output("transition", f(m + spread_x, k, 0.0), (), k)
    x2 = model_output("transition", f(m - spread_x, k, 0.0), (), k)
    x3 = model_output("transition", f(m, k, spread_v), (), k)
    x4 = model_output("transition", f(m, k, -spread_v), (), k)
    y0 = model_output("observation", h(x0, k), (), k)
    y1 = model_output("observation", h(x1, k), (), k)
    y2 = model_output("observation", h(x2, k), (), k)
    y3 = model_output("observation", h(x3, k), (), k)
    y4 = model_output("observation", h(x4, k), (), k)
    c, s = _UKF_CENTER_WEIGHT, _UKF_SIDE_WEIGHT
    mean_pred = c * x0 + s * x1 + s * x2 + s * x3 + s * x4
    y_mean = c * y0 + s * y1 + s * y2 + s * y3 + s * y4
    dx0, dx1, dx2 = x0 - mean_pred, x1 - mean_pred, x2 - mean_pred
    dx3, dx4 = x3 - mean_pred, x4 - mean_pred
    dy0, dy1, dy2 = y0 - y_mean, y1 - y_mean, y2 - y_mean
    dy3, dy4 = y3 - y_mean, y4 - y_mean
    var_pred = (
        c * (dx0 * dx0) + s * (dx1 * dx1) + s * (dx2 * dx2)
        + s * (dx3 * dx3) + s * (dx4 * dx4)
    )
    innovation_var = (
        c * (dy0 * dy0) + s * (dy1 * dy1) + s * (dy2 * dy2)
        + s * (dy3 * dy3) + s * (dy4 * dy4)
    ) + model.obs_noise.variance
    cross = (
        c * (dx0 * dy0) + s * (dx1 * dy1) + s * (dx2 * dy2)
        + s * (dx3 * dy3) + s * (dx4 * dy4)
    )
    gain = cross / innovation_var
    mean_post = mean_pred + gain * (y_obs - y_mean)
    var_post = max(var_pred - gain * gain * innovation_var, 1e-12)
    if not (math.isfinite(mean_post) and math.isfinite(var_post)):
        raise FilterDivergenceError(f"unscented filter overflowed at step {k}")
    return UkfState(mean_post, var_post)


def estimate(state) -> float:
    """Point estimate (posterior mean) of any filter state."""
    if isinstance(state, PdefState):
        return density_mod.mean(state.posterior)
    if isinstance(state, PfState):
        return float(state.weights @ state.particles)
    if isinstance(state, UkfState):
        return state.mean
    raise TypeError(f"not a filter state: {type(state).__name__}")
