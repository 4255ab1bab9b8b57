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
from .chebyshev import Interval, SpectralGrid, checked_count, checked_real
from .density import (
    GridDensity, assemble_prior, checked_grid_nodes, make_branches, model_output, prediction_domain,
)
from .errors import FilterDivergenceError, WeightUnderflowError


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and variance of a scalar Gaussian: real numbers
    (:func:`~pdefilter.chebyshev.checked_real`), a finite mean and a
    positive, finite variance."""

    mean: float
    variance: float

    def __post_init__(self):
        mean = checked_real("mean", self.mean)
        variance = checked_real("variance", self.variance)
        if not math.isfinite(mean):
            raise ValueError(f"mean must be finite, got {mean}")
        if not (variance > 0.0 and math.isfinite(variance)):
            raise ValueError(f"variance must be positive and finite, got {variance}")

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
class PdefState:
    """Grid posterior of the density-evolution filter."""

    posterior: GridDensity


@dataclass(frozen=True)
class PfState:
    """Equally weighted particle cloud: the bootstrap filter resamples every step."""

    particles: np.ndarray

    def __post_init__(self):
        parts = np.array(self.particles, dtype=float)
        if parts.ndim != 1 or parts.size == 0:
            raise ValueError("particles must be a nonempty 1-D array")
        lo, hi = density_mod._extremes(parts)
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError("particles must be finite")
        parts.setflags(write=False)
        object.__setattr__(self, "particles", parts)


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
    (:func:`~pdefilter.density.mollified_delta`).  ``grid_nodes`` of 29 or
    fewer is refused with ``ValueError``: no domain keeps the bumps of such
    a grid inside its boundary margin
    (:func:`~pdefilter.density.checked_grid_nodes`, the one rule that
    refuses a grid, which :func:`~pdefilter.density.prediction_domain`
    applies too).  The fields have defaults, but no function builds a
    configuration for its caller: :func:`pdef_init` and :func:`pdef_step`
    take one, and importing the package builds none.  On the growth model
    with 16 x 16 branches every run from 30 to 36 nodes loses its posterior
    mass; 40 is the smallest grid measured to complete (README, Command
    line).
    """

    grid_nodes: int = 100
    state_quantiles: int = 16

    def __post_init__(self):
        object.__setattr__(self, "grid_nodes", checked_grid_nodes(self.grid_nodes))
        _set_count(self, "state_quantiles", 1)


def _set_count(config, name: str, minimum: int) -> None:
    """Check field *name* of a frozen dataclass with
    :func:`~pdefilter.chebyshev.checked_count` and store it as a Python
    int."""
    object.__setattr__(config, name, checked_count(name, getattr(config, name), minimum))


_STANDARD_NORMAL = NormalDist()


def gaussian_quantile_points(n: int, variance: float) -> np.ndarray:
    """The n equal-probability midpoint quantiles of a zero-mean Gaussian,
    as an ascending, read-only 1-D array: the process-noise points of
    :func:`pdef_step`, each standing for probability 1/n.

    Points sit at the inverse normal CDF of (2i + 1) / (2n), scaled by the
    standard deviation.  The inverse CDF is the standard library's
    ``statistics.NormalDist().inv_cdf`` (Wichura's AS241 rational
    approximations), within 6 ulps of the exact quantile for every n up to
    256; n = 1 gives exactly 0.  A variance that is not a real number
    (:func:`~pdefilter.chebyshev.checked_real`) or not positive and finite
    (NaN or infinity included) raises ``ValueError``.
    """
    n = checked_count("n", n, 1)
    variance = checked_real("variance", variance)
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    probs = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    standard = np.array([_STANDARD_NORMAL.inv_cdf(p) for p in probs.tolist()])
    points = standard * math.sqrt(variance)
    points.setflags(write=False)
    return points


# as a decorator the overflow guard cost about 0.8 us per call at 100
# entries, against 1.4 to 2.1 us in a with statement, which builds an
# errstate object per call
@np.errstate(over="ignore")
def gaussian_likelihood(y, y_pred, obs_variance: float):
    """Normal density of the innovation ``y - y_pred`` with the given variance.

    Broadcasts over array-valued ``y_pred`` (e.g. grid nodes or particles),
    returning a fresh array; 0-d inputs give a Python float.  A variance
    that is not a real number (:func:`~pdefilter.chebyshev.checked_real`)
    is refused, as is an infinite one, which makes every likelihood 0.

    The array is computed in place, in the order of
    ``exp(-0.5 * r * r / var) / sqrt(2 pi var)`` with ``r = y - y_pred``:
    ``-0.5 r``, times ``r``, over ``var``, ``exp``, over the root, so every
    rounding, the far-tail underflow to 0 included, is that expression's.
    An exponent too large for a double (an innovation beyond about 1.9e154
    at unit variance) overflows to ``-inf``, whose ``exp`` is the
    likelihood 0, without a warning.
    """
    obs_variance = checked_real("observation variance", obs_variance)
    if not 0.0 < obs_variance < math.inf:
        raise ValueError(f"observation variance must be positive and finite, got {obs_variance}")
    resid = np.asarray(y, dtype=float) - np.asarray(y_pred, dtype=float)
    norm = math.sqrt(2.0 * math.pi * obs_variance)
    if resid.ndim == 0:
        return float(np.exp(-0.5 * resid * resid / obs_variance) / norm)
    out = np.multiply(resid, -0.5)
    out *= resid
    out /= obs_variance
    np.exp(out, out=out)
    out /= norm
    return out


def _observed(y_k, k: int) -> float:
    """The observation ``y_k`` as a float.

    A real number is taken (:func:`~pdefilter.chebyshev.checked_real`): a
    Python or numpy integer or float.  A bool, a string, an array of any
    shape and anything else is refused, as is a number beyond the float
    range and a NaN or infinite value; each with a ``ValueError`` naming
    ``y_k`` and step *k*.
    """
    try:
        y = checked_real("observation y_k", y_k)
    except ValueError as err:
        raise ValueError(f"{err} at step {k}") from None
    if not math.isfinite(y):
        raise ValueError(f"observation y_k must be finite, got {y} at step {k}")
    return y


# --------------------------------------------------------------------------
# density-evolution filter
# --------------------------------------------------------------------------

def pdef_init(model: ScalarStateModel, cfg: PdefConfig) -> PdefState:
    """Initial grid posterior: the model's initial Gaussian on an 8-sigma
    grid of ``cfg.grid_nodes`` nodes.  *cfg* is required: no configuration
    is built for the caller."""
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


def pdef_step(
    state: PdefState,
    model: ScalarStateModel,
    noise: np.ndarray,
    k: int,
    y_k: float,
    cfg: PdefConfig,
) -> PdefState:
    """One predict/update recursion of the density-evolution filter.

    Prediction decomposes the posterior into equally weighted branches,
    the product of ``cfg.state_quantiles`` posterior quantiles with the
    process-noise points *noise* (a 1-D array, normally
    :func:`gaussian_quantile_points`), selects a fresh grid that every
    start's bump clears after its extreme shifts
    (:func:`~pdefilter.density.prediction_domain`), and assembles the
    transported prior there, in one attempt; the update multiplies the
    prior by the observation likelihood at the nodes and renormalizes.
    *cfg* is required, as for :func:`pdef_init`; its ``grid_nodes`` was
    checked when it was built, so every step's grid is served.

    Raises
    ------
    ValueError
        If ``y_k`` is not a real number or is NaN or infinite, before any
        model call; if *noise* is empty, not 1-D or not finite; if a model
        output has the wrong shape
        (:func:`~pdefilter.density.model_output`).
    DomainEscapeError
        If more than 1e-6 of a branch's mass still crosses the boundary
        margin (the message names the branch).
    FilterDivergenceError
        If the posterior mass collapses below threshold or the model returns
        a non-finite value.
    """
    y_obs = _observed(y_k, k)
    branches = make_branches(state.posterior, noise, model, k, cfg.state_quantiles)
    order = cfg.grid_nodes - 1
    grid = SpectralGrid.build(order, prediction_domain(branches, order, model.process_noise.std))
    prior = assemble_prior(branches, grid)
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
    return PfState(rng.normal(model.initial.mean, model.initial.std, n_particles))


def pf_step(
    state: PfState,
    model: ScalarStateModel,
    k: int,
    y_k: float,
    rng: np.random.Generator,
) -> PfState:
    """Bootstrap proposal, likelihood reweighting, systematic resampling.

    Every particle is pushed through the transition with a fresh process
    noise draw and weighted by its likelihood times the scalar prior weight
    1/n (the same bits as a per-particle array of 1/n); the cloud is resampled
    every step, so the new state is its particles alone.  The transition and
    the observation are each called once, on the particle array.

    Raises
    ------
    ValueError
        If ``y_k`` is not a real number or is NaN or infinite, before any
        model call; if a model output has the wrong shape
        (:func:`~pdefilter.density.model_output`).
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
    # in place: fresh n-sized arrays here let malloc trim the heap and refault
    # it the next step (about 45 minor faults on 4 steps in 10 at 10^4 particles)
    weights = gaussian_likelihood(y_obs, predicted, model.obs_noise.variance)
    weights *= 1.0 / n
    total = float(weights.sum())
    if not total > 0.0:
        raise WeightUnderflowError(f"all particle likelihoods underflowed at step {k}")
    weights /= total
    indices = systematic_resample(weights, n, rng.random())
    return PfState(moved[indices])


# n_out at and above which systematic_resample counts offspring in one
# linear pass instead of binary-searching each position.  Best time per call
# over 15 to 25 rounds that alternate the two paths, on random weights with
# n equal to n_out, one 2-vCPU host, one BLAS thread (binary search / linear
# pass, microseconds): 7.6 / 16.8 at 100, 11.8 / 20.2 at 300, 18.1 / 25.4
# at 600, 27.2 / 29.3 at 1024, 30.9 / 31.3 at 1200, 32.7 / 32.5 at 1250,
# 34.7 / 32.5 at 1300, 38.7 / 36.2 at 1400, 57.3 / 45.2 at 2000 and
# 334 / 160 at 10^4.
_LINEAR_RESAMPLE_MIN = 1250


def systematic_resample(weights, n_out: int, u0: float) -> np.ndarray:
    """Systematic (single stratified offset) resampling indices.

    Position ``(u0 + j) / n_out`` takes the first index whose cumulative
    weight exceeds it, and the last index if none does, so the offspring
    count of index i is fixed by u0 alone; with uniform weights and
    ``n_out`` equal to the input size every index appears exactly once.

    Below ``n_out = 1250`` each position is binary-searched in the
    cumulative weights, O(n_out log n).  From 1250 on, the offspring are
    counted in one linear pass (Hol, Schoen & Gustafsson, NSSPW 2006): the
    number of positions strictly below cumulative weight c is guessed as
    ``ceil(c * n_out - u0)`` from the even spacing, then corrected by
    comparing c with the two positions next to the guess, computed by the
    same expression as the positions searched below 1250.  In units of the
    spacing the guess and the positions are off by a few ulps of ``n_out``
    while the positions lie a whole unit apart, so for any ``n_out`` far
    below 2^50 the guess is at most one off and the corrected counts, and
    the indices, are exactly those of the binary search.

    Raises
    ------
    ValueError
        If the weights are not a nonempty 1-D array, are NaN, infinite or
        negative, or do not sum to 1 within 1e-9; if ``u0`` is outside
        [0, 1); if ``n_out`` is not an integer of at least 1.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"weights must be a nonempty 1-D array, got shape {w.shape}")
    # argmin picks the first NaN, so one pick refuses NaN and negatives
    if not w.item(w.argmin()) >= 0.0:
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    if not 0.0 <= u0 < 1.0:
        raise ValueError(f"u0 must lie in [0, 1), got {u0}")
    n_out = checked_count("n_out", n_out, 1)
    # the last index takes every position at or past the second-to-last
    # cumulative weight, also one that rounds up to 1.0
    inner = w[:-1].cumsum()
    if n_out < _LINEAR_RESAMPLE_MIN:
        # (u0 + j) / n_out, built in place
        positions = np.arange(n_out, dtype=float)
        positions += u0
        positions /= n_out
        return inner.searchsorted(positions, side="right")
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
        If ``y_k`` is not a real number or is NaN or infinite, before any
        model call; if a model output is not a real number or a 0-d array
        (:func:`~pdefilter.density.model_output`).
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
        return float(state.particles.sum() / state.particles.size)
    if isinstance(state, UkfState):
        return state.mean
    raise TypeError(f"not a filter state: {type(state).__name__}")
