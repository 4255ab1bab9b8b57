"""Densities on a spectral grid and the transport machinery that predicts
them forward one filter step.

A :class:`GridDensity` stores nonnegative nodal values of a probability
density (per unit of physical x) on a :class:`~pdefilter.chebyshev.SpectralGrid`.
Prediction decomposes the current posterior into weighted "branches", the
product of representative start states with the representative points of
the quantized process noise, transports a narrow Gaussian bump along each
branch's characteristic with the exact advection propagator, and sums the
transported mass into the prior for the next step.  The noise is additive,
``x_k = f(x, k) + v``, and the propagators commute, so the branch sum
factors exactly into one rotation per start by its drift ``f(x) - x``,
summed, times one noise factor ``sum_p w_p exp(v_p F)``.  The noise keeps
the paper's quantized points, not the exact Gaussian factor.

Advection solves ``dp/dtau + v dp/dx = 0`` semi-discretely: ``dp/dtau = L p``
with ``L = -v_ref D`` on the reference interval, integrated exactly over the
pseudo-time step as ``p(dt) = expm(dt L) p(0)``.  The two endpoint values are
identified (their evolution uses the average of the two endpoint rows of L)
before exponentiating, which closes the domain periodically.  Folding the
identification into the operator is essential: the raw exponential of the
open-domain operator extrapolates the degree-N interpolant outside the
domain and overflows catastrophically, while the folded operator has purely
neutral spectrum and transports mass conservatively.  Since every density
handled here keeps several margin widths of clearance from the boundary, the
periodic identification never moves visible mass.

The folded generator is ``v s F_N``, where ``s`` converts physical to
reference velocity and ``F_N`` (the folded generator at unit velocity on
[-1, 1]) depends only on the grid order.  One eigendecomposition
``F_N = V diag(lam) V^-1`` per order is cached, and every transport is
``V diag(exp(t lam)) V^-1`` applied to the folded values with
``t = v s dt``; no matrix exponential is formed.  Eigenvector exponentials
are unsafe for badly conditioned V (Moler & Van Loan, SIAM Rev. 2003), but
here ``cond(V)`` stays below 100 for every order up to 400 and the spectrum
is imaginary to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import Interval, SpectralGrid, affine_scale, barycentric_matrix, diff_matrix
from .errors import DomainEscapeError, FilterDivergenceError

# unused here, but perfbench/tracer.py rebinds it on this module for traced runs
from .chebyshev import barycentric_interp  # noqa: F401

# nodal values below this fraction of the peak do not count as support
_SUPPORT_RTOL = 1e-12

# total mass at or below this threshold is treated as filter divergence
_MASS_FLOOR = 1e-300

# branch masses must sum to one this tightly before a prediction step
_MASS_SUM_TOL = 1e-9

# standard deviation of a mollified delta, in mean node gaps next to its center
_BUMP_WIDTH = 1.5

# smallest normal double; GridDensity stores smaller values as 0.0
_TINY = float(np.finfo(float).tiny)

# mollified_delta's last result: (grid, center, bump)
_last_bump = (None, None, None)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density values at the nodes of a spectral grid.

    Values below the smallest normal double (``np.finfo(float).tiny``,
    about 2.2e-308) are stored as 0.0.  Far tails underflow into subnormal
    doubles, which add nothing a quadrature can see but send every matrix
    product over the values down a slow path of the floating-point unit.
    """

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal values, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("density values must be finite")
        if v.size and v.min() < 0.0:
            raise ValueError("density values must be nonnegative")
        v[v < _TINY] = 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Branches:
    """The transported characteristics of one prediction step: the product
    of S start states with P process-noise points, as arrays.

    Start s sits at ``start_state[s]``, carries probability mass
    ``start_mass[s]`` and is moved by the noise-free transition by
    ``drift[s]``; noise point p has value ``noise_value[p]`` and weight
    ``noise_weight[p]``.  Branch ``i = s * P + p`` pairs the two: it carries
    mass ``start_mass[s] * noise_weight[p]`` and moves at the constant
    velocity ``drift[s] + noise_value[p]`` over the unit pseudo-time step,
    which under additive noise lands it on ``transition(start, k, noise)``.
    ``len()`` is the branch count S * P.  The arrays are validated once and
    stored read-only.
    """

    start_state: np.ndarray
    start_mass: np.ndarray
    drift: np.ndarray
    noise_value: np.ndarray
    noise_weight: np.ndarray

    def __post_init__(self):
        names = ("start_state", "start_mass", "drift", "noise_value", "noise_weight")
        arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        for first, *rest in (arrays[:3], arrays[3:]):
            if first.ndim != 1 or any(a.shape != first.shape for a in rest):
                raise ValueError("branch fields must be equal-length 1-D arrays")
        for name, a in zip(names, arrays):
            if not np.isfinite(a).all():
                raise ValueError(f"branch field {name} must be finite")
            if name in ("start_mass", "noise_weight") and a.size:
                if not (a.min() > 0.0 and a.max() <= 1.0):
                    raise ValueError(
                        f"branch field {name} must be in (0, 1], got range "
                        f"[{a.min()}, {a.max()}]"
                    )
        drift, noise = arrays[2], arrays[3]
        if drift.size and noise.size:
            velocity = (drift.min() + noise.min(), drift.max() + noise.max())
            if not np.isfinite(velocity).all():
                raise ValueError("branch velocity must be finite")
        for name, a in zip(names, arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.start_state.size * self.noise_value.size


def integrate(density: GridDensity) -> float:
    """Quadrature of the density over its domain."""
    return float(density.grid.physical_weights @ density.values)


def mean(density: GridDensity) -> float:
    """Quadrature of x * p(x); the mean when the density is normalized."""
    g = density.grid
    return float(g.physical_weights @ (g.nodes * density.values))


def normalize(density: GridDensity) -> GridDensity:
    """Scale the density to unit quadrature mass.

    Raises
    ------
    FilterDivergenceError
        If the total mass is at or below the divergence floor.
    """
    total = integrate(density)
    if not total > _MASS_FLOOR:
        raise FilterDivergenceError(
            f"filter divergence: density mass {total:.3e} is below threshold"
        )
    return GridDensity(density.grid, density.values / total)


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    """Integral of |a - b| for two densities on the same grid."""
    if a.grid is not b.grid and not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("densities live on different grids")
    return float(a.grid.physical_weights @ np.abs(a.values - b.values))


def mollified_delta(grid: SpectralGrid, center: float) -> GridDensity:
    """A unit-mass Gaussian bump standing in for a point mass at *center*.

    The standard deviation is 1.5 times the mean node spacing adjacent to
    *center*, so the bump stays resolvable wherever it is placed.

    The last bump built is cached: a call on the same grid object with an
    equal *center* returns that same bump without rebuilding it, so
    :func:`assemble_prior`'s one call per branch builds one bump per start
    group.  The returned bump may therefore be shared;
    like every :class:`GridDensity` it is read-only.  The traced
    ``density.mollified_delta.calls`` counts calls, not builds.
    """
    global _last_bump
    center = float(center)
    # read the entry once and replace it whole, so a concurrent caller never
    # sees a torn entry; a lost replacement only costs a rebuild
    cached_grid, cached_center, cached = _last_bump
    if grid is cached_grid and center == cached_center:
        return cached
    if not grid.domain.lo < center < grid.domain.hi:
        raise ValueError(
            f"delta center {center} not strictly inside "
            f"[{grid.domain.lo}, {grid.domain.hi}]"
        )
    sigma = mollification_sigma(grid, center)
    values = np.exp(-0.5 * ((grid.nodes - center) / sigma) ** 2)
    values /= grid.physical_weights @ values
    bump = GridDensity(grid, values)
    _last_bump = (grid, center, bump)
    return bump


def mollification_sigma(grid: SpectralGrid, center: float) -> float:
    """Bump width used by :func:`mollified_delta` at this location: 1.5
    times the mean of the one or two node gaps next to the node nearest
    *center*."""
    nodes = grid.nodes
    j = int(np.argmin(np.abs(nodes - center)))
    adjacent = [float(nodes[i + 1] - nodes[i]) for i in (j - 1, j) if 0 <= i < grid.order]
    return _BUMP_WIDTH * (sum(adjacent) / len(adjacent))


def advect_step(density: GridDensity, velocity: float) -> GridDensity:
    """Transport a density at constant velocity for one pseudo-time unit.

    Returns ``expm(L)`` applied to the nodal values, with the periodic
    endpoint identification folded into L and any negative ringing clipped
    to zero.  The propagator is the cached spectral one that
    :func:`assemble_prior` uses.  The result is *not* renormalized; callers
    compose masses.

    Raises
    ------
    DomainEscapeError
        If more than 1e-6 of the mass would come within two nominal node
        spacings of either boundary.
    """
    velocity = float(velocity)
    if not np.isfinite(velocity):
        raise ValueError("velocity must be finite")
    grid = density.grid
    _check_shifted_support(grid, density.values, velocity)
    shift = velocity * affine_scale(grid.domain)
    moved = _transport(grid.order, _fold(density.values)[None, :], [shift], [1.0])
    return GridDensity(grid, np.clip(_unfold(moved), 0.0, None))


def folded_generator(grid: SpectralGrid, velocity: float) -> np.ndarray:
    """Advection generator ``-v_ref D`` with the endpoints identified.

    The returned matrix acts on the folded vector (seam value first, then
    the interior nodes); the seam row is the average of the two endpoint
    rows, and the last column is folded onto the first.
    """
    n = grid.order
    gen = (-velocity * affine_scale(grid.domain)) * diff_matrix(n)
    folded = np.empty((n, n))
    folded[1:, :] = gen[1:n, :n]
    folded[1:, 0] += gen[1:n, n]
    seam = 0.5 * (gen[0, :] + gen[n, :])
    folded[0, :] = seam[:n]
    folded[0, 0] += seam[n]
    return folded


def model_output(name: str, value, shape: tuple, k: int):
    """A model function's output, checked: a float for ``shape == ()``,
    otherwise a float array broadcast to *shape* (so a model that ignores
    its input may return a scalar).

    Raises
    ------
    FilterDivergenceError
        If any value is NaN or infinite; the message names the model
        function and the step.
    """
    if shape == ():
        out = float(value)
        finite = math.isfinite(out)
    else:
        out = np.broadcast_to(np.asarray(value, dtype=float), shape)
        finite = bool(np.isfinite(out).all())
    if not finite:
        raise FilterDivergenceError(
            f"model {name} returned a non-finite value at step {k}"
        )
    return out


def make_branches(posterior, noise, model, k: int, state_points: int) -> Branches:
    """Decompose a posterior into transported branches for one prediction.

    The branches are the product of ``state_points`` equal-probability
    quantiles of *posterior* (inverted from its quadrature CDF), each of
    mass ``1 / state_points``, with the representative points of *noise*.
    Each start's drift ``model.transition(start, k, 0.0) - start`` comes
    from one transition call on the array of starts; the noise points are
    added to it, which relies on the model's additive-noise contract
    (:class:`~pdefilter.filters.ScalarStateModel`).

    Raises
    ------
    FilterDivergenceError
        If the posterior has no mass or the transition returns a non-finite
        value.
    """
    if state_points < 1:
        raise ValueError(f"state_points must be >= 1, got {state_points}")
    if np.size(noise.points) == 0:
        raise ValueError("noise quantization is empty")
    if not integrate(posterior) > _MASS_FLOOR:
        raise FilterDivergenceError(
            "filter divergence: posterior has zero total mass"
        )
    probs = (2.0 * np.arange(state_points) + 1.0) / (2.0 * state_points)
    starts = density_quantiles(posterior, probs)
    moved = model_output("transition", model.transition(starts, k, 0.0), starts.shape, k)
    return Branches(
        start_state=starts,
        start_mass=np.full(state_points, 1.0 / state_points),
        drift=moved - starts,
        noise_value=noise.points,
        noise_weight=noise.weights,
    )


def density_quantiles(density: GridDensity, probs) -> np.ndarray:
    """Invert the quadrature CDF of a density at the given probabilities.

    The interpolant is sampled on a fine uniform mesh, integrated by the
    trapezoid rule and inverted by monotone interpolation; deterministic
    and accurate to a small fraction of a node spacing.  The sampling
    kernel depends only on the grid order and is cached.
    """
    grid = density.grid
    kernel = _cdf_kernel(grid.order)
    xf = np.linspace(grid.domain.lo, grid.domain.hi, kernel.shape[0])
    pf = np.clip(kernel @ density.values, 0.0, None)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pf[1:] + pf[:-1]) * np.diff(xf))]
    )
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("cannot invert the CDF of a zero-mass density")
    return np.interp(np.asarray(probs, dtype=float), cdf / total, xf)


def prediction_domain(
    branches: Branches, order: int, process_std: float, margin_scale: float = 1.0
) -> Interval:
    """Pick the grid interval for the next prediction step.

    Covers every branch start and end with a margin of four process-noise
    standard deviations plus four estimated mollification widths, so the
    transported bumps and their tails stay clear of the boundaries.  The
    extreme ends are the extreme noise-free ends ``start + drift`` plus the
    extreme noise points.  ``margin_scale`` widens the margin when a
    previous attempt tripped the boundary check (coarse grids carry wide
    bumps with long tails).
    """
    ends = branches.start_state + branches.drift
    lo = min(branches.start_state.min(), ends.min() + branches.noise_value.min())
    hi = max(branches.start_state.max(), ends.max() + branches.noise_value.max())
    sigma_est = _BUMP_WIDTH * (hi - lo) / order
    margin = 4.0 * (process_std + sigma_est) * margin_scale
    return Interval(lo - margin, hi + margin)


def assemble_prior(branches: Branches, grid_next: SpectralGrid) -> GridDensity:
    """Sum the transported branch bumps into the prior for the next step.

    Each branch contributes a mass-weighted mollified delta placed at its
    start state and advected exactly by its velocity over unit pseudo-time,
    so it lands on its end state.  The branches of one start share its
    bump, so its occupied support range is found once per start.  Branches
    are checked against the boundary margin in order, each by two
    comparisons of its start's range shifted by its velocity; only a branch
    that fails them has its escaped mass measured, and the first whose mass
    escapes raises.  The transport factors over the product: each start's
    bump is taken to eigen-coordinates once and rotated by its mass and
    drift, the starts are summed, the sum is multiplied by the noise factor
    and transformed back once.  Negative spectral ringing is clipped once,
    on the summed prior, not per branch: ringing of neighbouring bumps
    partly cancels, and the sum is what the update step sees.
    """
    if len(branches) == 0:
        raise ValueError("no branches to assemble")
    total_mass = float(branches.start_mass.sum() * branches.noise_weight.sum())
    if abs(total_mass - 1.0) > _MASS_SUM_TOL:
        raise ValueError(f"branch masses sum to {total_mass!r}, expected 1")

    lo_bound, hi_bound = _margin_bounds(grid_next)
    noise = branches.noise_value.tolist()
    bumps = []  # nodal values of each start's bump
    for s, (start, drift) in enumerate(
        zip(branches.start_state.tolist(), branches.drift.tolist())
    ):
        for p, v in enumerate(noise):
            # one call per branch, in order: the traced bump count of the
            # benchmark pins it (ROADMAP item 1); a start's first call builds
            # its bump, the rest hit the cache
            bump = mollified_delta(grid_next, start)
            if p == 0:
                bumps.append(bump.values)
                lo, hi = _support_range(grid_next, bump.values)
            velocity = drift + v
            if not (lo + velocity >= lo_bound and hi + velocity <= hi_bound):
                label = f"branch {s * len(noise) + p}"
                _check_escaped_mass(grid_next, bump.values, velocity, (lo, hi), label)

    scale = affine_scale(grid_next.domain)
    accum = _transport(
        grid_next.order,
        _fold(np.array(bumps)),
        scale * branches.drift,
        branches.start_mass,
        scale * branches.noise_value,
        branches.noise_weight,
    )
    values = np.clip(_unfold(accum), 0.0, None)
    return normalize(GridDensity(grid_next, values))


@dataclass(frozen=True)
class _Eigensystem:
    """``F_N = V diag(lam) V^-1`` on one member of each conjugate pair.

    ``lam`` keeps every real eigenvalue and, of each conjugate pair, the
    member with positive imaginary part; ``w`` holds the matching rows of
    ``V^-1`` and ``v`` the matching columns of V, doubled for a pair, so that
    the real part of a transform back over the kept half is the whole real
    result.  ``cond`` is the 2-norm condition number of V, the factor by
    which the transform can amplify rounding.
    """

    lam: np.ndarray
    w: np.ndarray
    v: np.ndarray
    cond: float


# each kernel holds max(2001, 8 N + 1) x (N + 1) doubles, 1.6 MB at N = 99
@lru_cache(maxsize=8)
def _cdf_kernel(order: int) -> np.ndarray:
    """Interpolation rows from the nodal values of an order-*order* grid to
    the uniform CDF mesh of :func:`density_quantiles` (reference coordinates,
    so one kernel serves every domain)."""
    kernel = barycentric_matrix(order, np.linspace(-1.0, 1.0, max(2001, 8 * order + 1)))
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=32)
def _eigensystem(order: int) -> _Eigensystem:
    unit = folded_generator(SpectralGrid.build(order, Interval(-1.0, 1.0)), 1.0)
    lam, vecs = np.linalg.eig(unit)
    keep = lam.imag >= 0.0
    doubled = np.where(lam.imag[keep] > 0.0, 2.0, 1.0)
    arrays = (lam[keep], np.linalg.inv(vecs)[keep], vecs[:, keep] * doubled)
    for a in arrays:
        a.setflags(write=False)
    return _Eigensystem(*arrays, float(np.linalg.cond(vecs)))


def _transport(
    order: int, folded: np.ndarray, shifts, weights,
    noise_shifts=(0.0,), noise_weights=(1.0,),
) -> np.ndarray:
    """``sum_p sum_b noise_weights[p] weights[b] expm((shifts[b] +
    noise_shifts[p]) F_N) folded[b]``, the one propagator of this module.

    *folded* holds one folded vector per row; shifts are reference-interval
    distances (velocity times scale times pseudo-time).  The propagators
    commute, so the double sum factors: each row is taken to
    eigen-coordinates once and rotated by its weight and ``exp(shift lam)``,
    the rows are summed, and the sum is multiplied by the noise factor
    ``sum_p noise_weights[p] exp(noise_shifts[p] lam)`` (one by default)
    before the single transform back.
    """
    eig = _eigensystem(order)
    coords = np.exp(np.outer(shifts, eig.lam)) * (folded @ eig.w.T)
    noise = np.exp(np.outer(noise_shifts, eig.lam))
    z = (weights @ coords) * (noise_weights @ noise)
    return (eig.v @ z).real


def _fold(values: np.ndarray) -> np.ndarray:
    """Nodal values (last axis) to folded vectors: seam average, interior."""
    folded = values[..., :-1].copy()
    folded[..., 0] = 0.5 * (values[..., 0] + values[..., -1])
    return folded


def _unfold(folded: np.ndarray) -> np.ndarray:
    return np.concatenate([folded, folded[:1]])


def _margin_bounds(grid):
    """The interval that shifted support must stay inside: the domain less
    two nominal node spacings at each end."""
    margin = 2.0 * grid.domain.width / grid.order
    return grid.domain.lo + margin, grid.domain.hi - margin


def _support_range(grid, values):
    """Lowest and highest node whose value exceeds the support threshold,
    or ``(inf, -inf)`` when there is no mass, which no shift moves out."""
    peak = float(values.max(initial=0.0))
    if peak <= 0.0:
        return math.inf, -math.inf
    occupied = grid.nodes[values > _SUPPORT_RTOL * peak]
    return float(occupied.min()), float(occupied.max())


def _check_shifted_support(grid, values, shift, label=None):
    lo_bound, hi_bound = _margin_bounds(grid)
    support = _support_range(grid, values)
    if support[0] + shift >= lo_bound and support[1] + shift <= hi_bound:
        return
    _check_escaped_mass(grid, values, shift, support, label)


def _check_escaped_mass(grid, values, shift, support, label):
    """Raise unless at most 1e-6 of the mass of *values* shifted by *shift*
    lands outside the margin bounds; *support* is the unshifted range."""
    # the pointwise support picks up harmless spectral ringing on densities
    # that have been advected before; only raise when actual mass crosses
    lo_bound, hi_bound = _margin_bounds(grid)
    shifted = grid.nodes + shift
    outside = (shifted < lo_bound) | (shifted > hi_bound)
    escaped = float(grid.physical_weights[outside] @ values[outside])
    total = float(grid.physical_weights @ values)
    if escaped > 1e-6 * total:
        lo, hi = support[0] + shift, support[1] + shift
        who = f" for {label}" if label else ""
        raise DomainEscapeError(
            f"advected support [{lo:.4g}, {hi:.4g}]{who} crosses the "
            f"boundary margin of [{grid.domain.lo:.4g}, {grid.domain.hi:.4g}]"
            "; widen the domain selection"
        )
