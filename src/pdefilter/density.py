"""Densities on a spectral grid and the transport machinery that predicts
them forward one filter step.

A :class:`GridDensity` stores nonnegative nodal values of a probability
density (per unit of physical x) on a :class:`~pdefilter.chebyshev.SpectralGrid`.
Prediction decomposes the current posterior into weighted "branches" (one
representative start state paired with one representative process-noise
value), transports a narrow Gaussian bump along each branch's characteristic
with the exact advection propagator, and sums the transported mass into the
prior for the next step.

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
from dataclasses import dataclass, field
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

# branches transported per batched transform; bounds the working arrays
_BRANCH_CHUNK = 256

# mollified_delta's last result: (grid, center, width_factor, bump)
_last_bump = (None, None, None, None)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density values at the nodes of a spectral grid."""

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
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Branches:
    """The transported characteristics of one prediction step, as arrays.

    Entry i is one branch: it starts at a representative posterior state
    ``start_state[i]``, carries the probability mass ``mass[i]`` of its
    (state, noise) pair, and ends where the transition map sends it,
    ``end_state[i]``; ``velocity`` is the constant secant rate
    ``end_state - start_state`` over the unit pseudo-time step.  The arrays
    are validated once and stored read-only.
    """

    start_state: np.ndarray
    noise_value: np.ndarray
    mass: np.ndarray
    end_state: np.ndarray
    velocity: np.ndarray = field(init=False)

    def __post_init__(self):
        names = ("start_state", "noise_value", "mass", "end_state")
        arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("branch fields must be equal-length 1-D arrays")
        arrays.append(arrays[3] - arrays[0])
        names += ("velocity",)
        for name, a in zip(names, arrays):
            if not np.isfinite(a).all():
                raise ValueError(f"branch field {name} must be finite")
        mass = arrays[2]
        if mass.size and not (mass.min() > 0.0 and mass.max() <= 1.0):
            raise ValueError(
                f"branch masses must be in (0, 1], got range "
                f"[{mass.min()}, {mass.max()}]"
            )
        for name, a in zip(names, arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.mass.size


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


def mollified_delta(
    grid: SpectralGrid, center: float, width_factor: float = 1.5
) -> GridDensity:
    """A unit-mass Gaussian bump standing in for a point mass at *center*.

    The standard deviation is ``width_factor`` times the mean node spacing
    adjacent to *center*, so the bump stays resolvable wherever it is placed.

    The last bump built is cached: a call on the same grid object with an
    equal *center* and *width_factor* returns that same bump without
    rebuilding it, so :func:`assemble_prior`'s one call per branch builds
    one bump per start group.  The returned bump may therefore be shared;
    like every :class:`GridDensity` it is read-only.  The traced
    ``density.mollified_delta.calls`` counts calls, not builds.
    """
    global _last_bump
    center = float(center)
    # read the entry once and replace it whole, so a concurrent caller never
    # sees a torn entry; a lost replacement only costs a rebuild
    cached_grid, cached_center, cached_width, cached = _last_bump
    if grid is cached_grid and center == cached_center and width_factor == cached_width:
        return cached
    if not grid.domain.lo < center < grid.domain.hi:
        raise ValueError(
            f"delta center {center} not strictly inside "
            f"[{grid.domain.lo}, {grid.domain.hi}]"
        )
    if not width_factor > 0.0:
        raise ValueError(f"width_factor must be positive, got {width_factor}")
    sigma = mollification_sigma(grid, center, width_factor)
    values = np.exp(-0.5 * ((grid.nodes - center) / sigma) ** 2)
    values /= grid.physical_weights @ values
    bump = GridDensity(grid, values)
    _last_bump = (grid, center, width_factor, bump)
    return bump


def mollification_sigma(grid: SpectralGrid, center: float, width_factor: float) -> float:
    """Bump width used by :func:`mollified_delta` at this location: the mean
    of the one or two node gaps next to the node nearest *center*."""
    nodes = grid.nodes
    j = int(np.argmin(np.abs(nodes - center)))
    adjacent = [float(nodes[i + 1] - nodes[i]) for i in (j - 1, j) if 0 <= i < grid.order]
    return width_factor * (sum(adjacent) / len(adjacent))


def advect_step(
    density: GridDensity,
    velocity: float,
    dt: float = 1.0,
    label: str | None = None,
) -> GridDensity:
    """Transport a density at constant velocity for *dt* pseudo-time units.

    Returns ``expm(dt L)`` applied to the nodal values, with the periodic
    endpoint identification folded into L and any negative ringing clipped
    to zero.  The propagator is the cached spectral one that
    :func:`assemble_prior` uses.  The result is *not* renormalized; callers
    compose masses.

    Raises
    ------
    DomainEscapeError
        If the shifted support would come within two nominal node spacings
        of either boundary; *label* (e.g. a branch name) is included so the
        caller can widen its domain selection.
    """
    velocity = float(velocity)
    if not np.isfinite(velocity):
        raise ValueError("velocity must be finite")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = density.grid
    _check_shifted_support(grid, density.values, velocity * dt, label)
    moved = _transport(
        grid.order,
        _fold(density.values)[None, :],
        np.zeros(1, dtype=int),
        np.array([velocity * dt * affine_scale(grid.domain)]),
        np.ones(1),
    )
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


def make_branches(posterior, noise, model, k: int, state_points: int) -> Branches:
    """Decompose a posterior into transported branches for one prediction.

    Takes the Cartesian product of ``state_points`` equal-probability
    quantiles of *posterior* (inverted from its quadrature CDF) with the
    representative points of *noise*, start-major; each branch carries mass
    ``noise_weight / state_points``, ends at ``model.transition(start, k,
    noise_value)`` and moves at the secant velocity ``end - start``.  The
    transition is called once, on the broadcast (starts x noise points)
    pair of arrays.

    Raises
    ------
    FilterDivergenceError
        If the posterior has no mass or the transition returns a non-finite
        value.
    """
    # filters imports this module, so its model-output check is imported
    # at call time
    from .filters import model_output

    if state_points < 1:
        raise ValueError(f"state_points must be >= 1, got {state_points}")
    points = np.asarray(noise.points, dtype=float)
    weights = np.asarray(noise.weights, dtype=float)
    if points.size == 0:
        raise ValueError("noise quantization is empty")
    if not integrate(posterior) > _MASS_FLOOR:
        raise FilterDivergenceError(
            "filter divergence: posterior has zero total mass"
        )
    probs = (2.0 * np.arange(state_points) + 1.0) / (2.0 * state_points)
    starts = density_quantiles(posterior, probs)
    shape = (starts.size, points.size)
    ends = model_output(
        "transition", model.transition(starts[:, None], k, points[None, :]), shape, k
    )
    return Branches(
        start_state=np.repeat(starts, points.size),
        noise_value=np.tile(points, starts.size),
        mass=np.tile(weights / state_points, starts.size),
        end_state=ends.ravel(),
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
    branches: Branches,
    order: int,
    width_factor: float,
    process_std: float,
    margin_scale: float = 1.0,
) -> Interval:
    """Pick the grid interval for the next prediction step.

    Covers every branch start and end with a margin of four process-noise
    standard deviations plus four estimated mollification widths, so the
    transported bumps and their tails stay clear of the boundaries.
    ``margin_scale`` widens the margin when a previous attempt tripped the
    boundary check (coarse grids carry wide bumps with long tails).
    """
    lo = min(branches.start_state.min(), branches.end_state.min())
    hi = max(branches.start_state.max(), branches.end_state.max())
    sigma_est = width_factor * (hi - lo) / order
    margin = 4.0 * (process_std + sigma_est) * margin_scale
    return Interval(lo - margin, hi + margin)


def assemble_prior(
    branches: Branches,
    grid_next: SpectralGrid,
    width_factor: float = 1.5,
) -> GridDensity:
    """Sum the transported branch bumps into the prior for the next step.

    Each branch contributes a mass-weighted mollified delta placed at its
    start state and advected exactly by its velocity over unit pseudo-time,
    so it lands on its end state.  Consecutive branches with equal start
    states form a start group and share one bump, so its occupied support
    range is found once per group.  Branches are checked against the
    boundary margin in order, each by two comparisons of its group's range
    shifted by its velocity; only a branch that fails them has its escaped
    mass measured, and the first whose mass escapes raises.  The transport
    is one batched spectral transform per chunk of branches, which takes
    each group's bump to eigen-coordinates once and rotates them per
    branch.  Negative spectral ringing is clipped once, on the summed
    prior, not per branch: ringing of neighbouring bumps partly cancels,
    and the sum is what the update step sees.
    """
    if len(branches) == 0:
        raise ValueError("no branches to assemble")
    total_mass = float(branches.mass.sum())
    if abs(total_mass - 1.0) > _MASS_SUM_TOL:
        raise ValueError(f"branch masses sum to {total_mass!r}, expected 1")

    starts = branches.start_state
    opens_group = np.concatenate([[True], starts[1:] != starts[:-1]])
    group = np.cumsum(opens_group) - 1
    lo_bound, hi_bound = _margin_bounds(grid_next)
    bumps = []  # nodal values of each group's bump
    for i, (start, velocity, opens) in enumerate(
        zip(starts.tolist(), branches.velocity.tolist(), opens_group.tolist())
    ):
        # one call per branch, in order: the traced
        # density.mollified_delta.calls counts calls, not builds, and
        # perfbench/test_smoke.py pins one per branch (ROADMAP item 1); only
        # a group's first call builds its bump, the rest hit the cache
        bump = mollified_delta(grid_next, start, width_factor)
        if opens:
            bumps.append(bump.values)
            lo, hi = _support_range(grid_next, bump.values)
        if not (lo + velocity >= lo_bound and hi + velocity <= hi_bound):
            _check_escaped_mass(
                grid_next, bumps[-1], velocity, (lo, hi), f"branch {i}"
            )

    folded = _fold(np.array(bumps))
    scale = affine_scale(grid_next.domain)
    accum = np.zeros(grid_next.order)
    for first in range(0, len(branches), _BRANCH_CHUNK):
        chunk = slice(first, first + _BRANCH_CHUNK)
        rows = group[chunk]
        accum += _transport(
            grid_next.order,
            folded[rows[0] : rows[-1] + 1],
            rows - rows[0],
            scale * branches.velocity[chunk],
            branches.mass[chunk],
        )
    values = np.clip(_unfold(accum), 0.0, None)
    return normalize(GridDensity(grid_next, values))


@dataclass(frozen=True)
class _Eigensystem:
    """``F_N = V diag(lam) V^-1`` in real arithmetic.

    Of each conjugate pair only the member with positive imaginary part is
    kept, together with every real eigenvalue: ``lam = alpha + i omega``,
    the matching rows of ``V^-1`` are ``w_re + i w_im`` and the columns of
    V are ``v_re + i v_im``, doubled for a pair so that the real part of the
    kept half is the whole real result.  ``cond`` is the 2-norm condition
    number of V, the factor by which the transform can amplify rounding.
    """

    alpha: np.ndarray
    omega: np.ndarray
    w_re: np.ndarray
    w_im: np.ndarray
    v_re: np.ndarray
    v_im: np.ndarray
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
    inv = np.linalg.inv(vecs)
    keep = lam.imag >= 0.0
    doubled = np.where(lam.imag[keep] > 0.0, 2.0, 1.0)
    arrays = (
        lam.real[keep],
        lam.imag[keep],
        inv.real[keep],
        inv.imag[keep],
        vecs.real[:, keep] * doubled,
        vecs.imag[:, keep] * doubled,
    )
    for a in arrays:
        a.setflags(write=False)
    return _Eigensystem(*arrays, float(np.linalg.cond(vecs)))


def _transport(order: int, folded: np.ndarray, rows, shifts, weights) -> np.ndarray:
    """``sum_b weights[b] expm(shifts[b] F_N) folded[rows[b]]`` for a batch.

    *folded* holds one folded vector per row, and ``rows[b]`` picks branch
    b's; *shifts* are reference-interval distances (velocity times scale
    times pseudo-time).  Each row of *folded* is taken to eigen-coordinates
    once, each branch rotates its row's coordinates by its own
    ``exp(shift lam)`` and weight, and the branches are summed before the
    single transform back.
    """
    eig = _eigensystem(order)
    c_re = (folded @ eig.w_re.T)[rows]
    c_im = (folded @ eig.w_im.T)[rows]
    gain = weights[:, None] * np.exp(np.outer(shifts, eig.alpha))
    phase = np.outer(shifts, eig.omega)
    cos = gain * np.cos(phase)
    sin = gain * np.sin(phase)
    z_re = (c_re * cos - c_im * sin).sum(axis=0)
    z_im = (c_re * sin + c_im * cos).sum(axis=0)
    return eig.v_re @ z_re - eig.v_im @ z_im


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


def _check_shifted_support(grid, values, shift, label):
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
