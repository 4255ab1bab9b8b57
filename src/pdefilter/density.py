"""Densities on a spectral grid and the transport machinery that predicts
them forward one filter step.

A :class:`GridDensity` stores nonnegative nodal values of a probability
density (per unit of physical x) on a :class:`~pdefilter.chebyshev.SpectralGrid`.
Prediction decomposes the current posterior into equally weighted
"branches", the product of S equal-probability start states with P
equal-probability points of the quantized process noise, transports a
narrow Gaussian bump along each branch's characteristic with the exact
advection propagator, and sums the transported mass, ``1 / (S P)`` per
branch, into the prior for the next step.  The noise is additive,
``x_k = f(x, k) + v``, and the propagators commute, so the branch sum
factors exactly into one rotation per start by its drift ``f(x) - x``,
averaged, times one noise factor ``(1 / P) sum_p exp(v_p F)``.  The noise
keeps the paper's quantized points, not the exact Gaussian factor.

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
reference velocity and ``F_N = folded_generator(N)``, the folded generator
at unit velocity on [-1, 1], depends only on the grid order.  One
eigendecomposition ``F_N = V diag(lam) V^-1`` per order is cached, and
every transport is ``V diag(exp(t lam)) V^-1`` applied to the folded values
with ``t = v s dt``; no matrix exponential is formed.  The spectrum is
imaginary to rounding (``max |Re lam| / max |lam|`` below 1e-14 for every
order from 3 to 400), so ``exp(t lam)`` is taken as the rotation by
``a = t Im lam``, and both transforms are real matrix products.  Each
rotation comes from one tangent of the half angle,
``exp(i a) = (1 + i u)^2 / (1 + u^2)`` with ``u = tan(a / 2)``: with
numpy 2.4 on an AVX-512 host, float64 ``tan`` ran about ten times faster
than ``cos`` or ``sin`` (README, Numerical notes), and the form is well
conditioned at every angle (a relative error e in ``u`` turns the rotation
by at most e radians).
Eigenvector exponentials are unsafe for badly conditioned V (Moler & Van
Loan, SIAM Rev. 2003), but here ``cond(V)`` stays below 100 for every order
up to 400.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import (
    Interval, SpectralGrid, affine_scale, barycentric_matrix, checked_count, checked_real,
    diff_matrix,
)
from .errors import DomainEscapeError, FilterDivergenceError

# unused here, but perfbench/tracer.py rebinds it on this module for traced runs
from .chebyshev import barycentric_interp  # noqa: F401

# total mass at or below this threshold is treated as filter divergence
_MASS_FLOOR = 1e-300

# standard deviation of a mollified delta, in mean node gaps next to its center
_BUMP_WIDTH = 1.5

# bump widths that a start's bump keeps inside the margin bounds after its
# extreme shifts, so that assemble_prior's escape check, which lets 1e-6 of
# a bump's mass cross, does not trip.  The check sums the nodal tail past
# the bound by quadrature, and its first node carries a whole node gap of
# weight, so the Gaussian tail beyond C sigma (5.7e-7 for both tails at 5)
# is not the bound: with the bump's center exactly C widths inside one bound
# and at least C inside the other, the largest escaped share found over
# every order from 28 to 150 that admits a margin and 1601 start positions
# on [-0.97, 0.97] of the reference grid was 3.0e-6 at C = 5, 8.1e-7 at 5.2
# and 6.3e-7 at 5.25.  Each further width costs resolution on coarse grids.
_CLEARANCE = 5.25

# rounds of prediction_domain's per-start margin solve before it falls back
# to the widest bump's closed form
_DOMAIN_ROUNDS = 4

# GridDensity stores as 0.0 every value below max(_TINY, peak * _FLUSH).
# _TINY is the smallest normal double.  The smallest nonzero factors that
# multiply nodal values are no smaller than 2^-62: entries of _eigensystem(order).w
# reach 3.8e-19 at orders 47, 99 and 149, against 1.7e-6 for _cdf_kernel's
# and 4.5e-5 for the reference quadrature weights.  A kept value times such
# a factor is at least peak * 2^-(900 + 62), which is normal (2^-1022 or
# more) for any peak of 2^-60 (8.7e-19) or more, and every normalized
# density on a domain narrower than 1e18 peaks higher.  A flushed value is
# 2^-900 of the peak, far below the 2^-53 rounding of any sum that holds
# the peak, so no answer moves.
_TINY = float(np.finfo(float).tiny)
_FLUSH = 2.0 ** -900

# mollified_delta's last result: (grid, center, bump)
_last_bump = (None, None, None)


def _extremes(a: np.ndarray):
    """The smallest and largest entry of a nonempty float array, as Python
    floats, or the first NaN.

    Picked by index: on arrays of 100 to 150 entries numpy's ``argmin`` and
    ``argmax`` cost about a third of ``min`` and ``max``, and ``item``
    returns a Python float without a numpy scalar in between.  Both return
    the index of the first NaN, so a NaN still reaches the caller."""
    return a.item(a.argmin()), a.item(a.argmax())


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density values at the nodes of a spectral grid.

    Values below ``2^-900`` of the largest, or below the smallest normal
    double (``np.finfo(float).tiny``, about 2.2e-308), are stored as 0.0.
    A value a few decades above ``tiny`` is normal, but its products with
    the small entries of the CDF kernel and the eigen-coordinate transform
    are subnormal, and subnormal arithmetic runs down a slow path of the
    floating-point unit: on 8 of 150 steps of three growth-table1
    trajectories the posterior's smallest nonzero value was 2.5e-307 to
    6.9e-306, and ``density_quantiles``' kernel product took 37 to 93 us,
    against 9 to 16 us with that tail stored as 0.0.  The floor is
    relative, so it never zeroes the peak and removes no mass that a
    quadrature can see.
    """

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal values, got shape {v.shape}"
            )
        # a NaN is picked as both extremes, so the two decide finiteness
        # (checked before the sign) and whether anything is below the floor
        lo, hi = _extremes(v)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("density values must be finite")
        if lo < 0.0:
            raise ValueError("density values must be nonnegative")
        floor = max(_TINY, hi * _FLUSH)
        if lo < floor:
            v[v < floor] = 0.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Branches:
    """The transported characteristics of one prediction step: the product
    of S start states with P process-noise points, as arrays.

    Start s sits at ``start_state[s]`` and is moved by the noise-free
    transition by ``drift[s]``; noise point p has value ``noise_value[p]``.
    Branch ``i = s * P + p`` pairs the two and moves at the constant
    velocity ``drift[s] + noise_value[p]`` over the unit pseudo-time step,
    which under additive noise lands it on ``transition(start, k, noise)``.
    Both point sets are equal-probability quantiles, so every branch
    carries mass ``1 / (S P)``.  ``len()`` is the branch count S * P.  The
    arrays are validated once (nonempty, finite, 1-D, ``start_state`` and
    ``drift`` of equal length) and stored read-only.
    """

    start_state: np.ndarray
    drift: np.ndarray
    noise_value: np.ndarray

    def __post_init__(self):
        names = ("start_state", "drift", "noise_value")
        arrays = [np.array(getattr(self, name), dtype=float) for name in names]
        starts, drift, noise = arrays
        if starts.ndim != 1 or drift.shape != starts.shape or noise.ndim != 1:
            raise ValueError(
                "branch fields must be 1-D arrays, start_state and drift of equal length"
            )
        # the two extremes of each field decide finiteness (a NaN is picked
        # as both) and the velocity range
        extremes = []
        for name, a in zip(names, arrays):
            if not a.size:
                raise ValueError(f"branch field {name} must not be empty")
            lo, hi = _extremes(a)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"branch field {name} must be finite")
            extremes.append((lo, hi))
        velocity = [d + n for d, n in zip(extremes[1], extremes[2])]
        if not all(map(math.isfinite, velocity)):
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


def mollified_delta(grid: SpectralGrid, center: float) -> GridDensity:
    """A unit-mass Gaussian bump standing in for a point mass at *center*.

    The standard deviation is 1.5 times the mean node spacing adjacent to
    *center*, so the bump stays resolvable wherever it is placed.

    The last bump built is cached with its center widened to a Python
    float: a call with the same grid object and that same float object
    returns the cached bump, so :func:`assemble_prior`, which passes each
    start's float to all of that start's calls, builds one bump per start.
    Any other center, equal or not, builds its bump afresh, bit-equal to
    the cached one when equal.  The returned bump may therefore be shared;
    like every :class:`GridDensity` it is read-only.  The traced
    ``density.mollified_delta.calls`` counts calls, not builds.
    """
    global _last_bump
    # read the entry once and replace it whole, so a concurrent caller never
    # sees a torn entry; a lost replacement only costs a rebuild
    cached_grid, cached_center, cached = _last_bump
    if grid is cached_grid and center is cached_center:
        return cached
    # the width checks the center first, so a NaN is refused, never cached
    center = checked_real("center", center)
    bump = _gaussian(grid, center, mollification_sigma(grid, center))
    _last_bump = (grid, center, bump)
    return bump


def _gaussian(grid: SpectralGrid, center: float, sigma: float) -> GridDensity:
    """The Gaussian of mean *center* and standard deviation *sigma* at the
    grid's nodes, divided by its quadrature: :func:`mollified_delta`'s bump
    and the density filter's initial density.

    ``exp(-0.5 ((x - center) / sigma)^2)`` is built in one array and
    divided by its quadrature in place of :func:`normalize`: the nodes
    next to the center carry values near 1, so the mass is never near
    that function's divergence floor."""
    values = grid.nodes - center
    values /= sigma
    values *= values
    values *= -0.5
    np.exp(values, out=values)
    values /= grid.physical_weights @ values
    return GridDensity(grid, values)


def mollification_sigma(grid: SpectralGrid, center: float) -> float:
    """Bump width used by :func:`mollified_delta` at this location: 1.5
    times the mean of the one or two node gaps next to the node nearest
    *center*, the lower of two at an exact tie.

    For a center in the grid's domain the nearest node is one of the two
    around its insertion point: any node further out is a whole node gap
    further away, far more than the rounding of a distance, so the pick
    equals ``np.argmin(np.abs(nodes - center))``.

    Raises
    ------
    ValueError
        If *center* is not a real number (:func:`~pdefilter.chebyshev.checked_real`)
        or not strictly inside the grid's domain (NaN included).
    """
    center = checked_real("center", center)
    if not grid.domain.lo < center < grid.domain.hi:
        raise ValueError(
            f"delta center {center} not strictly inside "
            f"[{grid.domain.lo}, {grid.domain.hi}]"
        )
    # Python floats round as numpy's float64 scalars do, and bisect_left
    # is searchsorted's left insertion point
    nodes = grid.node_list
    order = grid.order
    i = min(max(bisect_left(nodes, center), 1), order)
    j = i - 1 if abs(center - nodes[i - 1]) <= abs(nodes[i] - center) else i
    lo, hi = max(j - 1, 0), min(j + 1, order)
    # at an end node one of the two gaps is 0.0, and there is one gap to average
    gaps = (nodes[j] - nodes[lo]) + (nodes[hi] - nodes[j])
    return _BUMP_WIDTH * (gaps / (hi - lo))


def folded_generator(order: int) -> np.ndarray:
    """``F_N``: the advection generator ``-D`` at unit velocity on [-1, 1]
    of an order-*order* grid, with the endpoints identified.

    The returned matrix acts on the folded vector (seam value first, then
    the interior nodes); the seam row is the average of the two endpoint
    rows, and the last column is folded onto the first.  Transport at
    reference velocity ``v`` over pseudo-time ``t`` is ``expm(v t F_N)``.
    """
    gen = -diff_matrix(order)
    n = order
    folded = np.empty((n, n))
    folded[1:, :] = gen[1:n, :n]
    folded[1:, 0] += gen[1:n, n]
    seam = 0.5 * (gen[0, :] + gen[n, :])
    folded[0, :] = seam[:n]
    folded[0, 0] += seam[n]
    return folded


def model_output(name: str, value, shape: tuple, k: int):
    """A model function's output, checked: a float for ``shape == ()``,
    otherwise a float array of *shape*.

    Each call takes a real number (:func:`~pdefilter.chebyshev.checked_real`:
    a Python or numpy integer or float, not a bool) or an ``np.ndarray``
    whose dtype is an integer's or a float's, of 0 dimensions for a scalar
    call (``shape == ()``), which returns a Python float.  For an array
    call, an output that is exactly a float64 ``np.ndarray`` of *shape* is
    returned as it is, not copied; no filter writes to it, so a model may
    return a read-only array or one it keeps.  Any other output (another
    dtype, a number, a size-1 array, an ndarray subclass) is converted to
    float and broadcast to *shape*, so a model that ignores its input may
    return a number.  Everything else is refused: a bool, a string, a
    complex number, an array of bools, strings, complex numbers or objects,
    and a list or tuple, whose items ``np.asarray`` would convert without a
    look (``[1.0, True]`` to ``[1.0, 1.0]``).
    Finiteness is read from the two extremes (:func:`_extremes`), which are
    a NaN if there is one.

    Raises
    ------
    ValueError
        If the output is none of these, or an array call's output does not
        broadcast to *shape*; the message names the model function, the
        step and the output's type and shape, then the expected shape for
        an integer or float array, or for anything else the reason of
        :func:`~pdefilter.chebyshev.checked_real` (a number beyond the float
        range, or not a real number).
    FilterDivergenceError
        If any value is NaN or infinite; the message names the model
        function and the step.
    """
    try:
        if shape == ():
            out = value if type(value) is float else float(_numeric(value, scalar=True))
            finite = math.isfinite(out)
        else:
            if type(value) is np.ndarray and value.dtype == np.float64 and value.shape == shape:
                out = value
            else:
                out = np.broadcast_to(np.asarray(_numeric(value), dtype=float), shape)
            lo, hi = _extremes(out)
            finite = -math.inf < lo and hi < math.inf
    except ValueError as err:
        got = f"{type(value).__name__} of shape {np.asarray(value, dtype=object).shape}"
        # an integer or float array is refused for its shape alone; anything
        # else for checked_real's reason, cut short after 200 characters
        # (its repr of a list of 10^4 floats ran to 50 KB)
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
            reason = f", expected shape {shape}"
        else:
            text = str(err)
            reason = f": {text}" if len(text) <= 200 else f": {text[:200]} ..."
        raise ValueError(f"model {name} returned {got} at step {k}{reason}") from None
    if not finite:
        raise FilterDivergenceError(
            f"model {name} returned a non-finite value at step {k}"
        )
    return out


def _numeric(value, scalar: bool = False):
    """*value* as it is if it is an ndarray whose dtype kind is ``i``, ``u``
    or ``f``, of 0 dimensions if *scalar*, else as a Python float
    (:func:`~pdefilter.chebyshev.checked_real`, which refuses any array)."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf" and not (scalar and value.ndim):
        return value
    return checked_real("output", value)


def make_branches(posterior, noise, model, k: int, state_points: int) -> Branches:
    """Decompose a posterior into transported branches for one prediction.

    The branches are the product of the ``state_points`` midpoint quantiles
    ``(2i + 1) / (2 state_points)`` of *posterior* (inverted from its
    quadrature CDF) with *noise*, the process-noise points of
    :func:`~pdefilter.filters.gaussian_quantile_points`; both are
    equal-probability point sets, so every branch has the same mass.
    Each start's drift ``model.transition(start, k, 0.0) - start`` comes
    from one transition call on the array of starts; the noise points are
    added to it, which relies on the model's additive-noise contract
    (:class:`~pdefilter.filters.ScalarStateModel`).

    Raises
    ------
    FilterDivergenceError
        If the posterior has no mass or the transition returns a non-finite
        value.
    ValueError
        If *noise* is empty, not 1-D or not finite (from :class:`Branches`).
    """
    state_points = checked_count("state_points", state_points, 1)
    if not integrate(posterior) > _MASS_FLOOR:
        raise FilterDivergenceError(
            "filter divergence: posterior has zero total mass"
        )
    probs = (2.0 * np.arange(state_points) + 1.0) / (2.0 * state_points)
    starts = density_quantiles(posterior, probs)
    moved = model_output("transition", model.transition(starts, k, 0.0), starts.shape, k)
    return Branches(start_state=starts, drift=moved - starts, noise_value=noise)


def density_quantiles(density: GridDensity, probs) -> np.ndarray:
    """Invert the quadrature CDF of a density at the given probabilities.

    The interpolant is sampled on the uniform mesh of ``8 N + 1`` points of
    an order-N grid, integrated by the trapezoid rule and inverted by
    monotone interpolation; deterministic and accurate to a small fraction
    of a node spacing.  The sampling kernel and the mesh, as fractions of
    the domain in [0, 1], depend only on the grid order and are cached
    (:func:`_cdf_kernel`).  The mesh spacing is uniform, so it cancels from
    the normalized CDF and is never multiplied in.  A probability that is
    NaN or outside [0, 1] raises ``ValueError``.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.size:
        lo, hi = _extremes(probs)
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError(f"probabilities must lie in [0, 1], got {lo!r} to {hi!r}")
    grid = density.grid
    kernel, mesh = _cdf_kernel(grid.order)
    pf = kernel @ density.values
    np.maximum(pf, 0.0, out=pf)
    # twice the trapezoid areas over the spacing, summed from the left edge
    cdf = np.zeros(pf.size)
    np.cumsum(pf[1:] + pf[:-1], out=cdf[1:])
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("cannot invert the CDF of a zero-mass density")
    fraction = np.interp(probs * total, cdf, mesh)
    return grid.domain.lo + grid.domain.width * fraction


def prediction_domain(branches: Branches, order: int, process_std: float) -> Interval:
    """Pick the grid interval for the next prediction step: one that every
    start's bump clears.

    The interval covers every branch start and end, ``[lo, hi]``; the
    extreme ends are the extreme noise-free ends ``start + drift`` plus the
    extreme noise points.  Its margin on each side starts at four
    process-noise standard deviations plus four estimated mollification
    widths, ``m0 = 4 (process_std + 1.5 span / order)``, and is only ever
    widened, until each start's bump, after its lowest and its highest
    shift, stays 5.25 of its widths inside the margin bounds (two nominal
    node spacings in from each end), with the width that
    :func:`mollification_sigma` gives it on the returned grid.

    A bump's width is a fixed fraction ``rho`` of the domain width W, read
    from the reference grid at the start's reference position, so a start
    whose extreme end reaches ``e <= 0`` past ``lo`` or ``hi`` clears exactly
    when ``m >= (e + k span) / (1 - 2 k)`` with ``k = 2 / order + 5.25 rho``.
    When the widest bump of the order, ``rho_max``, clears from the very
    end at ``m0`` (``k_max`` of :func:`_reference_clearance`), ``m0`` is
    returned as it is.  Otherwise the margin is solved per start,
    re-reading each ``rho`` at the widened width, for up to four rounds;
    failing that, ``rho_max``'s closed form, which every start clears, is
    taken.

    Raises
    ------
    ValueError
        From :func:`checked_grid_nodes`, if no margin can hold the widest
        bump of the order: an order of 28 or less (``grid_nodes`` 29 or
        less) whatever the model.
    """
    ref, k_max = _reference_clearance(order)
    if k_max is None:
        checked_grid_nodes(order + 1)  # raises: the order is not served
    start_lo, start_hi = _extremes(branches.start_state)
    ends = branches.start_state + branches.drift
    end_lo, end_hi = _extremes(ends)
    noise_lo, noise_hi = _extremes(branches.noise_value)
    lo = min(start_lo, end_lo + noise_lo)
    hi = max(start_hi, end_hi + noise_hi)
    span = hi - lo
    margin = 4.0 * (process_std + _BUMP_WIDTH * span / order)
    if margin >= k_max * (span + 2.0 * margin):
        return Interval(lo - margin, hi + margin)
    # how far each start's lowest or highest end reaches past lo or hi: at
    # most 0, since [lo, hi] covers every end
    excess = [max(lo - (e + noise_lo), (e + noise_hi) - hi) for e in ends.tolist()]
    starts = branches.start_state.tolist()
    middle = lo + hi
    for _ in range(_DOMAIN_ROUNDS):
        width = span + 2.0 * margin
        needed = margin
        for start, e in zip(starts, excess):
            rho = 0.5 * mollification_sigma(ref, (2.0 * start - middle) / width)
            k = 2.0 / order + _CLEARANCE * rho
            needed = max(needed, (e + k * span) / (1.0 - 2.0 * k))
        if needed == margin:
            return Interval(lo - margin, hi + margin)
        margin = needed
    margin = max(margin, (max(excess) + k_max * span) / (1.0 - 2.0 * k_max))
    return Interval(lo - margin, hi + margin)


def checked_grid_nodes(value) -> int:
    """*value* as a grid node count that :func:`prediction_domain` can
    serve, a Python int: some margin holds the widest bump of the order
    ``value - 1`` (:func:`_reference_clearance`).  This is the one place a
    grid is refused; :class:`~pdefilter.filters.PdefConfig` and
    :func:`prediction_domain` both call it.

    Raises
    ------
    ValueError
        Naming ``grid_nodes``, if *value* is not an integer of at least 1
        (:func:`~pdefilter.chebyshev.checked_count`) or no margin holds the
        widest bump of its order, which is every count of 29 or less.  The
        message gives the fewest nodes that are served: the first count
        from *value* up that is, since coarser orders have wider bumps.
    """
    count = checked_count("grid_nodes", value, 1)
    # k_max is None or positive
    fewest = next(n for n in itertools.count(max(count, 2)) if _reference_clearance(n - 1)[1])
    if fewest > count:
        raise ValueError(
            f"grid_nodes must be >= {fewest}, got {count}: no domain keeps the bumps "
            "of a coarser grid inside its boundary margin"
        )
    return count


# typed, as diff_matrix is: an order-47 entry never answers order 47.0
@lru_cache(maxsize=32, typed=True)
def _reference_clearance(order: int) -> tuple[SpectralGrid, float | None]:
    """The order-*order* grid on [-1, 1] and ``k_max = 2 / order + 5.25
    rho_max``: the margin bounds' distance from the domain's ends plus the
    clearance of the order's widest bump, per unit domain width
    (:func:`prediction_domain`); ``k_max`` is None when no margin holds that
    bump, ``1 - 2 k_max <= 0``.

    ``rho_max`` is the widest bump width per unit domain width on any
    order-*order* grid.  A bump's width is 1.5 mean node gaps, and the
    physical gaps are the reference gaps times half the domain width, so the
    width of a bump at reference position ``xi`` is ``W
    mollification_sigma(ref, xi) / 2``.  The widest is at a node near the
    middle, where the gaps are widest; an order-1 grid has no interior node,
    and its one width is read at 0.
    """
    ref = SpectralGrid.build(order, Interval(-1.0, 1.0))
    centers = ref.node_list[1:-1] or [0.0]
    rho_max = 0.5 * max(mollification_sigma(ref, x) for x in centers)
    k_max = 2.0 / order + _CLEARANCE * rho_max
    return ref, (k_max if 1.0 - 2.0 * k_max > 0.0 else None)


def assemble_prior(branches: Branches, grid_next: SpectralGrid) -> GridDensity:
    """Sum the transported branch bumps into the prior for the next step.

    Each branch contributes its equal share of mass, ``1 / len(branches)``,
    as a mollified delta placed at its start state and advected exactly by
    its velocity over unit pseudo-time, so it lands on its end state.  The
    branches of one start share its bump: ``mollified_delta`` is called
    once per branch, in order, but only a start's first call builds, and
    the other calls only keep the benchmark's traced per-branch count
    (README, Numerical notes).  Before any transport the start bumps pass
    :func:`_check_escape`, which raises when more than 1e-6 of a branch's
    mass would cross the boundary margin.  The transport factors over the
    product: each start's bump is taken to eigen-coordinates once and
    rotated by its drift, the starts are averaged, the average is
    multiplied by the noise factor and transformed back once.  Negative
    spectral ringing is clipped once, on the summed prior, not per branch:
    ringing of neighbouring bumps partly cancels, and the sum is what the
    update step sees.
    """
    repeats = range(branches.noise_value.size)
    bumps = []  # nodal values of each start's bump
    for start in branches.start_state.tolist():
        # one mollified_delta call per branch, in order: the traced bump
        # count of the benchmark pins it (ROADMAP item 1); a start's first
        # call builds its bump, the rest hit the cache
        for _ in repeats:
            bump = mollified_delta(grid_next, start)
        bumps.append(bump.values)
    bumps = np.array(bumps)
    _check_escape(grid_next, bumps, branches)
    scale = affine_scale(grid_next.domain)
    moved = _transport(
        grid_next.order, bumps, scale * branches.drift, scale * branches.noise_value
    )
    return normalize(GridDensity(grid_next, np.maximum(moved, 0.0)))


def _check_escape(grid, bumps: np.ndarray, branches: Branches) -> None:
    """Raise unless every branch keeps all but at most 1e-6 of its bump's
    mass inside the margin bounds after its shift: the domain less two
    nominal node spacings at each end.

    *bumps* holds each start's bump, one row of nodal values per start, and
    a branch's shift is its velocity.  All starts are screened at once by
    :func:`_escaped_mass` at their lowest shift, drift plus the lowest noise
    point, below the low bound and at their highest shift above the high
    bound.  A start that passes has no escaping branch: rounding is
    monotone, so the nodes a branch moves past a bound are among those its
    start's extreme shift moves past it, and a row sum of nonnegative terms
    in a fixed order does not fall when terms grow from 0 to their mass.
    Only the branches of a failing start are measured, each at its own
    shift and by the same row sum, and the first of them, start-major,
    that carries more than 1e-6 of the bump's mass across raises.

    Raises
    ------
    DomainEscapeError
        Naming the branch, ``s * P + p``, and its escaped share of the mass.
    """
    mass = bumps * grid.physical_weights
    total = mass.sum(axis=1)
    limit = 1e-6 * total
    drift = branches.drift[:, None]
    noise = branches.noise_value
    noise_lo, noise_hi = _extremes(noise)
    screen = _escaped_mass(grid, mass, drift + noise_lo, drift + noise_hi)
    for s in (screen > limit).nonzero()[0].tolist():
        shifts = (drift[s] + noise)[:, None]
        escaped = _escaped_mass(grid, mass[s], shifts, shifts)
        over = (escaped > limit[s]).nonzero()[0]
        if over.size:
            p = over.item(0)
            raise DomainEscapeError(
                f"{escaped.item(p) / total.item(s):.3e} of the advected mass for branch "
                f"{s * noise.size + p} crosses the boundary margin of [{grid.domain.lo:.4g}, "
                f"{grid.domain.hi:.4g}]; widen the domain selection"
            )


def _escaped_mass(grid, mass: np.ndarray, lo_shift, hi_shift) -> np.ndarray:
    """Per row of *mass*, nodal masses (values times quadrature weights),
    the mass on the nodes that *lo_shift* moves below the low margin bound
    or *hi_shift* moves above the high one, summed over the whole row in
    node order with zeros elsewhere.  The margin bounds are the domain less
    two nominal node spacings at each end.  The shifts are columns, one row
    each; a 1-D *mass* serves every row."""
    margin = 2.0 * grid.domain.width / grid.order
    lo_bound, hi_bound = grid.domain.lo + margin, grid.domain.hi - margin
    outside = (grid.nodes + lo_shift < lo_bound) | (grid.nodes + hi_shift > hi_bound)
    return np.where(outside, mass, 0.0).sum(axis=1)


@dataclass(frozen=True)
class _Eigensystem:
    """``F_N = V diag(lam) V^-1`` (``F_N = folded_generator(N)``) on one
    member of each conjugate pair, laid out for real products.

    The kept eigenvalues are every real one and, of each conjugate pair,
    the member with positive imaginary part; ``half_omega`` is half their
    imaginary parts.  The spectrum is imaginary to rounding
    (``max |Re lam| / max |lam|`` below 1e-14 for every order from 3 to
    400), so a transport drops ``Re lam`` and rotates by ``exp(i t omega)``,
    which it builds from ``tan(t half_omega)``; halving is exact, so that
    is the tangent of exactly half the angle.  ``w`` is the N x 2K real
    array whose columns ``2j`` and ``2j + 1`` are the real and imaginary
    parts of the matching row j of ``V^-1``: a real product with it gives
    eigen-coordinates with interleaved real and imaginary parts, which read
    as complex numbers without a copy.  ``v`` holds, the same way, the real
    part and the negated imaginary part of the matching column of V,
    doubled for a pair, so that one real product with interleaved
    coordinates is the real part of the transform back over the kept half,
    which is the whole real result.
    """

    half_omega: np.ndarray
    w: np.ndarray
    v: np.ndarray


# each kernel holds (8 N + 1) x (N + 1) doubles, 1.4 MB at N = 149, which
# fits a 2 MB L2 cache
@lru_cache(maxsize=8)
def _cdf_kernel(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation rows from the nodal values of an order-*order* grid to
    the uniform CDF mesh of :func:`density_quantiles`, ``8 order + 1``
    points from -1 to 1 (reference points, so one kernel serves every
    domain), and the same mesh as fractions of the domain in [0, 1]."""
    size = 8 * order + 1
    kernel = barycentric_matrix(order, np.linspace(-1.0, 1.0, size))
    mesh = np.linspace(0.0, 1.0, size)
    for a in (kernel, mesh):
        a.setflags(write=False)
    return kernel, mesh


@lru_cache(maxsize=32)
def _eigensystem(order: int) -> _Eigensystem:
    lam, vecs = np.linalg.eig(folded_generator(order))
    keep = lam.imag >= 0.0
    doubled = np.where(lam.imag[keep] > 0.0, 2.0, 1.0)
    # a C-ordered complex N x K array viewed as float is N x 2K, each
    # complex entry's real and imaginary parts side by side
    w = np.ascontiguousarray(np.linalg.inv(vecs)[keep].T).view(float)
    v = np.ascontiguousarray((vecs[:, keep] * doubled).conj()).view(float)
    arrays = (0.5 * lam.imag[keep], w, v)
    for a in arrays:
        a.setflags(write=False)
    return _Eigensystem(*arrays)


def _transport(order: int, bumps: np.ndarray, shifts, noise_shifts) -> np.ndarray:
    """``1 / (S P) sum_p sum_b expm((shifts[b] + noise_shifts[p]) F_N)``
    applied to row b of *bumps*, over the S shifts and P noise shifts: the
    equally weighted branch sum, the one propagator of this module.

    *bumps* holds N + 1 nodal values per row and the result is N + 1 nodal
    values; shifts are reference-interval distances (velocity times scale
    times pseudo-time).  ``F_N`` acts on folded vectors, so each row is
    folded first (the seam value, the average of its two end values, then
    its interior values) and the result's seam value is copied to both
    ends.  The propagators commute, so the double sum factors: each row is
    taken to eigen-coordinates once and rotated by ``exp(i shift omega)``,
    the rows are averaged, and the average is multiplied by the noise
    factor ``(1 / P) sum_p exp(i noise_shifts[p] omega)`` before the single
    transform back.  Each average is a product with a vector of ``1 / n``,
    whose rounding every answer is pinned to: a ``sum`` times ``1 / n``
    rounds differently.  Both transforms are real products and the
    rotations of all S + P phase rows come from one real tangent of each
    half angle (:func:`_rotation`); no cosine, sine or complex exponential
    is taken.
    """
    eig = _eigensystem(order)
    folded = bumps[:, :-1].copy()
    folded[:, 0] = 0.5 * (bumps[:, 0] + bumps[:, -1])
    starts, noises = len(shifts), len(noise_shifts)
    rotation = _rotation(
        np.multiply.outer(np.concatenate((shifts, noise_shifts)), eig.half_omega)
    )
    coords = (folded @ eig.w).view(complex)
    z = (np.full(starts, 1.0 / starts) @ (rotation[:starts] * coords)) * (
        np.full(noises, 1.0 / noises) @ rotation[starts:]
    )
    seam_first = eig.v @ z.view(float)
    return np.concatenate([seam_first, seam_first[:1]])


def _rotation(half_angle: np.ndarray) -> np.ndarray:
    """``exp(2i half_angle)`` from one real tangent per entry, overwriting
    *half_angle* with its tangent ``u``: the rotation is ``(1 + i u)^2 /
    (1 + u^2)``, so with ``d = 2 / (1 + u^2)`` its real part is ``d - 1``
    and its imaginary part ``u d``."""
    u = np.tan(half_angle, out=half_angle)
    d = u * u
    d += 1.0
    np.divide(2.0, d, out=d)
    rotation = np.empty(u.shape, complex)
    np.subtract(d, 1.0, out=rotation.real)
    np.multiply(u, d, out=rotation.imag)
    return rotation
