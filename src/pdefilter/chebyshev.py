"""Chebyshev collocation machinery.

Provides the Gauss-Lobatto node family, the spectral differentiation matrix,
Clenshaw-Curtis quadrature weights, barycentric Lagrange interpolation and
the affine map between a physical interval and the reference interval
[-1, 1].  Everything here is a pure function of its arguments; the cached
node/weight/matrix arrays are returned read-only so they can be shared
freely.

Conventions
-----------
Nodes are ascending, ``x_j = -cos(pi j / N)`` for ``j = 0..N``, evaluated in
the numerically symmetric form ``sin(pi (2j - N) / (2N))`` so the grid is
exactly antisymmetric.  The differentiation matrix follows the same ordering;
its entries are fixed by requiring exact differentiation of polynomials up to
degree N (the off-diagonal barycentric formula plus the negative-row-sum
diagonal), which also pins the corner magnitudes to ``(2 N^2 + 1) / 6``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class Interval:
    """A physical interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo >= hi:
            raise ValueError(f"degenerate interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return bool(np.all((self.lo <= np.asarray(x)) & (np.asarray(x) <= self.hi)))


def affine_map(domain: Interval, x):
    """Map physical coordinates in *domain* onto the reference interval [-1, 1]."""
    return (2.0 * np.asarray(x, dtype=float) - (domain.lo + domain.hi)) / domain.width


def affine_unmap(domain: Interval, xi):
    """Inverse of :func:`affine_map`: reference coordinates back to physical."""
    return (domain.lo + domain.hi + np.asarray(xi, dtype=float) * domain.width) / 2.0


def affine_scale(domain: Interval) -> float:
    """d(xi)/dx, the factor that converts physical velocities to reference ones."""
    return 2.0 / domain.width


# typed, so that a cached order-4 result never answers diff_matrix(4.0),
# which the order check refuses
@lru_cache(maxsize=32, typed=True)
def diff_matrix(order: int) -> np.ndarray:
    """Spectral differentiation matrix on the Gauss-Lobatto nodes.

    Applied to samples of a polynomial of degree <= order at the nodes, the
    matrix returns samples of the exact derivative (up to rounding).  The
    returned array is a cached read-only view; copy before modifying.
    """
    order = checked_count("order", order, 1)
    x = _reference_nodes(order)
    lam = _bary_weights(order)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    d = (lam[None, :] / lam[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    # negative-sum trick: rows of the exact matrix annihilate constants
    np.fill_diagonal(d, -d.sum(axis=1))
    return _readonly(d)


# typed for the same reason as diff_matrix
@lru_cache(maxsize=64, typed=True)
def cc_weights(order: int) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights on the Gauss-Lobatto nodes.

    Closed-form cosine series (rather than a Vandermonde solve, which would
    be badly conditioned).  The rule is interpolatory, hence exact for
    polynomials of degree <= order, and all weights are positive.  Cached,
    read-only.
    """
    order = checked_count("order", order, 1)
    j = np.arange(order + 1)
    w = np.zeros(order + 1)
    for m in range(order // 2 + 1):
        term = np.cos(2.0 * np.pi * m * j / order) / (1.0 - 4.0 * m * m)
        halved = m == 0 or 2 * m == order
        w += (0.5 if halved else 1.0) * term
    w *= 4.0 / order
    w[0] *= 0.5
    w[-1] *= 0.5
    return _readonly(w)


@dataclass(frozen=True)
class SpectralGrid:
    """A Gauss-Lobatto collocation grid mapped onto a physical interval.

    Attributes
    ----------
    order : int
        Number of node intervals; the grid has ``order + 1`` nodes.
    domain : Interval
        Physical interval covered by the grid.
    nodes : ndarray
        Physical node locations, ascending.
    physical_weights : ndarray
        Clenshaw-Curtis weights scaled to the physical interval.
    """

    order: int
    domain: Interval
    nodes: np.ndarray
    physical_weights: np.ndarray

    @classmethod
    def build(cls, order: int, domain: Interval) -> "SpectralGrid":
        order = checked_count("order", order, 1)
        nodes = _readonly(affine_unmap(domain, _reference_nodes(order)))
        pw = _readonly(cc_weights(order) * (domain.width / 2.0))
        return cls(order, domain, nodes, pw)

    @property
    def n_nodes(self) -> int:
        return self.order + 1

    @cached_property
    def node_list(self) -> list:
        """The physical nodes as a list of Python floats, built on first
        use: a ``bisect`` over it and arithmetic on its entries skip numpy's
        per-call cost on scalar work."""
        return self.nodes.tolist()


def barycentric_interp(grid: SpectralGrid, values, x):
    """Evaluate the grid interpolant of *values* at physical point(s) *x*.

    Uses the barycentric form of the Lagrange interpolant, which is stable
    arbitrarily close to the nodes; an exact node hit returns that node's
    value.  Scalar input returns a float, array input an array.

    Raises
    ------
    ValueError
        If *x* falls outside the grid domain or *values* has the wrong length.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError(
            f"expected {grid.n_nodes} nodal values, got shape {values.shape}"
        )
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    if not grid.domain.contains(xq):
        raise ValueError(
            f"interpolation point outside domain "
            f"[{grid.domain.lo}, {grid.domain.hi}]"
        )
    out = barycentric_matrix(grid.order, affine_map(grid.domain, xq)) @ values
    return float(out[0]) if scalar else out


def barycentric_matrix(order: int, xi) -> np.ndarray:
    """Rows that evaluate the order-*order* interpolant at reference points.

    Row i of the result maps nodal values to the interpolant at ``xi[i]``
    in [-1, 1]: the barycentric quotient with its denominator divided in,
    or the unit row of the node that ``xi[i]`` hits exactly.
    """
    order = checked_count("order", order, 1)
    xi = np.asarray(xi, dtype=float)
    diff = xi[:, None] - _reference_nodes(order)[None, :]
    hit = np.abs(diff) < 1e-15
    kernel = _bary_weights(order)[None, :] / np.where(hit, 1.0, diff)
    kernel /= kernel.sum(axis=1, keepdims=True)
    rows, cols = np.nonzero(hit)
    kernel[rows] = 0.0
    kernel[rows, cols] = 1.0
    return kernel


def checked_count(name: str, value, minimum: int) -> int:
    """*value*, the count argument *name*, as a Python int of at least
    *minimum*: the one integer check of the package.

    ``operator.index`` admits ints and numpy integers but not ``2.5``,
    ``2.0`` or ``"2"``, which ``int()`` would truncate or parse and numpy
    would refuse only mid-run; a Python ``bool`` is refused like ``np.True_``.

    Raises
    ------
    ValueError
        Naming *name*, if *value* is not an integer or is below *minimum*.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _reference_nodes(order: int) -> np.ndarray:
    j = np.arange(order + 1)
    # sin form of -cos(pi j / order): exactly antisymmetric about the midpoint
    return _readonly(np.sin(np.pi * (2 * j - order) / (2 * order)))


@lru_cache(maxsize=64)
def _bary_weights(order: int) -> np.ndarray:
    """Barycentric interpolation weights for the Gauss-Lobatto nodes: the
    classical pattern (-1)^j, halved at both endpoints (any common scaling
    cancels in the barycentric quotient)."""
    lam = (-1.0) ** np.arange(order + 1)
    lam[0] *= 0.5
    lam[-1] *= 0.5
    return _readonly(lam)
