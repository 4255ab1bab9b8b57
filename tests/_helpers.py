"""Test-only helpers built on the package: the reference nodes of a grid
order and the L1 distance of two grid densities.  No package code needs
either, so they live with the tests."""

import numpy as np

from pdefilter.chebyshev import Interval, SpectralGrid


def gauss_lobatto_nodes(order):
    """The package's Chebyshev Gauss-Lobatto nodes ``-cos(pi j / order)``,
    ascending in [-1, 1]: the nodes of an order-*order* grid on [-1, 1],
    which the affine map leaves bit for bit unchanged.  The order is
    checked, and named, as ``SpectralGrid.build`` checks it."""
    return SpectralGrid.build(order, Interval(-1.0, 1.0)).nodes.copy()


def l1_distance(a, b):
    """Integral of |a - b| for two grid densities on the same nodes."""
    if a.grid is not b.grid and not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("densities live on different grids")
    return float(a.grid.physical_weights @ np.abs(a.values - b.values))
