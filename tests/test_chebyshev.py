"""Collocation machinery: nodes, differentiation, quadrature, interpolation."""

import numpy as np
import pytest

from pdefilter import chebyshev as cheb
from pdefilter.chebyshev import Interval, SpectralGrid

from _helpers import gauss_lobatto_nodes


class TestNodes:
    def test_order_one_endpoints(self):
        np.testing.assert_allclose(gauss_lobatto_nodes(1), [-1.0, 1.0])

    def test_order_two_symmetry(self):
        np.testing.assert_allclose(
            gauss_lobatto_nodes(2), [-1.0, 0.0, 1.0], atol=1e-15
        )

    def test_order_four_second_node(self):
        nodes = gauss_lobatto_nodes(4)
        assert nodes[1] == pytest.approx(-np.cos(np.pi / 4), abs=1e-15)
        assert nodes[1] == pytest.approx(-0.7071068, abs=1e-7)

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 99])
    def test_matches_cosine_form_ascending(self, order):
        nodes = gauss_lobatto_nodes(order)
        j = np.arange(order + 1)
        np.testing.assert_allclose(nodes, -np.cos(np.pi * j / order), atol=1e-14)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes(0)


class TestDiffMatrix:
    def test_constant_annihilated(self):
        d = cheb.diff_matrix(12)
        assert np.abs(d @ np.ones(13)).max() <= 1e-10

    def test_linear_exact(self):
        d = cheb.diff_matrix(12)
        x = gauss_lobatto_nodes(12)
        np.testing.assert_allclose(d @ x, np.ones(13), atol=1e-11)

    def test_row_sums_vanish(self):
        for order in (4, 8, 16, 64):
            d = cheb.diff_matrix(order)
            assert np.abs(d.sum(axis=1)).max() <= 1e-10

    def test_corner_magnitudes(self):
        for order in (4, 8, 16, 99):
            d = cheb.diff_matrix(order)
            expected = (2.0 * order * order + 1.0) / 6.0
            assert abs(abs(d[0, 0]) - expected) <= 1e-8 * expected
            assert abs(abs(d[-1, -1]) - expected) <= 1e-8 * expected
            # ascending nodes: left corner negative, right corner positive
            assert d[0, 0] < 0 < d[-1, -1]

    def test_degree_eight_chebyshev_derivative(self):
        order = 16
        d = cheb.diff_matrix(order)
        x = gauss_lobatto_nodes(order)
        coeffs = np.zeros(9)
        coeffs[8] = 1.0
        samples = np.polynomial.chebyshev.chebval(x, coeffs)
        derivative = np.polynomial.chebyshev.chebval(
            x, np.polynomial.chebyshev.chebder(coeffs)
        )
        assert np.abs(d @ samples - derivative).max() <= 1e-8

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_polynomial_exactness(self, order):
        rng = np.random.default_rng(100 + order)
        d = cheb.diff_matrix(order)
        x = gauss_lobatto_nodes(order)
        for _ in range(20):
            coeffs = rng.normal(size=order + 1)
            p = np.polynomial.chebyshev.chebval(x, coeffs)
            dp = np.polynomial.chebyshev.chebval(
                x, np.polynomial.chebyshev.chebder(coeffs)
            )
            err = np.abs(d @ p - dp).max()
            assert err <= 1e-8 * (1.0 + np.abs(dp).max())

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            cheb.diff_matrix(0)


class TestClenshawCurtis:
    @pytest.mark.parametrize("order", [1, 2, 3, 8, 9, 64, 99])
    def test_weights_sum_to_two(self, order):
        assert abs(cheb.cc_weights(order).sum() - 2.0) <= 1e-12

    @pytest.mark.parametrize("order", [2, 8, 16, 99])
    def test_weights_positive(self, order):
        assert cheb.cc_weights(order).min() > 0.0

    def test_order_two_is_simpson(self):
        np.testing.assert_allclose(
            cheb.cc_weights(2), [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    def test_quartic_on_order_eight(self):
        w = cheb.cc_weights(8)
        x = gauss_lobatto_nodes(8)
        assert abs(w @ x**4 - 0.4) <= 1e-12

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_monomial_exactness(self, order):
        w = cheb.cc_weights(order)
        x = gauss_lobatto_nodes(order)
        for m in range(order + 1):
            analytic = 0.0 if m % 2 else 2.0 / (m + 1.0)
            assert abs(w @ x**m - analytic) <= 1e-10

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            cheb.cc_weights(0)


class TestAffine:
    def test_midpoint(self):
        assert cheb.affine_map(Interval(0.0, 10.0), 5.0) == 0.0

    def test_right_endpoint(self):
        assert cheb.affine_map(Interval(0.0, 10.0), 10.0) == 1.0

    def test_left_endpoint(self):
        assert cheb.affine_map(Interval(-3.0, 7.0), -3.0) == -1.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        dom = Interval(-3.2, 17.9)
        xs = rng.uniform(dom.lo, dom.hi, 50)
        back = cheb.affine_unmap(dom, cheb.affine_map(dom, xs))
        np.testing.assert_allclose(back, xs, atol=1e-14)

    def test_scale_factor(self):
        assert cheb.affine_scale(Interval(0.0, 4.0)) == 0.5

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, -2.0)


class TestSpectralGrid:
    def test_invariants(self):
        grid = SpectralGrid.build(16, Interval(-5.0, 3.0))
        assert grid.n_nodes == 17
        weights = cheb.cc_weights(16)
        assert abs(weights.sum() - 2.0) <= 1e-12
        assert weights.min() > 0.0
        assert abs(grid.physical_weights.sum() - 8.0) <= 1e-12
        assert grid.nodes[0] == -5.0 and grid.nodes[-1] == 3.0
        assert np.all(np.diff(grid.nodes) > 0)


class TestBarycentric:
    def grid(self, order=8, lo=-1.0, hi=1.0):
        return SpectralGrid.build(order, Interval(lo, hi))

    def test_node_hit_is_exact(self):
        grid = self.grid()
        values = np.sin(grid.nodes)
        for j in (0, 3, 8):
            assert cheb.barycentric_interp(grid, values, grid.nodes[j]) == values[j]

    def test_constant(self):
        grid = self.grid()
        values = np.full(9, 5.0)
        for x in (-0.99, -0.2, 0.123, 1.0):
            assert cheb.barycentric_interp(grid, values, x) == pytest.approx(
                5.0, abs=1e-12
            )

    def test_cubic_reproduction(self):
        grid = self.grid()
        values = grid.nodes**3
        got = cheb.barycentric_interp(grid, values, 0.37)
        assert got == pytest.approx(0.37**3, abs=1e-12)

    def test_polynomial_reproduction_random_points(self):
        order = 12
        grid = self.grid(order, -2.0, 5.0)
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=order + 1)
        values = np.polynomial.polynomial.polyval(grid.nodes, coeffs)
        xs = rng.uniform(-2.0, 5.0, 100)
        got = cheb.barycentric_interp(grid, values, xs)
        expected = np.polynomial.polynomial.polyval(xs, coeffs)
        np.testing.assert_allclose(got, expected, atol=1e-10 * np.abs(expected).max())

    def test_outside_domain_rejected(self):
        grid = self.grid()
        with pytest.raises(ValueError, match="outside"):
            cheb.barycentric_interp(grid, np.zeros(9), 1.5)

    def test_length_mismatch_rejected(self):
        grid = self.grid()
        with pytest.raises(ValueError, match="nodal values"):
            cheb.barycentric_interp(grid, np.zeros(8), 0.0)
