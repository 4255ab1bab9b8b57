"""Grid densities, mollified deltas, advection and prior assembly."""

import numpy as np
import pytest
from scipy.special import ndtri

from pdefilter import density as dn
from pdefilter import linalg
from pdefilter.bench import benchmark_model
from pdefilter.chebyshev import Interval, SpectralGrid
from pdefilter.errors import DomainEscapeError, FilterDivergenceError
from pdefilter.filters import (
    GaussianSpec,
    NoiseQuantization,
    ScalarStateModel,
    gaussian_quantile_points,
)

from _oracles import gaussian_pdf


def wide_grid(order=64, half_width=13.0):
    # wide enough that a unit Gaussian's 1e-12-level tails stay clear of the
    # boundary margin even after a shift of several units
    return SpectralGrid.build(order, Interval(-half_width, half_width))


def gaussian_density(grid, mean, variance):
    return dn.normalize(
        dn.GridDensity(grid, gaussian_pdf(grid.nodes, mean, variance))
    )


def expm_prior(branches, grid, width_factor=1.5):
    """Reference prior: one linalg.expm of the folded generator per branch,
    applied to the folded bump, summed, clipped once and normalized."""
    n = grid.order
    accum = np.zeros(n)
    for branch in branches:
        bump = dn.mollified_delta(grid, branch.start_state, width_factor).values
        folded = np.concatenate([[0.5 * (bump[0] + bump[n])], bump[1:n]])
        propagator = linalg.expm(dn.folded_generator(grid, branch.velocity))
        accum += branch.mass * (propagator @ folded)
    values = np.clip(np.concatenate([accum, accum[:1]]), 0.0, None)
    return dn.normalize(dn.GridDensity(grid, values))


def linear_model(slope=1.0):
    return ScalarStateModel(
        transition=lambda x, k, v: slope * x + v,
        observation=lambda x, k: x,
        process_noise=GaussianSpec(0.0, 1.0),
        obs_noise=GaussianSpec(0.0, 1.0),
        initial=GaussianSpec(0.0, 1.0),
    )


class TestGridDensity:
    def test_rejects_negative_values(self):
        grid = wide_grid(8)
        values = np.ones(9)
        values[3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            dn.GridDensity(grid, values)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="nodal values"):
            dn.GridDensity(wide_grid(8), np.ones(5))

    def test_rejects_nan(self):
        values = np.ones(9)
        values[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dn.GridDensity(wide_grid(8), values)


class TestMollifiedDelta:
    def test_unit_mass(self):
        grid = wide_grid()
        bump = dn.mollified_delta(grid, 1.7)
        assert dn.integrate(bump) == pytest.approx(1.0, abs=1e-6)

    def test_peaks_at_center_node(self):
        grid = wide_grid()
        j = 20
        bump = dn.mollified_delta(grid, float(grid.nodes[j]))
        assert int(np.argmax(bump.values)) == j

    def test_first_moment_near_center(self):
        grid = wide_grid()
        center = 0.8
        sigma = dn.mollification_sigma(grid, center, 1.5)
        bump = dn.mollified_delta(grid, center)
        assert abs(dn.mean(bump) - center) <= sigma / 10.0

    def test_center_outside_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            dn.mollified_delta(wide_grid(), 13.5)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="width_factor"):
            dn.mollified_delta(wide_grid(), 0.0, width_factor=0.0)


class TestAdvectStep:
    def test_zero_velocity_is_identity(self):
        grid = wide_grid()
        start = gaussian_density(grid, -2.0, 1.0)
        # zero shift needs a positive-velocity epsilon? no: velocity 0 allowed
        out = dn.advect_step(start, 0.0)
        assert np.abs(out.values - start.values).max() <= 1e-10

    def test_translates_gaussian(self):
        grid = wide_grid()
        start = gaussian_density(grid, -3.0, 1.0)
        moved = dn.advect_step(start, 6.0)
        expected = gaussian_pdf(grid.nodes, 3.0, 1.0)
        assert np.abs(moved.values - expected).max() <= 1e-3

    def test_mass_preserved_within_two_percent(self):
        grid = wide_grid()
        start = gaussian_density(grid, -3.0, 1.0)
        moved = dn.advect_step(start, 6.0)
        assert dn.integrate(moved) == pytest.approx(1.0, rel=0.02)

    def test_reversibility(self):
        grid = wide_grid()
        start = gaussian_density(grid, -2.0, 1.44)
        back = dn.advect_step(dn.advect_step(start, 4.5), -4.5)
        assert np.abs(back.values - start.values).max() <= 1e-6

    def test_boundary_escape_raises(self):
        grid = wide_grid()
        start = gaussian_density(grid, 3.0, 1.0)
        with pytest.raises(DomainEscapeError, match="widen the domain"):
            dn.advect_step(start, 8.0, label="branch 7")

    def test_escape_error_names_branch(self):
        grid = wide_grid()
        start = gaussian_density(grid, 3.0, 1.0)
        with pytest.raises(DomainEscapeError, match="branch 7"):
            dn.advect_step(start, 8.0, label="branch 7")

    def test_bad_dt_rejected(self):
        grid = wide_grid()
        start = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="dt"):
            dn.advect_step(start, 1.0, dt=0.0)

    def test_nonfinite_velocity_rejected(self):
        grid = wide_grid()
        start = gaussian_density(grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            dn.advect_step(start, np.inf)


class TestSpectralPropagator:
    # the cached eigensystem of the unit folded generator F_N is the only
    # transport path; linalg.expm is its reference
    @pytest.mark.parametrize("order", [47, 99, 149])
    @pytest.mark.parametrize("scale", [0.3, 3.0, 30.0])
    def test_matches_expm(self, order, scale):
        unit = SpectralGrid.build(order, Interval(-1.0, 1.0))
        expected = linalg.expm(dn.folded_generator(unit, scale))
        eye = np.eye(order)
        got = np.column_stack(
            [
                dn._transport(order, eye[j:j + 1], np.array([scale]), np.ones(1))
                for j in range(order)
            ]
        )
        rel = linalg.one_norm(got - expected) / linalg.one_norm(expected)
        assert rel <= 1e-9

    @pytest.mark.parametrize("order", [47, 99, 149])
    def test_eigensystem_is_safe_to_exponentiate(self, order):
        # eigenvector exponentials are only trustworthy for a well
        # conditioned V and, for a neutral transport, an imaginary spectrum
        eig = dn._eigensystem(order)
        assert eig.cond <= 10.0
        assert np.abs(eig.alpha).max() <= 1e-10

    def test_eigensystem_is_cached_per_order(self):
        assert dn._eigensystem(47) is dn._eigensystem(47)

    def test_batch_is_weighted_sum_of_single_transports(self):
        rng = np.random.default_rng(5)
        folded = rng.normal(size=(3, 30))
        shifts = np.array([-0.7, 0.1, 2.5])
        weights = np.array([0.2, 0.3, 0.5])
        batch = dn._transport(30, folded, shifts, weights)
        singles = sum(
            w * dn._transport(30, f[None, :], np.array([t]), np.ones(1))
            for f, t, w in zip(folded, shifts, weights)
        )
        assert np.abs(batch - singles).max() <= 1e-12


class TestMakeBranches:
    def test_single_point_degenerate(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.4, 1.0)
        noise = NoiseQuantization([0.0], [1.0])
        branches = dn.make_branches(posterior, noise, linear_model(), 1, 1)
        assert len(branches) == 1
        branch = branches[0]
        assert branch.mass == 1.0
        # single quantile = posterior median
        assert branch.start_state == pytest.approx(0.4, abs=1e-4)

    def test_symmetric_setup_gives_symmetric_branches(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 2.0)
        noise = NoiseQuantization([-1.0, 1.0], [0.5, 0.5])
        model = ScalarStateModel(
            transition=lambda x, k, v: x**3 / 10.0 + v,  # odd in both args
            observation=lambda x, k: x,
            process_noise=GaussianSpec(0.0, 1.0),
            obs_noise=GaussianSpec(0.0, 1.0),
            initial=GaussianSpec(0.0, 1.0),
        )
        branches = dn.make_branches(posterior, noise, model, 1, 8)
        pairs = sorted((b.start_state, b.noise_value) for b in branches)
        mirrored = sorted((-b.start_state, -b.noise_value) for b in branches)
        for (s1, v1), (s2, v2) in zip(pairs, mirrored):
            assert s1 == pytest.approx(s2, abs=1e-6)
            assert v1 == pytest.approx(v2, abs=1e-12)

    def test_benchmark_end_state_from_zero(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 10.0)
        noise = NoiseQuantization([0.0], [1.0])
        branches = dn.make_branches(posterior, noise, benchmark_model(), 1, 1)
        assert branches[0].end_state == pytest.approx(8.0 * np.cos(1.2), abs=1e-3)

    def test_masses_sum_to_one(self):
        grid = wide_grid()
        posterior = gaussian_density(grid, 0.0, 3.0)
        noise = NoiseQuantization([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        branches = dn.make_branches(posterior, noise, linear_model(), 2, 7)
        assert sum(b.mass for b in branches) == pytest.approx(1.0, abs=1e-12)
        assert len(branches) == 21

    def test_zero_mass_posterior_rejected(self):
        grid = wide_grid()
        zero = dn.GridDensity(grid, np.zeros(grid.n_nodes))
        noise = NoiseQuantization([0.0], [1.0])
        with pytest.raises(FilterDivergenceError):
            dn.make_branches(zero, noise, linear_model(), 1, 4)


class TestDensityQuantiles:
    def test_gaussian_quantiles_match_inverse_cdf(self):
        grid = wide_grid(99, 12.0)
        posterior = gaussian_density(grid, 0.5, 2.0)
        probs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        got = dn.density_quantiles(posterior, probs)
        expected = 0.5 + ndtri(probs) * np.sqrt(2.0)
        np.testing.assert_allclose(got, expected, atol=5e-3)


class TestAssemblePrior:
    def one_branch(self, start, end, mass=1.0):
        return dn.Branch(
            start_state=start,
            noise_value=0.0,
            mass=mass,
            end_state=end,
            velocity=end - start,
        )

    def test_zero_velocity_branch_reproduces_delta(self):
        grid = wide_grid()
        prior = dn.assemble_prior([self.one_branch(1.2, 1.2)], grid)
        bump = dn.mollified_delta(grid, 1.2)
        assert np.abs(prior.values - bump.values).max() <= 1e-8

    def test_symmetric_branches_give_symmetric_prior(self):
        grid = wide_grid()
        branches = [
            self.one_branch(-1.0, -3.0, 0.5),
            self.one_branch(1.0, 3.0, 0.5),
        ]
        prior = dn.assemble_prior(branches, grid)
        assert np.abs(prior.values - prior.values[::-1]).max() <= 1e-9

    def test_valid_density_for_random_configs(self):
        rng = np.random.default_rng(77)
        grid = wide_grid(80, 30.0)
        for _ in range(5):
            n = rng.integers(3, 12)
            masses = rng.uniform(0.2, 1.0, n)
            masses /= masses.sum()
            branches = [
                self.one_branch(
                    rng.uniform(-8, 8), rng.uniform(-8, 8), masses[i]
                )
                for i in range(n)
            ]
            prior = dn.assemble_prior(branches, grid)
            assert prior.values.min() >= 0.0
            assert dn.integrate(prior) == pytest.approx(1.0, abs=1e-9)

    def test_prior_mean_matches_weighted_end_states(self):
        grid = wide_grid(80, 30.0)
        branches = [
            self.one_branch(-2.0, -5.0, 0.3),
            self.one_branch(0.5, 2.0, 0.45),
            self.one_branch(3.0, 7.5, 0.25),
        ]
        prior = dn.assemble_prior(branches, grid)
        target = sum(b.mass * b.end_state for b in branches)
        sigma = dn.mollification_sigma(grid, 0.0, 1.5)
        assert abs(dn.mean(prior) - target) <= 2.0 * sigma

    def test_matches_per_branch_expm_on_benchmark_step(self):
        # one full benchmark prediction from a Gaussian posterior
        model = benchmark_model()
        start_grid = wide_grid(99, 18.0)
        posterior = gaussian_density(start_grid, 0.0, 5.0)
        noise = gaussian_quantile_points(16, model.process_noise.variance)
        branches = dn.make_branches(posterior, noise, model, 1, 16)
        domain = dn.prediction_domain(branches, 99, 1.5, model.process_noise.std)
        grid = SpectralGrid.build(99, domain)
        prior = dn.assemble_prior(branches, grid)
        assert dn.l1_distance(prior, expm_prior(branches, grid)) <= 1e-10

    def test_matches_per_branch_expm_over_several_chunks(self):
        # 20 x 16 = 320 branches on a small grid: more than one batch
        posterior = gaussian_density(wide_grid(32, 8.0), 0.0, 1.0)
        noise = gaussian_quantile_points(16, 1.0)
        model = linear_model(0.9)
        branches = dn.make_branches(posterior, noise, model, 1, 20)
        assert len(branches) > dn._BRANCH_CHUNK
        domain = dn.prediction_domain(branches, 47, 1.5, model.process_noise.std)
        grid = SpectralGrid.build(47, domain)
        prior = dn.assemble_prior(branches, grid)
        assert dn.l1_distance(prior, expm_prior(branches, grid)) <= 1e-10

    def test_escape_names_first_offending_branch(self):
        grid = wide_grid()
        branches = [
            self.one_branch(0.0, 1.0, 0.5),
            self.one_branch(3.0, 11.0, 0.25),
            self.one_branch(-3.0, -11.0, 0.25),
        ]
        with pytest.raises(DomainEscapeError, match="branch 1 "):
            dn.assemble_prior(branches, grid)

    def test_mass_sum_violation_rejected(self):
        grid = wide_grid()
        with pytest.raises(ValueError, match="masses sum"):
            dn.assemble_prior([self.one_branch(0.0, 1.0, 0.7)], grid)

    def test_empty_branches_rejected(self):
        with pytest.raises(ValueError, match="no branches"):
            dn.assemble_prior([], wide_grid())


class TestMoments:
    def test_normalized_integral_is_one(self):
        grid = wide_grid()
        density = gaussian_density(grid, 1.0, 2.0)
        assert dn.integrate(density) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_mean(self):
        grid = SpectralGrid.build(64, Interval(-7.0, 11.0))
        density = gaussian_density(grid, 2.0, 1.5)
        assert dn.mean(density) == pytest.approx(2.0, abs=1e-6)

    def test_delta_mean_within_tenth_sigma(self):
        grid = wide_grid()
        center = -4.3
        sigma = dn.mollification_sigma(grid, center, 1.5)
        bump = dn.mollified_delta(grid, center)
        assert abs(dn.mean(bump) - center) <= sigma / 10.0

    def test_normalize_idempotent(self):
        grid = wide_grid()
        density = gaussian_density(grid, 0.0, 1.0)
        again = dn.normalize(density)
        assert np.abs(again.values - density.values).max() <= 1e-12

    def test_normalize_scale_invariant(self):
        grid = wide_grid()
        raw = gaussian_pdf(grid.nodes, 0.5, 2.0)
        one = dn.normalize(dn.GridDensity(grid, raw))
        other = dn.normalize(dn.GridDensity(grid, 7.0 * raw))
        assert np.abs(one.values - other.values).max() <= 1e-12

    def test_normalize_arbitrary_positive_values(self):
        rng = np.random.default_rng(12)
        grid = wide_grid(32)
        density = dn.normalize(dn.GridDensity(grid, rng.uniform(0.1, 2.0, 33)))
        assert dn.integrate(density) == pytest.approx(1.0, abs=1e-10)

    def test_zero_mass_divergence(self):
        grid = wide_grid(16)
        with pytest.raises(FilterDivergenceError, match="divergence"):
            dn.normalize(dn.GridDensity(grid, np.zeros(17)))
