"""Filter recursions: quantization, likelihoods, Bayes updates, PF, UKF."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdefilter import density as dn
from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, simulate_truth
from pdefilter.chebyshev import Interval, SpectralGrid, diff_matrix
from pdefilter.errors import FilterDivergenceError, WeightUnderflowError

from _helpers import gauss_lobatto_nodes, l1_distance
from _oracles import gaussian_pdf, kalman_filter
from _oracles import systematic_resample as resample_oracle
from _oracles import ukf_step as ukf_oracle


def linear_model(a=0.9, c=1.0, q=1.0, r=1.0, m0=0.0, p0=1.0):
    return flt.ScalarStateModel(
        transition=lambda x, k, v: a * x + v,
        observation=lambda x, k: c * x,
        process_noise=flt.GaussianSpec(0.0, q),
        obs_noise=flt.GaussianSpec(0.0, r),
        initial=flt.GaussianSpec(m0, p0),
    )


def constant_observation_model():
    return flt.ScalarStateModel(
        transition=lambda x, k, v: 0.8 * x + v,
        observation=lambda x, k: 3.0,  # independent of the state
        process_noise=flt.GaussianSpec(0.0, 1.0),
        obs_noise=flt.GaussianSpec(0.0, 1.0),
        initial=flt.GaussianSpec(0.5, 2.0),
    )


def pf_step_per_particle(state, model, k, y_k, rng):
    """Reference particle step: one scalar model call per particle, with an
    explicit per-particle prior weight array of 1/n.

    Returns the resampled particles, or None where every weight underflows.
    """
    n = state.particles.size
    draws = rng.normal(0.0, model.process_noise.std, n)
    moved = np.array(
        [float(model.transition(float(x), k, float(v))) for x, v in zip(state.particles, draws)]
    )
    predicted = np.array([float(model.observation(float(x), k)) for x in moved])
    weights = np.full(n, 1.0 / n) * flt.gaussian_likelihood(
        y_k, predicted, model.obs_noise.variance
    )
    total = float(weights.sum())
    if not total > 0.0:
        return None
    indices = flt.systematic_resample(weights / total, n, rng.random())
    return moved[indices]


# sizes on both sides of the crossover to systematic_resample's linear pass
RESAMPLE_SIZES = st.one_of(st.integers(1, 300), st.integers(1000, 2100))


@st.composite
def resample_cases(draw):
    """Weights (zero, equal, near 1e-300 or uniform draws), n_out and u0."""
    n = draw(RESAMPLE_SIZES)
    n_out = draw(st.one_of(st.just(n), RESAMPLE_SIZES))
    u0 = draw(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]),
            st.floats(0.0, 1.0, exclude_max=True),
        )
    )
    if draw(st.booleans()):
        return np.full(n, 1.0 / n), n_out, u0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random(n)
    raw[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] *= 1e-300
    raw[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0.0
    if not raw.sum() > 0.0:
        raw[rng.integers(n)] = 1.0
    return raw / raw.sum(), n_out, u0


def grid_density(order, lo, hi, values):
    grid = SpectralGrid.build(order, Interval(lo, hi))
    return dn.GridDensity(grid, values(grid.nodes))


def grid_variance(density):
    mu = dn.mean(density)
    second = float(density.grid.physical_weights @ (density.grid.nodes**2 * density.values))
    return second - mu * mu


class TestGaussianQuantilePoints:
    def test_single_point_is_median(self):
        np.testing.assert_array_equal(flt.gaussian_quantile_points(1, 4.0), [0.0])

    def test_two_points_unit_variance(self):
        np.testing.assert_allclose(
            flt.gaussian_quantile_points(2, 1.0),
            [-0.6744897501960817, 0.6744897501960817],
            atol=1e-9,
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_antisymmetric(self, n):
        points = flt.gaussian_quantile_points(n, 3.0)
        np.testing.assert_allclose(points, -points[::-1], atol=1e-12)

    def test_variance_scaling(self):
        base = flt.gaussian_quantile_points(8, 1.0)
        scaled = flt.gaussian_quantile_points(8, 9.0)
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)

    def test_points_are_a_read_only_1d_array(self):
        points = flt.gaussian_quantile_points(4, 1.0)
        assert points.shape == (4,) and points.dtype == float
        with pytest.raises(ValueError):
            points[0] = 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            flt.gaussian_quantile_points(0, 1.0)
        with pytest.raises(ValueError):
            flt.gaussian_quantile_points(4, 0.0)

    @pytest.mark.parametrize("variance", [math.inf, math.nan, -1.0])
    def test_variance_must_be_positive_and_finite(self, variance):
        # an infinite variance once passed the check and warned of 0 * inf
        # in a multiply; a NaN was refused as not positive
        message = f"^variance must be positive and finite, got {variance}$"
        with pytest.raises(ValueError, match=message):
            flt.gaussian_quantile_points(3, variance)

    def test_within_8_ulps_of_scipy_ndtri(self):
        # scipy is a test-only oracle; the package itself does not import it
        from scipy.special import ndtri

        for n in range(1, 257):
            points = flt.gaussian_quantile_points(n, 1.0)
            expected = ndtri((2.0 * np.arange(n) + 1.0) / (2.0 * n))
            ulps = np.abs(points - expected) / np.spacing(np.abs(expected))
            assert ulps.max() <= 8.0, (n, ulps.max())


class TestGaussianLikelihood:
    def test_peak_value(self):
        assert flt.gaussian_likelihood(2.0, 2.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_unit_offset(self):
        assert flt.gaussian_likelihood(1.0, 0.0, 1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_far_tail_vanishes(self):
        assert flt.gaussian_likelihood(60.0, 0.0, 1.0) <= 1e-300

    def test_broadcasts(self):
        out = flt.gaussian_likelihood(0.0, np.array([0.0, 1.0]), 1.0)
        assert out.shape == (2,)
        assert out[0] > out[1]

    @staticmethod
    def expression(y, y_pred, obs_variance):
        """The likelihood as one numpy expression, which the in-place
        computation must match bit for bit."""
        resid = np.asarray(y, dtype=float) - np.asarray(y_pred, dtype=float)
        out = np.exp(-0.5 * resid * resid / obs_variance) / math.sqrt(
            2.0 * math.pi * obs_variance
        )
        return float(out) if np.ndim(out) == 0 else out

    @pytest.mark.parametrize("obs_variance", [1.0, 0.01, 7.3, 1e-300, 1e300])
    @pytest.mark.parametrize("y", [0.3, -12.5, np.array([[0.0], [40.0]])], ids=["0.3", "-12.5", "column"])
    def test_equals_expression_bit_for_bit(self, y, obs_variance):
        # from the peak through subnormal results to underflow at 0
        y_pred = np.concatenate(
            [np.linspace(-60.0, 60.0, 2001), np.random.default_rng(8).normal(0.0, 30.0, 500)]
        )
        y_pred_before, y_before = y_pred.copy(), np.copy(y)
        got = flt.gaussian_likelihood(y, y_pred, obs_variance)
        want = self.expression(y, y_pred, obs_variance)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        if obs_variance == 1.0:
            assert (got == 0.0).any() and ((got > 0.0) & (got < np.finfo(float).tiny)).any()
        np.testing.assert_array_equal(y_pred, y_pred_before)
        np.testing.assert_array_equal(y, y_before)

    @settings(max_examples=200, deadline=None)
    @given(
        # kept where -0.5 r r / var cannot overflow, which would warn
        y=st.floats(-1e100, 1e100), y_pred=st.floats(-1e100, 1e100),
        obs_variance=st.floats(1e-100, 1e100),
    )
    def test_scalars_equal_expression_bit_for_bit(self, y, y_pred, obs_variance):
        for args in ((y, y_pred), (np.array(y), np.float64(y_pred))):
            got = flt.gaussian_likelihood(*args, obs_variance)
            assert type(got) is float
            want = self.expression(*args, obs_variance)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert got == want

    @pytest.mark.parametrize("obs_variance", [1.0, 1e-10])
    def test_overflowing_innovation_is_zero_without_a_warning(self, obs_variance):
        # -0.5 r r / var overflows to -inf, whose exp is 0; this once warned
        # "overflow encountered in multiply", an error under pytest.ini
        y_pred = np.array([1.9e154, -1e300, 1e154, 0.0])
        got = flt.gaussian_likelihood(0.0, y_pred, obs_variance)
        with np.errstate(over="ignore"):
            want = self.expression(0.0, y_pred, obs_variance)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert (got[:3] == 0.0).all() and got[3] > 0.0
        for args in ((0.0, 1.9e154), (np.array(-1.9e154), np.float64(0.0))):
            assert flt.gaussian_likelihood(*args, obs_variance) == 0.0

    def test_bad_variance(self):
        # an infinite variance once gave likelihood 0.0, reported by a pdef
        # step as a divergence and by a pf step as a weight underflow
        for variance in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="variance must be positive and finite"):
                flt.gaussian_likelihood(0.0, 1.0, variance)


class TestPosteriorUpdate:
    def uniform_prior(self, order=48, lo=-4.0, hi=4.0):
        return grid_density(order, lo, hi, lambda x: np.full(x.size, 1.0 / (hi - lo)))

    def test_flat_prior_posterior_proportional_to_likelihood(self):
        prior = self.uniform_prior()
        lik = gaussian_pdf(prior.grid.nodes, 0.7, 0.5)
        posterior = flt.posterior_update(prior, lik)
        expected = lik / (prior.grid.physical_weights @ lik)
        assert np.abs(posterior.values - expected).max() <= 1e-9

    def test_flat_likelihood_returns_prior(self):
        prior = dn.normalize(
            grid_density(48, -4.0, 4.0, lambda x: gaussian_pdf(x, 0.3, 0.8))
        )
        posterior = flt.posterior_update(prior, np.full(prior.grid.n_nodes, 0.123))
        assert l1_distance(posterior, prior) <= 1e-12

    def test_prior_scale_invariance(self):
        base = grid_density(48, -4.0, 4.0, lambda x: gaussian_pdf(x, -0.4, 1.2))
        scaled = dn.GridDensity(base.grid, 7.0 * base.values)
        lik = gaussian_pdf(base.grid.nodes, 0.2, 0.6)
        one = flt.posterior_update(base, lik)
        other = flt.posterior_update(scaled, lik)
        assert np.abs(one.values - other.values).max() <= 1e-10

    def test_negative_likelihood_rejected(self):
        prior = self.uniform_prior()
        with pytest.raises(ValueError, match="nonnegative"):
            flt.posterior_update(prior, np.full(prior.grid.n_nodes, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_likelihood_is_named(self, bad):
        # the likelihood is at fault, not the density the product would be
        prior = self.uniform_prior()
        lik = np.full(prior.grid.n_nodes, 0.5)
        lik[7] = bad
        with pytest.raises(ValueError, match="likelihood values must be finite"):
            flt.posterior_update(prior, lik)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_likelihood_is_reported_before_negative(self, bad):
        prior = self.uniform_prior()
        lik = np.full(prior.grid.n_nodes, 0.5)
        lik[3] = -1.0
        lik[9] = bad
        with pytest.raises(ValueError, match="likelihood values must be finite"):
            flt.posterior_update(prior, lik)
        lik[9] = 0.5
        with pytest.raises(ValueError, match="likelihood values must be nonnegative"):
            flt.posterior_update(prior, lik)


class TestPdefStep:
    def test_flat_likelihood_posterior_equals_prior(self):
        # R = 1e12 makes the likelihood constant over the whole grid
        model = linear_model(r=1e12)
        cfg = flt.PdefConfig(grid_nodes=80, state_quantiles=12)
        noise = flt.gaussian_quantile_points(12, model.process_noise.variance)
        state = flt.pdef_init(model, cfg)
        branches = dn.make_branches(state.posterior, noise, model, 1, 12)
        domain = dn.prediction_domain(branches, 79, model.process_noise.std)
        grid = SpectralGrid.build(79, domain)
        prior = dn.assemble_prior(branches, grid)
        stepped = flt.pdef_step(state, model, noise, 1, 0.5, cfg)
        assert l1_distance(stepped.posterior, prior) <= 1e-6

    def test_one_step_matches_kalman(self):
        model = linear_model(a=0.9, c=1.0, q=1.0, r=1.0, m0=0.0, p0=1.0)
        noise = flt.gaussian_quantile_points(16, 1.0)
        y1 = 0.7
        cfg = flt.PdefConfig()
        state = flt.pdef_step(flt.pdef_init(model, cfg), model, noise, 1, y1, cfg)
        means, variances = kalman_filter([y1], 0.9, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert abs(flt.estimate(state) - means[0]) <= 0.05
        assert abs(grid_variance(state.posterior) - variances[0]) <= 0.05

    def test_posterior_stays_valid_on_benchmark(self):
        model = benchmark_model()
        noise = flt.gaussian_quantile_points(16, model.process_noise.variance)
        cfg = flt.PdefConfig(grid_nodes=80)
        rng = np.random.default_rng(4)
        truth, obs = simulate_truth(model, 6, rng)
        state = flt.pdef_init(model, cfg)
        for k in range(1, 7):
            state = flt.pdef_step(state, model, noise, k, obs[k - 1], cfg)
            values = state.posterior.values
            assert values.min() >= 0.0
            assert dn.integrate(state.posterior) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        model = benchmark_model()
        noise = flt.gaussian_quantile_points(8, model.process_noise.variance)
        cfg = flt.PdefConfig(grid_nodes=60, state_quantiles=8)
        state = flt.pdef_init(model, cfg)
        one = flt.pdef_step(state, model, noise, 1, 1.3, cfg)
        two = flt.pdef_step(state, model, noise, 1, 1.3, cfg)
        np.testing.assert_array_equal(one.posterior.values, two.posterior.values)

    def test_constant_observation_model_leaves_prior(self):
        # the observation returns a scalar for the whole node array
        model = constant_observation_model()
        cfg = flt.PdefConfig(grid_nodes=60, state_quantiles=8)
        noise = flt.gaussian_quantile_points(8, model.process_noise.variance)
        state = flt.pdef_init(model, cfg)
        branches = dn.make_branches(state.posterior, noise, model, 1, 8)
        domain = dn.prediction_domain(branches, 59, model.process_noise.std)
        prior = dn.assemble_prior(branches, SpectralGrid.build(59, domain))
        stepped = flt.pdef_step(state, model, noise, 1, -4.0, cfg)
        assert l1_distance(stepped.posterior, prior) <= 1e-12

    def test_too_coarse_grid_is_refused_before_any_bump(self):
        # no domain holds a 16-node grid's bumps 5.25 widths inside its
        # margin, so its configuration is refused before any filter step
        with pytest.raises(ValueError, match="^grid_nodes must be >= 30, got 16: no domain keeps"):
            flt.PdefConfig(grid_nodes=16)

    def test_config_accepts_the_grids_the_domain_rule_serves(self):
        # PdefConfig and prediction_domain refuse the same grids, 29 nodes
        # or fewer, with the same error
        branches = dn.Branches([0.0], [1.0], [0.0])
        for grid_nodes in range(2, 61):
            try:
                dn.prediction_domain(branches, grid_nodes - 1, 1.0)
            except ValueError as error:
                assert grid_nodes <= 29
                assert str(error).startswith(f"grid_nodes must be >= 30, got {grid_nodes}: ")
                with pytest.raises(ValueError) as refused:
                    flt.PdefConfig(grid_nodes=grid_nodes)
                assert str(refused.value) == str(error)
            else:
                assert flt.PdefConfig(grid_nodes=grid_nodes).grid_nodes == grid_nodes >= 30

    def test_one_assembly_on_the_prediction_domain(self, monkeypatch):
        # at 48 nodes with 4 x 4 branches the fixed margin is too narrow for
        # the first prediction from the initial Gaussian; the widened domain
        # is assembled once
        model = benchmark_model()
        cfg = flt.PdefConfig(grid_nodes=48, state_quantiles=4)
        noise = flt.gaussian_quantile_points(4, model.process_noise.variance)
        state = flt.pdef_init(model, cfg)
        grids = []
        original = flt.assemble_prior

        def recording(branches, grid):
            grids.append(grid)
            return original(branches, grid)

        monkeypatch.setattr(flt, "assemble_prior", recording)
        stepped = flt.pdef_step(state, model, noise, 1, 0.5, cfg)
        monkeypatch.undo()
        assert len(grids) == 1

        branches = dn.make_branches(state.posterior, noise, model, 1, 4)
        domain = dn.prediction_domain(branches, 47, model.process_noise.std)
        ends = branches.start_state + branches.drift
        lo = min(branches.start_state.min(), ends.min() + noise.min())
        hi = max(branches.start_state.max(), ends.max() + noise.max())
        fixed_margin = 4.0 * (model.process_noise.std + 1.5 * (hi - lo) / 47)
        assert domain.width > (hi - lo) + 2.0 * fixed_margin
        grid = SpectralGrid.build(47, domain)
        assert grids[0].domain == domain
        predicted = model.observation(grid.nodes, 1)
        lik = flt.gaussian_likelihood(0.5, predicted, model.obs_noise.variance)
        expected = flt.posterior_update(dn.assemble_prior(branches, grid), lik)
        assert stepped.posterior.grid.nodes.tobytes() == expected.grid.nodes.tobytes()
        assert stepped.posterior.values.tobytes() == expected.values.tobytes()


class TestParticleFilter:
    def test_init_draws_from_initial_spec(self):
        model = linear_model(m0=2.0, p0=0.25)
        state = flt.pf_init(model, 4000, np.random.default_rng(0))
        assert state.particles.mean() == pytest.approx(2.0, abs=0.05)
        assert state.particles.std() == pytest.approx(0.5, abs=0.05)
        assert state.particles.shape == (4000,)

    def test_deterministic_model_concentrates_on_truth(self):
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: 0.5 * x + v,
            observation=lambda x, k: x,
            process_noise=flt.GaussianSpec(0.0, 1e-30),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(2.0, 1e-30),
        )
        state = flt.PfState(np.full(50, 2.0))
        out = flt.pf_step(state, model, 1, 1.0, np.random.default_rng(1))
        np.testing.assert_allclose(out.particles, 1.0, atol=1e-12)
        assert out.particles.shape == (50,)

    def test_underflow_raises(self):
        model = linear_model(r=1e-6)
        state = flt.PfState(np.zeros(10))
        with pytest.raises(WeightUnderflowError):
            flt.pf_step(state, model, 1, 1e9, np.random.default_rng(0))

    def test_overflowing_innovation_underflows_every_weight(self):
        # every innovation is beyond the range of its square: the likelihoods
        # are 0, a weight underflow, where a RuntimeWarning once stopped the step
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: x + v,
            observation=lambda x, k: 1e155 * x,
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(3.0, 1.0),
        )
        state = flt.PfState(np.full(20, 3.0))
        with pytest.raises(WeightUnderflowError):
            flt.pf_step(state, model, 1, 0.0, np.random.default_rng(0))

    def test_same_seed_identical_trajectory(self):
        model = benchmark_model()
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            state = flt.pf_init(model, 32, rng)
            path = []
            for k in range(1, 8):
                state = flt.pf_step(state, model, k, 1.0 + 0.1 * k, rng)
                path.append(flt.estimate(state))
            runs.append(path)
        np.testing.assert_array_equal(runs[0], runs[1])

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-1.5, 1.5),
        c=st.floats(-3.0, 3.0),
        q=st.floats(0.01, 10.0),
        r=st.floats(0.01, 10.0),
        y=st.floats(-20.0, 20.0),
        n=st.integers(1, 200),
        k=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_particle_reference_on_linear_models(self, a, c, q, r, y, n, k, seed):
        model = linear_model(a=a, c=c, q=q, r=r)
        state = flt.pf_init(model, n, np.random.default_rng(seed))
        expected = pf_step_per_particle(state, model, k, y, np.random.default_rng(seed + 1))
        if expected is None:
            with pytest.raises(WeightUnderflowError):
                flt.pf_step(state, model, k, y, np.random.default_rng(seed + 1))
            return
        got = flt.pf_step(state, model, k, y, np.random.default_rng(seed + 1))
        np.testing.assert_array_equal(got.particles, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_particle_reference_on_growth_model(self, seed):
        model = benchmark_model()
        rng = np.random.default_rng(seed)
        _, obs = simulate_truth(model, 5, rng)
        state = flt.pf_init(model, 500, rng)
        ref_rng = np.random.default_rng(100 + seed)
        rng = np.random.default_rng(100 + seed)
        for k in range(1, 6):
            expected = pf_step_per_particle(state, model, k, obs[k - 1], ref_rng)
            state = flt.pf_step(state, model, k, obs[k - 1], rng)
            np.testing.assert_array_equal(state.particles, expected)

    def test_constant_observation_model_keeps_every_particle(self):
        # uniform likelihood: systematic resampling keeps each moved particle
        model = constant_observation_model()
        state = flt.pf_init(model, 40, np.random.default_rng(6))
        out = flt.pf_step(state, model, 1, -4.0, np.random.default_rng(7))
        draws = np.random.default_rng(7).normal(0.0, 1.0, 40)
        np.testing.assert_array_equal(out.particles, 0.8 * state.particles + draws)

    def test_tracks_kalman_mean_over_runs(self):
        # linear-Gaussian: PF average at the final step is unbiased for the
        # Kalman mean; check within 3 Monte-Carlo standard errors
        a, c, q, r, p0 = 0.9, 1.0, 1.0, 1.0, 1.0
        model = linear_model(a=a, c=c, q=q, r=r, m0=0.0, p0=p0)
        n_runs, steps = 200, 20
        errors = []
        for run in range(n_runs):
            rng = np.random.default_rng(1000 + run)
            truth, obs = simulate_truth(model, steps, rng)
            means, _ = kalman_filter(obs, a, c, q, r, 0.0, p0)
            state = flt.pf_init(model, 100, rng)
            for k in range(1, steps + 1):
                state = flt.pf_step(state, model, k, obs[k - 1], rng)
            errors.append(flt.estimate(state) - means[-1])
        errors = np.asarray(errors)
        stderr = errors.std(ddof=1) / math.sqrt(n_runs)
        assert abs(errors.mean()) <= 3.0 * stderr


class TestSystematicResample:
    def test_uniform_weights_identity_multiset(self):
        for u0 in (0.0, 0.31, 0.97):
            idx = flt.systematic_resample(np.full(6, 1.0 / 6.0), 6, u0)
            np.testing.assert_array_equal(np.sort(idx), np.arange(6))

    def test_exact_proportionality(self):
        idx = flt.systematic_resample([0.5, 0.5], 4, 0.2)
        np.testing.assert_array_equal(np.bincount(idx, minlength=2), [2, 2])

    def test_degenerate_weight_takes_all(self):
        idx = flt.systematic_resample([1.0, 0.0, 0.0], 5, 0.6)
        np.testing.assert_array_equal(idx, np.zeros(5))

    def test_offspring_counts_deterministic_in_u0(self):
        w = [0.25, 0.35, 0.4]
        one = flt.systematic_resample(w, 10, 0.123)
        two = flt.systematic_resample(w, 10, 0.123)
        np.testing.assert_array_equal(one, two)

    def test_unbiased_offspring_counts(self):
        w = np.array([0.08, 0.12, 0.2, 0.25, 0.35])
        n_out, trials = 10, 20000
        rng = np.random.default_rng(5)
        counts = np.zeros((trials, w.size))
        for t in range(trials):
            idx = flt.systematic_resample(w, n_out, rng.random())
            counts[t] = np.bincount(idx, minlength=w.size)
        for i in range(w.size):
            stderr = counts[:, i].std(ddof=1) / math.sqrt(trials)
            assert abs(counts[:, i].mean() - n_out * w[i]) <= 3.0 * max(stderr, 1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            flt.systematic_resample([], 3, 0.5)
        with pytest.raises(ValueError):
            flt.systematic_resample([0.4, 0.4], 3, 0.5)
        with pytest.raises(ValueError):
            flt.systematic_resample([0.5, 0.5], 3, 1.0)

    @pytest.mark.parametrize("n_out", [3, 2000])
    @pytest.mark.parametrize(
        "weights",
        [
            [np.nan, 0.5, 0.5], [-0.5, 1.5], [np.inf, -np.inf, 1.0],
            [0.5, 0.5, np.nan], [0.5, 0.5, -np.inf], [0.5, 0.5, -0.0, -1e-300],
        ],
    )
    def test_rejects_nan_infinite_or_negative_weights(self, weights, n_out):
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            flt.systematic_resample(weights, n_out, 0.5)

    @pytest.mark.parametrize("n_out", [3, 2000])
    def test_rejects_infinite_weight_by_its_sum(self, n_out):
        with pytest.raises(ValueError, match=r"^weights sum to np.float64\(inf\), expected 1$"):
            flt.systematic_resample([0.5, 0.5, np.inf], n_out, 0.5)

    @pytest.mark.parametrize("n_out", [2, 2000])
    @pytest.mark.parametrize("weights", [[[0.5, 0.5]], [[0.5], [0.5]], 1.0])
    def test_rejects_weights_that_are_not_1d(self, weights, n_out):
        # [[0.5, 0.5]] once returned all zeros and never drew index 1
        with pytest.raises(ValueError, match="weights must be a nonempty 1-D array"):
            flt.systematic_resample(weights, n_out, 0.3)

    @pytest.mark.parametrize("n_out", [3, 1500])
    def test_position_rounding_to_one_takes_last_index(self, n_out):
        u0 = 1.0 - 2.0**-53
        assert (u0 + (n_out - 1)) / n_out == 1.0
        idx = flt.systematic_resample([0.5, 0.5], n_out, u0)
        assert idx[-1] == 1
        np.testing.assert_array_equal(idx, resample_oracle([0.5, 0.5], n_out, u0))

    @settings(max_examples=200, deadline=None)
    @given(case=resample_cases())
    def test_equals_pointer_walk_oracle(self, case):
        weights, n_out, u0 = case
        got = flt.systematic_resample(weights, n_out, u0)
        expected = resample_oracle(weights, n_out, u0)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestUkf:
    def test_equals_kalman_on_linear_model(self):
        a, c, q, r, m0, p0 = 0.7, 2.0, 0.8, 1.3, 0.5, 2.0
        model = linear_model(a=a, c=c, q=q, r=r, m0=m0, p0=p0)
        rng = np.random.default_rng(9)
        _, obs = simulate_truth(model, 50, rng)
        means, variances = kalman_filter(obs, a, c, q, r, m0, p0)
        state = flt.ukf_init(model)
        for k in range(1, 51):
            state = flt.ukf_step(state, model, k, obs[k - 1])
            assert abs(state.mean - means[k - 1]) <= 1e-8
            assert abs(state.variance - variances[k - 1]) <= 1e-8

    def test_uninformative_measurement_keeps_prediction(self):
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: x + v,
            observation=lambda x, k: 3.0,  # independent of the state
            process_noise=flt.GaussianSpec(0.0, 0.5),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(1.0, 2.0),
        )
        state = flt.ukf_step(flt.ukf_init(model), model, 1, -17.0)
        assert state.mean == pytest.approx(1.0, abs=1e-12)
        assert state.variance == pytest.approx(2.5, abs=1e-12)

    def test_zero_innovation_keeps_predicted_mean(self):
        model = linear_model(a=1.0, c=1.0, q=0.5, r=1.0, m0=1.7, p0=1.0)
        state = flt.ukf_step(flt.ukf_init(model), model, 1, 1.7)
        assert state.mean == pytest.approx(1.7, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["growth", "linear"])
    def test_equals_list_form_oracle_bit_for_bit(self, kind, seed):
        if kind == "growth":
            model = benchmark_model()
        else:
            model = linear_model(a=0.7, c=2.0, q=0.8, r=1.3, m0=0.5, p0=2.0)
        _, obs = simulate_truth(model, 50, np.random.default_rng(seed))
        state = flt.ukf_init(model)
        mean, variance = state.mean, state.variance
        for k in range(1, 51):
            state = flt.ukf_step(state, model, k, obs[k - 1])
            mean, variance = ukf_oracle(mean, variance, model, k, obs[k - 1])
            assert (state.mean, state.variance) == (mean, variance)

    def test_overflowing_moments_are_divergence(self):
        # finite sigma points whose squared spread overflows
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: 1e200 * x + v,
            observation=lambda x, k: x,
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(0.0, 1.0),
        )
        with pytest.raises(FilterDivergenceError, match="step 2"):
            flt.ukf_step(flt.ukf_init(model), model, 2, 0.3)


class TestNonFiniteModelOutput:
    # one model function returns NaN or inf for part of its input; every
    # filter reports it as divergence naming the function and the step

    def model(self, broken):
        good = {"transition": lambda x, k, v: 0.9 * x + v, "observation": lambda x, k: x}
        bad = {
            "transition": lambda x, k, v: np.where(x > -50.0, np.inf, 0.9 * x + v),
            "observation": lambda x, k: np.where(x > -50.0, np.nan, x),
        }
        good[broken] = bad[broken]
        return flt.ScalarStateModel(
            transition=good["transition"],
            observation=good["observation"],
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(0.0, 1.0),
        )

    @pytest.mark.parametrize("broken", ["transition", "observation"])
    def test_pdef(self, broken):
        model = self.model(broken)
        cfg = flt.PdefConfig(grid_nodes=40, state_quantiles=4)
        noise = flt.gaussian_quantile_points(4, 1.0)
        with pytest.raises(FilterDivergenceError, match=f"model {broken} .* step 3"):
            flt.pdef_step(flt.pdef_init(model, cfg), model, noise, 3, 0.2, cfg)

    @pytest.mark.parametrize("broken", ["transition", "observation"])
    def test_pf(self, broken):
        model = self.model(broken)
        state = flt.pf_init(model, 50, np.random.default_rng(0))
        with pytest.raises(FilterDivergenceError, match=f"model {broken} .* step 3"):
            flt.pf_step(state, model, 3, 0.2, np.random.default_rng(1))

    @pytest.mark.parametrize("broken", ["transition", "observation"])
    def test_ukf(self, broken):
        model = self.model(broken)
        with pytest.raises(FilterDivergenceError, match=f"model {broken} .* step 3"):
            flt.ukf_step(flt.ukf_init(model), model, 3, 0.2)


class Tagged(np.ndarray):
    """An ndarray subclass, which model_output converts to a plain array."""


class TestModelOutput:
    # an exact-shape float64 array is returned as it is; every other output
    # is converted and broadcast; both are checked from their extremes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["exact", "converted"])
    def test_non_finite_anywhere_is_divergence(self, bad, where, dtype):
        value = np.linspace(-1.0, 1.0, 7).astype(dtype)
        value[where] = bad
        with pytest.raises(
            FilterDivergenceError, match="^model transition returned a non-finite value at step 5$"
        ):
            dn.model_output("transition", value, (7,), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_broadcast_is_divergence(self, bad):
        for value in (bad, np.array([bad])):
            with pytest.raises(
                FilterDivergenceError, match="^model observation .* at step 2$"
            ):
                dn.model_output("observation", value, (4,), 2)

    def test_exact_float64_array_is_returned_as_it_is(self):
        value = np.array([1.0, -2.0, 3.5])
        value.setflags(write=False)
        assert dn.model_output("transition", value, (3,), 1) is value

    @pytest.mark.parametrize(
        "value",
        [
            np.array([1.0, -2.0, 3.5], dtype=np.float32),
            np.array([1, -2, 3]),
            np.array([1.0, -2.0, 3.5]).view(Tagged),
            np.array([1.0, -2.0, 3.5], dtype=">f8"),
        ],
        ids=["float32", "int", "subclass", "big-endian"],
    )
    def test_other_arrays_come_back_as_float64(self, value):
        out = dn.model_output("transition", value, (3,), 1)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (3,)
        np.testing.assert_array_equal(out, np.asarray(value, dtype=float))

    @pytest.mark.parametrize("value", [2.5, 2, np.float32(2.5), np.array([2.5]), np.array(2.5)])
    def test_scalar_and_size_one_outputs_are_broadcast(self, value):
        out = dn.model_output("observation", value, (4,), 1)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (4,)
        np.testing.assert_array_equal(out, np.full(4, float(np.asarray(value).item())))

    @pytest.mark.parametrize(
        "value, got",
        [
            (np.array([2.5]), r"ndarray of shape \(1,\)"),
            ([2.5], r"list of shape \(1,\)"),
            (np.zeros((1, 1)), r"ndarray of shape \(1, 1\)"),
            (None, r"NoneType of shape \(\)"),
            (np.array(2.5, dtype=object), r"ndarray of shape \(\)"),
        ],
        ids=["size-1-array", "list", "2-d", "none", "0-d-object"],
    )
    def test_scalar_call_refuses_other_outputs_naming_them(self, value, got):
        # float() stopped on these with a bare TypeError naming neither the
        # model function nor the step
        message = f"^model transition returned {got} at step 6, expected shape \\(\\)$"
        with pytest.raises(ValueError, match=message):
            dn.model_output("transition", value, (), 6)

    @pytest.mark.parametrize(
        "value", [2.5, 2, np.float32(2.5), np.float64(2.5), np.array(2.5), Fraction(5, 2)], ids=repr
    )
    def test_scalar_call_takes_real_numbers_and_0d_arrays(self, value):
        out = dn.model_output("transition", value, (), 1)
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize(
        "value, got",
        [
            ("3.5", r"str of shape \(\)"),
            (b"3.5", r"bytes of shape \(\)"),
            (np.str_("3.5"), r"str_ of shape \(\)"),
            (np.array("3.5"), r"ndarray of shape \(\)"),
            (True, r"bool of shape \(\)"),
            (np.bool_(False), r"bool of shape \(\)"),
            (np.array(True), r"ndarray of shape \(\)"),
            (np.array("3.5", dtype=object), r"ndarray of shape \(\)"),
        ],
        ids=["str", "bytes", "numpy-str", "0-d-str", "bool", "numpy-bool", "0-d-bool",
             "0-d-object-str"],
    )
    def test_scalar_call_refuses_strings_and_bools(self, value, got):
        # float() parsed "3.5" and took True as 1.0
        message = f"^model transition returned {got} at step 1, expected shape \\(\\)$"
        with pytest.raises(ValueError, match=message):
            dn.model_output("transition", value, (), 1)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_output_beyond_the_float_range_is_refused_naming_it(self, shape):
        # float() stopped on 10**400 with a bare OverflowError
        message = r"^model transition returned int of shape \(\) at step 2, expected shape "
        with pytest.raises(ValueError, match=message):
            dn.model_output("transition", 10**400, shape, 2)

    @pytest.mark.parametrize(
        "value, got",
        [
            (["1", "2", "3"], r"list of shape \(3,\)"),
            (np.array(["1", "2", "3"]), r"ndarray of shape \(3,\)"),
            (np.array([b"1", b"2", b"3"]), r"ndarray of shape \(3,\)"),
            ("2", r"str of shape \(\)"),
            ([True, False, True], r"list of shape \(3,\)"),
            (np.array([True, False, True]), r"ndarray of shape \(3,\)"),
            (True, r"bool of shape \(\)"),
            ([1.0, True, 2.0], r"list of shape \(3,\)"),
            (np.array([1.0, "2", 3], dtype=object), r"ndarray of shape \(3,\)"),
        ],
        ids=["str-list", "str-array", "bytes-array", "str", "bool-list", "bool-array", "bool",
             "mixed-bool-list", "object-array-with-str"],
    )
    def test_array_call_refuses_strings_and_bools(self, value, got):
        # these became float arrays, the strings parsed and the bools 0 and 1
        message = f"^model observation returned {got} at step 3, expected shape \\(3,\\)$"
        with pytest.raises(ValueError, match=message):
            dn.model_output("observation", value, (3,), 3)

    @pytest.mark.parametrize(
        "value, got",
        [
            ([1.0, -2.0, 3.5], r"list of shape \(3,\)"),
            ((1.0, -2.0, 3.5), r"tuple of shape \(3,\)"),
            (np.array([1.0, -2.0, 3.5], dtype=object), r"ndarray of shape \(3,\)"),
            (np.array([1 + 2j, 3, 4]), r"ndarray of shape \(3,\)"),
        ],
        ids=["float-list", "tuple", "object-array", "complex-array"],
    )
    def test_array_call_refuses_lists_complex_and_object_arrays(self, value, got):
        # an array's dtype must be an integer's or a float's: these were
        # converted, the complex one dropping its imaginary part with a
        # ComplexWarning; a list is refused whole, since np.asarray would
        # take a bool among its numbers as 1.0
        message = f"^model observation returned {got} at step 3, expected shape \\(3,\\)$"
        with pytest.raises(ValueError, match=message):
            dn.model_output("observation", value, (3,), 3)

    @pytest.mark.parametrize(
        "value, got",
        [
            (np.zeros(4), r"ndarray of shape \(4,\)"),
            ([1.0, 2.0], r"list of shape \(2,\)"),
            (np.zeros((2, 3)), r"ndarray of shape \(2, 3\)"),
        ],
        ids=["longer", "shorter-list", "2-d"],
    )
    def test_array_call_refuses_an_output_that_does_not_broadcast(self, value, got):
        # numpy's broadcast error named neither the model function nor the step
        message = f"^model observation returned {got} at step 2, expected shape \\(3,\\)$"
        with pytest.raises(ValueError, match=message):
            dn.model_output("observation", value, (3,), 2)

    @pytest.mark.parametrize("name", ["pdef", "pf", "ukf"])
    def test_filters_refuse_an_output_of_the_wrong_shape(self, name):
        # one entry too many: shape (2,) for the UKF's scalar calls, n + 1
        # entries for an array of n
        model = flt.ScalarStateModel(
            transition=lambda x, k, v: 0.9 * x + v,
            observation=lambda x, k: np.append(x, 0.0),
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(0.0, 1.0),
        )
        cfg = flt.PdefConfig(grid_nodes=40, state_quantiles=4)
        steps = {
            "pdef": (lambda: flt.pdef_step(
                flt.pdef_init(model, cfg), model, flt.gaussian_quantile_points(4, 1.0),
                3, 0.2, cfg,
            ), "41,", "40,"),
            "pf": (lambda: flt.pf_step(
                flt.pf_init(model, 20, np.random.default_rng(0)), model, 3, 0.2,
                np.random.default_rng(1),
            ), "21,", "20,"),
            "ukf": (lambda: flt.ukf_step(flt.ukf_init(model), model, 3, 0.2), "2,", ""),
        }
        step, got, expected = steps[name]
        message = (
            f"^model observation returned ndarray of shape \\({got}\\) at step 3, "
            f"expected shape \\({expected}\\)$"
        )
        with pytest.raises(ValueError, match=message):
            step()

    def test_read_only_model_arrays_run_through_pf_and_pdef_unchanged(self):
        returned = []

        def frozen(a):
            a = np.array(a, dtype=float)
            a.setflags(write=False)
            returned.append((a, a.copy()))
            return a

        model = flt.ScalarStateModel(
            transition=lambda x, k, v: frozen(0.9 * x + v),
            observation=lambda x, k: frozen(x * x / 20.0),
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(0.0, 1.0),
        )
        rng = np.random.default_rng(4)
        pf = flt.pf_init(model, 50, rng)
        cfg = flt.PdefConfig(grid_nodes=40, state_quantiles=4)
        pdef = flt.pdef_init(model, cfg)
        noise = flt.gaussian_quantile_points(4, 1.0)
        for k in (1, 2):
            pf = flt.pf_step(pf, model, k, 0.4, rng)
            pdef = flt.pdef_step(pdef, model, noise, k, 0.4, cfg)
        assert len(returned) == 8
        for array, before in returned:
            np.testing.assert_array_equal(array, before)


class TestNonFiniteObservation:
    # NaN and infinities, then values that are not a real number: a string,
    # bools and arrays (float() took the string and the bools, and stopped
    # on the 1-element array with numpy's TypeError)
    @pytest.mark.parametrize(
        "y_k",
        [np.nan, np.inf, -np.inf, "0.3", True, np.bool_(False), np.array([0.3]), np.array(0.3)],
    )
    @pytest.mark.parametrize("name", ["pdef", "pf", "ukf"])
    def test_rejected_before_any_model_call(self, name, y_k):
        def never(*args):
            raise AssertionError("model called")

        model = flt.ScalarStateModel(
            transition=never,
            observation=never,
            process_noise=flt.GaussianSpec(0.0, 1.0),
            obs_noise=flt.GaussianSpec(0.0, 1.0),
            initial=flt.GaussianSpec(0.0, 1.0),
        )
        cfg = flt.PdefConfig(grid_nodes=40, state_quantiles=4)
        steps = {
            "pdef": lambda: flt.pdef_step(
                flt.pdef_init(model, cfg), model, flt.gaussian_quantile_points(4, 1.0),
                4, y_k, cfg,
            ),
            "pf": lambda: flt.pf_step(
                flt.pf_init(model, 20, np.random.default_rng(0)), model, 4, y_k,
                np.random.default_rng(1),
            ),
            "ukf": lambda: flt.ukf_step(flt.ukf_init(model), model, 4, y_k),
        }
        reason = "finite" if isinstance(y_k, float) else "a real number"
        with pytest.raises(ValueError, match=f"^observation y_k must be {reason}, got .* at step 4$"):
            steps[name]()

    @pytest.mark.parametrize(
        "y_k", [2, np.int64(2), np.float32(0.25), np.float64(0.3), Fraction(1, 3)], ids=repr
    )
    def test_real_numbers_are_taken_as_floats(self, y_k):
        model = linear_model()
        ukf = flt.ukf_init(model)
        assert flt.ukf_step(ukf, model, 1, y_k) == flt.ukf_step(ukf, model, 1, float(y_k))
        pf = flt.pf_init(model, 30, np.random.default_rng(1))
        got, want = (
            flt.pf_step(pf, model, 1, y, np.random.default_rng(2)).particles
            for y in (y_k, float(y_k))
        )
        np.testing.assert_array_equal(got, want)

    def test_observation_beyond_the_float_range_is_refused_naming_its_step(self):
        # float() stopped on 10**400 with a bare OverflowError
        model = linear_model()
        message = "^observation y_k must be a real number within the float range, got int beyond it"
        with pytest.raises(ValueError, match=message + " at step 1$"):
            flt.ukf_step(flt.ukf_init(model), model, 1, 10**400)


class TestEstimate:
    def test_grid_posterior_mean(self):
        posterior = dn.normalize(
            grid_density(64, -6.0, 10.0, lambda x: gaussian_pdf(x, 2.0, 1.0))
        )
        assert flt.estimate(flt.PdefState(posterior)) == pytest.approx(2.0, abs=1e-6)

    def test_weighted_particle_mean(self):
        # each particle of the equally weighted cloud counts 1/n
        assert flt.estimate(flt.PfState(np.array([1.0, 3.0]))) == 2.0
        assert flt.estimate(flt.PfState(np.array([1.0, 2.0, 6.0]))) == 3.0

    @pytest.mark.parametrize("n", [1, 100, 10_000])
    def test_particle_mean_is_numpy_mean_and_uniform_weighted_mean(self, n):
        particles = np.random.default_rng(n).normal(3.0, 5.0, n)
        got = flt.estimate(flt.PfState(particles))
        assert got == float(particles.mean())
        assert got == pytest.approx(float(np.full(n, 1.0 / n) @ particles), abs=1e-12)

    def test_ukf_mean_field(self):
        assert flt.estimate(flt.UkfState(4.2, 1.0)) == 4.2

    def test_rejects_unknown_state(self):
        with pytest.raises(TypeError):
            flt.estimate(object())


def growth_branches(state_points):
    model = benchmark_model()
    noise = flt.gaussian_quantile_points(4, model.process_noise.variance)
    posterior = flt.pdef_init(model, flt.PdefConfig()).posterior
    return dn.make_branches(posterior, noise, model, 1, state_points)


# (call on a generator, argument it must name, its value): each count argument that
# int() truncated or parsed, or that failed later inside numpy or statistics
NON_INTEGER_COUNTS = {
    "systematic_resample": (
        lambda rng: flt.systematic_resample([0.5, 0.5], 2.5, 0.3), "n_out", 2.5
    ),
    "SpectralGrid.build": (
        lambda rng: SpectralGrid.build(9.7, Interval(-1.0, 1.0)), "order", 9.7
    ),
    "diff_matrix": (lambda rng: diff_matrix(4.5), "order", 4.5),
    "diff_matrix cached": (lambda rng: (diff_matrix(4), diff_matrix(4.0)), "order", 4.0),
    "gauss_lobatto_nodes": (lambda rng: gauss_lobatto_nodes("4"), "order", "4"),
    "gaussian_quantile_points": (lambda rng: flt.gaussian_quantile_points(2.5, 1.0), "n", 2.5),
    "pf_init": (lambda rng: flt.pf_init(benchmark_model(), 2.5, rng), "n_particles", 2.5),
    "pf_init bool": (lambda rng: flt.pf_init(benchmark_model(), True, rng), "n_particles", True),
    "simulate_truth": (lambda rng: simulate_truth(benchmark_model(), 2.5, rng), "steps", 2.5),
    "make_branches": (lambda rng: growth_branches(2.5), "state_points", 2.5),
}


@pytest.mark.parametrize("case", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_count_is_named_before_any_draw(case):
    call, name, value = case
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(rng)
    assert rng.random() == np.random.default_rng(0).random()


class TestValidation:
    def test_ukf_state_variance(self):
        with pytest.raises(ValueError):
            flt.UkfState(0.0, 0.0)

    def test_gaussian_spec_variance(self):
        with pytest.raises(ValueError):
            flt.GaussianSpec(0.0, -1.0)

    def test_noise_quantization_rejects_non_finite_points(self):
        # the noise points are a plain array; the branches built from them
        # refuse a non-finite one
        model, cfg = benchmark_model(), flt.PdefConfig()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^branch field noise_value must be finite$"):
                flt.pdef_step(flt.pdef_init(model, cfg), model, np.array([0.0, bad]), 1, 0.5, cfg)

    def test_pf_state_rejects_non_finite_particles(self):
        with pytest.raises(ValueError, match="particles must be finite"):
            flt.PfState([1.0, math.inf])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 50, 99])
    def test_pf_state_rejects_a_non_finite_particle_anywhere(self, bad, where):
        particles = np.linspace(-3.0, 3.0, 100)
        particles[where] = bad
        with pytest.raises(ValueError, match="^particles must be finite$"):
            flt.PfState(particles)

    @pytest.mark.parametrize("particles", [[], [[1.0, 2.0]], 1.0])
    def test_pf_state_rejects_an_empty_or_non_1d_cloud(self, particles):
        with pytest.raises(ValueError, match="particles must be a nonempty 1-D array"):
            flt.PfState(particles)

    def test_pf_state_particles_are_read_only(self):
        state = flt.PfState([1.0, 2.0])
        with pytest.raises(ValueError):
            state.particles[0] = 3.0

    def test_gaussian_spec_rejects_non_finite_mean(self):
        with pytest.raises(ValueError, match="mean must be finite"):
            flt.GaussianSpec(math.nan, 1.0)

    def test_gaussian_spec_rejects_non_finite_variance(self):
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            flt.GaussianSpec(0.0, math.inf)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
    def test_ukf_state_rejects_non_finite_mean(self, mean):
        with pytest.raises(ValueError, match="mean must be finite"):
            flt.UkfState(mean, 1.0)

    @pytest.mark.parametrize(
        "spec, mean, variance, name",
        [
            (flt.GaussianSpec, True, 10.0, "mean"),
            (flt.GaussianSpec, 0.0, True, "variance"),
            (flt.GaussianSpec, "0", 10.0, "mean"),
            (flt.GaussianSpec, 0.0, "10", "variance"),
            (flt.GaussianSpec, np.bool_(False), 1.0, "mean"),
            (flt.UkfState, 0.0, b"1", "variance"),
        ],
    )
    def test_spec_refuses_a_field_that_is_not_a_real_number(self, spec, mean, variance, name):
        # the bools were stored as they were; the strings stopped on a bare
        # TypeError in math.isfinite
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            spec(mean, variance)

    def test_spec_refuses_a_variance_beyond_the_float_range(self):
        # float() stopped on 10**400 with a bare OverflowError
        message = "^variance must be a real number within the float range, got int beyond it$"
        with pytest.raises(ValueError, match=message):
            flt.GaussianSpec(0.0, 10**400)

    def test_likelihood_refuses_a_variance_beyond_the_float_range(self):
        message = "^observation variance must be a real number within the float range, got int "
        with pytest.raises(ValueError, match=message):
            flt.gaussian_likelihood(0.0, [0.0], 10**400)

    @pytest.mark.parametrize("mean, variance", [(0, 2), (np.float32(0.5), np.int64(3))])
    def test_spec_takes_other_real_numbers(self, mean, variance):
        spec = flt.GaussianSpec(mean, variance)
        assert spec.mean == mean and spec.std == math.sqrt(variance)

    @pytest.mark.parametrize("variance", [True, "10", np.bool_(True)], ids=repr)
    def test_variance_arguments_refuse_what_is_not_a_real_number(self, variance):
        # gaussian_likelihood took True as 1.0; gaussian_quantile_points
        # stopped on a bare TypeError comparing 0.0 with "10"
        with pytest.raises(ValueError, match="^observation variance must be a real number, got "):
            flt.gaussian_likelihood(1.0, np.zeros(3), variance)
        with pytest.raises(ValueError, match="^variance must be a real number, got "):
            flt.gaussian_quantile_points(4, variance)

    def test_ukf_state_rejects_infinite_variance(self):
        with pytest.raises(ValueError, match="variance must be positive and finite"):
            flt.UkfState(0.0, math.inf)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_nodes", 50.5), ("grid_nodes", 50.0), ("state_quantiles", 4.5),
            ("state_quantiles", "4"), ("state_quantiles", True),
        ],
    )
    def test_pdef_config_rejects_a_non_integer_count(self, field, value):
        # grid_nodes=50.5 once ran a 50-node grid with a margin sized for
        # order 49.5; state_quantiles=4.5 stopped inside numpy
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            flt.PdefConfig(**{field: value})

    def test_pdef_config_stores_numpy_integers_as_ints(self):
        cfg = flt.PdefConfig(grid_nodes=np.int64(50), state_quantiles=np.uint8(4))
        assert cfg == flt.PdefConfig(grid_nodes=50, state_quantiles=4)
        assert type(cfg.grid_nodes) is int and type(cfg.state_quantiles) is int

    @pytest.mark.parametrize("field", ["process_noise", "obs_noise"])
    @pytest.mark.parametrize("mean", [5.0, -1e-3])
    def test_model_rejects_nonzero_noise_mean(self, field, mean):
        # every filter and the truth simulation treat both noises as
        # zero-mean, so an offset would be silently dropped
        specs = {
            "process_noise": flt.GaussianSpec(0.0, 1.0),
            "obs_noise": flt.GaussianSpec(0.0, 1.0),
            field: flt.GaussianSpec(mean, 1.0),
        }
        with pytest.raises(ValueError, match=f"{field}.mean must be 0"):
            flt.ScalarStateModel(
                transition=lambda x, k, v: x + v,
                observation=lambda x, k: x,
                initial=flt.GaussianSpec(0.0, 1.0),
                **specs,
            )
