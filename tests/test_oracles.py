"""Checks of the reference implementations in ``_oracles`` themselves."""

import numpy as np

from pdefilter import filters as flt
from pdefilter.bench import benchmark_model, run_seed_streams, simulate_truth

from _oracles import complex_transport, grid_bayes_filter, kalman_filter, taylor_expm


# criterion 07's linear model
A, Q, R, P0 = 0.9, 1.0, 1.0, 1.0


def linear_run(seed):
    """The observations of one 50-step run of the linear model."""
    model = flt.ScalarStateModel(
        transition=lambda x, k, v: A * x + v,
        observation=lambda x, k: x,
        process_noise=flt.GaussianSpec(0.0, Q),
        obs_noise=flt.GaussianSpec(0.0, R),
        initial=flt.GaussianSpec(0.0, P0),
    )
    return simulate_truth(model, 50, np.random.default_rng(seed))[1]


def linear_grid_filter(obs):
    # the grid covers 15 sigma of the prior
    return grid_bayes_filter(
        obs, lambda x, k: A * x, lambda x: x, Q, R, 0.0, P0, nodes=1001, half_width=15.0
    )


def test_grid_bayes_equals_kalman_on_linear_model():
    worst_mean = worst_var = 0.0
    for seed in (2, 11):
        obs = linear_run(seed)
        means, variances = kalman_filter(obs, A, 1.0, Q, R, 0.0, P0)
        grid_means, grid_vars, _ = linear_grid_filter(obs)
        worst_mean = max(worst_mean, np.abs(grid_means - means).max())
        worst_var = max(worst_var, np.abs(grid_vars - variances).max())
    assert worst_mean <= 1e-8
    assert worst_var <= 1e-8


def test_grid_bayes_log_evidence_equals_kalman_innovation_density():
    # y_k ~ N(A m_{k-1}, A^2 P_{k-1} + Q + R) given y_1:k-1, with (m_0, P_0)
    # the prior; the largest step gap measured 4.3e-14 on both seeds
    worst = 0.0
    for seed in (2, 11):
        obs = linear_run(seed)
        means, variances = kalman_filter(obs, A, 1.0, Q, R, 0.0, P0)
        m = np.concatenate([[0.0], means[:-1]])
        innovation_var = A * A * np.concatenate([[P0], variances[:-1]]) + Q + R
        kalman = -0.5 * (np.log(2.0 * np.pi * innovation_var) + (obs - A * m) ** 2 / innovation_var)
        _, _, log_evidence = linear_grid_filter(obs)
        worst = max(worst, np.abs(log_evidence - kalman).max())
    assert worst <= 1e-12


def test_grid_bayes_converged_at_1001_nodes_on_benchmark():
    # the resolution criterion 02 uses, against twice as many nodes
    model = benchmark_model()
    truth_rng, _ = run_seed_streams(1, 0)
    _, obs = simulate_truth(model, 50, truth_rng)
    means = [
        grid_bayes_filter(
            obs,
            lambda x, k: model.transition(x, k, 0.0),
            lambda x: model.observation(x, 0),
            10.0, 1.0, 0.0, 10.0,
            nodes=nodes, half_width=50.0,
        )[0]
        for nodes in (1001, 2001)
    ]
    assert np.abs(means[0] - means[1]).max() <= 1e-3


def test_complex_transport_equals_taylor_exponentials():
    # a random generator with complex spectrum, two rows, three noise points
    rng = np.random.default_rng(4)
    gen = rng.normal(size=(6, 6))
    folded = rng.normal(size=(2, 6))
    shifts, weights = np.array([-0.3, 0.5]), np.array([0.4, 0.6])
    noise_shifts, noise_weights = np.array([-0.2, 0.0, 0.7]), np.array([0.3, 0.5, 0.2])
    expected = sum(
        w * u * (taylor_expm((t + n) * gen) @ row)
        for row, t, w in zip(folded, shifts, weights)
        for n, u in zip(noise_shifts, noise_weights)
    )
    got = complex_transport(gen, folded, shifts, weights, noise_shifts, noise_weights)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
