"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (plain series summation, textbook
closed forms) and shares no code with the package paths it checks.
"""

import itertools
import math

import numpy as np


def taylor_expm(a, tol=1e-22):
    """Matrix exponential by straight Taylor summation (convergent for the
    moderate norms used in tests)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    total = np.zeros_like(a)
    term = np.eye(n)
    k = 0
    while np.abs(term).sum() > tol:
        total = total + term
        k += 1
        term = term @ a / k
        if k > 300:
            raise RuntimeError("Taylor series failed to converge")
    return total


def complex_transport(
    generator, folded, shifts, weights, noise_shifts=(0.0,), noise_weights=(1.0,)
):
    """``sum_p sum_b noise_weights[p] weights[b] expm((shifts[b] +
    noise_shifts[p]) generator) folded[b]`` by complex exponentials.

    One complex eigendecomposition ``generator = V diag(lam) V^-1`` over the
    whole spectrum, real parts of ``lam`` included: each row of *folded* is
    taken to eigen-coordinates, rotated by ``exp(shift lam)`` and weighted,
    the rows are summed, the sum is multiplied by the noise factor and
    transformed back, and the real part is returned.
    """
    lam, vecs = np.linalg.eig(np.asarray(generator, dtype=float))
    coords = np.exp(np.outer(shifts, lam)) * (np.asarray(folded) @ np.linalg.inv(vecs).T)
    noise = np.exp(np.outer(noise_shifts, lam))
    z = (np.asarray(weights) @ coords) * (np.asarray(noise_weights) @ noise)
    return (vecs @ z).real


def kalman_filter(observations, a, c, q, r, m0, p0):
    """Closed-form scalar Kalman filter for x_k = a x_{k-1} + v, y = c x + w.

    Returns per-step posterior means and variances.
    """
    m, p = m0, p0
    means, variances = [], []
    for y in observations:
        m_pred = a * m
        p_pred = a * a * p + q
        s = c * c * p_pred + r
        gain = p_pred * c / s
        m = m_pred + gain * (y - c * m_pred)
        p = (1.0 - gain * c) * p_pred
        means.append(m)
        variances.append(p)
    return np.asarray(means), np.asarray(variances)


def grid_bayes_filter(observations, f, h, q, r, m0, p0, nodes, half_width):
    """Exact Bayes filter on a fine uniform grid (point-mass filter).

    Model: x_k = f(x_{k-1}, k) + v, y_k = h(x_k) + w, v ~ N(0, q),
    w ~ N(0, r), x_0 ~ N(m0, p0); valid for additive Gaussian noise only.
    The density lives on ``nodes`` equispaced points over
    [-half_width, half_width]; prediction is the direct Chapman-Kolmogorov
    sum with the Gaussian transition kernel, the update a pointwise
    multiplication by the likelihood (Bucy & Senne, Automatica 1971).
    ``f`` and ``h`` must accept arrays.  Returns per-step posterior means
    and variances.
    """
    x = np.linspace(-half_width, half_width, nodes)
    density = gaussian_pdf(x, m0, p0)
    means, variances = [], []
    for k, y in enumerate(observations, start=1):
        moved = np.asarray(f(x, k), dtype=float)
        kernel = gaussian_pdf(x[:, None], moved[None, :], q)
        density = kernel @ density
        misfit = (y - np.asarray(h(x), dtype=float)) ** 2
        # likelihood scaled to peak 1: the normalization below absorbs it
        density = density * np.exp(-0.5 * (misfit - misfit.min()) / r)
        mass = density.sum()
        if not mass > 0.0:
            raise RuntimeError(f"posterior mass vanished at step {k}")
        density = density / mass
        m = x @ density
        means.append(m)
        variances.append((x - m) ** 2 @ density)
    return np.asarray(means), np.asarray(variances)


def gaussian_pdf(x, mean, variance):
    return np.exp(-0.5 * (np.asarray(x) - mean) ** 2 / variance) / np.sqrt(
        2.0 * np.pi * variance
    )


def systematic_resample(weights, n_out, u0):
    """Systematic resampling by one pointer walk over the positions.

    Position ``(u0 + j) / n_out`` takes the first index whose running sum of
    weights (added left to right) exceeds it, and the last index if none
    does.  Returns the indices as an ``intp`` array.
    """
    cumulative = list(itertools.accumulate(float(w) for w in weights))
    last = len(cumulative) - 1
    indices = []
    i = 0
    for j in range(n_out):
        position = (u0 + j) / n_out
        while i < last and cumulative[i] <= position:
            i += 1
        indices.append(i)
    return np.array(indices, dtype=np.intp)


def ukf_step(mean, variance, model, k, y):
    """Augmented-state unscented Kalman step on Python lists.

    Five sigma points at 2 standard deviations of state and process noise,
    weights 1/2 (center) and 1/8, every moment a running sum over the points
    in order, center first.  Returns the posterior ``(mean, variance)``.
    """
    weights = (0.5, 0.125, 0.125, 0.125, 0.125)
    spread_x = math.sqrt(4.0 * variance)
    spread_v = math.sqrt(4.0 * model.process_noise.variance)
    points = (mean, mean + spread_x, mean - spread_x, mean, mean)
    noises = (0.0, 0.0, 0.0, spread_v, -spread_v)
    moved = [float(model.transition(x, k, v)) for x, v in zip(points, noises)]
    predicted = [float(model.observation(x, k)) for x in moved]

    def weighted_sum(values):
        return sum(w * x for w, x in zip(weights, values))

    mean_pred = weighted_sum(moved)
    y_mean = weighted_sum(predicted)
    dx = [x - mean_pred for x in moved]
    dy = [v - y_mean for v in predicted]
    var_pred = weighted_sum([d * d for d in dx])
    innovation_var = weighted_sum([d * d for d in dy]) + model.obs_noise.variance
    cross = weighted_sum([a * b for a, b in zip(dx, dy)])
    gain = cross / innovation_var
    mean_post = mean_pred + gain * (float(y) - y_mean)
    var_post = max(var_pred - gain * gain * innovation_var, 1e-12)
    return mean_post, var_post
