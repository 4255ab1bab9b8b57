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
    The posterior is a probability per node of ``nodes`` equispaced points
    over [-half_width, half_width], the initial one the prior's density
    times the node spacing dx; prediction is the direct Chapman-Kolmogorov
    sum with the Gaussian transition kernel, which gives the predictive
    density at the nodes, the update a pointwise multiplication by the
    Gaussian likelihood (Bucy & Senne, Automatica 1971).  The evidence
    ``p(y_k | y_1:k-1)`` is dx times the sum of predictive density times
    likelihood, and dividing by it normalizes the posterior.  ``f`` and
    ``h`` must accept arrays.  Returns per-step posterior means, variances
    and log-evidences.
    """
    x = np.linspace(-half_width, half_width, nodes)
    dx = x[1] - x[0]
    posterior = gaussian_pdf(x, m0, p0) * dx
    means, variances, log_evidence = [], [], []
    for k, y in enumerate(observations, start=1):
        moved = np.asarray(f(x, k), dtype=float)
        predictive = gaussian_pdf(x[:, None], moved[None, :], q) @ posterior
        joint = predictive * gaussian_pdf(y, np.asarray(h(x), dtype=float), r) * dx
        evidence = joint.sum()
        if not evidence > 0.0:
            raise RuntimeError(f"posterior mass vanished at step {k}")
        posterior = joint / evidence
        m = x @ posterior
        means.append(m)
        variances.append((x - m) ** 2 @ posterior)
        log_evidence.append(math.log(evidence))
    return np.asarray(means), np.asarray(variances), np.asarray(log_evidence)


def gaussian_pdf(x, mean, variance):
    return np.exp(-0.5 * (np.asarray(x) - mean) ** 2 / variance) / np.sqrt(
        2.0 * np.pi * variance
    )


def gaussian_sum_prior(nodes, quad_weights, masses, starts, shifts, variances):
    """Exactly transported branch bumps summed at *nodes*: the closed form of
    the quantized-noise prior ``sum_b masses[b] g_b(x - shifts[b])``.

    Branch b's bump ``g_b`` is the Gaussian of variance ``variances[b]``
    centred on ``starts[b]`` and divided by its quadrature with
    ``quad_weights`` over the nodes, as the package normalizes a mollified
    delta before transport.  With ``masses = m_s w_p``, ``starts = x_s`` and
    ``shifts = d_s + v_p`` this is ``sum_s sum_p m_s w_p N(x; x_s + d_s +
    v_p, sigma_s^2)`` up to each bump's quadrature error.  Constant-velocity
    advection moves a bump without changing its shape, so this is what a
    spectral transport of the same bumps must approach.
    """
    x = np.asarray(nodes, dtype=float)[None, :]
    centers = np.asarray(starts, dtype=float)[:, None]
    std = np.sqrt(np.asarray(variances, dtype=float))[:, None]
    norms = np.exp(-0.5 * ((x - centers) / std) ** 2) @ np.asarray(quad_weights, dtype=float)
    moved = np.exp(-0.5 * ((x - centers - np.asarray(shifts, dtype=float)[:, None]) / std) ** 2)
    return np.asarray(masses, dtype=float) @ (moved / norms[:, None])


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
