"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (plain series summation, textbook
closed forms) and shares no code with the package paths it checks.
"""

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
