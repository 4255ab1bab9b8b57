"""Minimal dense linear algebra: norms, LU solves and the matrix
exponential that the density propagator is checked against.

Matrices are plain 2-D float64 numpy arrays in row-major order.  Every public
function validates its inputs through :func:`as_matrix`, which rejects
non-finite entries up front so NaN/Inf cannot propagate silently into a
filter run.

The exponential is a diagonal Pade approximant of fixed order 6 with scaling
and squaring: the argument is halved until its 1-norm drops to 0.5 or below,
the rational approximant is evaluated once, and the result is squared back
up.  At norm 0.5 the order-6 approximant is accurate to well below 1e-15, so
overall accuracy is governed by the squaring stage alone.  No norm-dependent
order selection is attempted; the matrices this package produces are a few
hundred rows at most and the fixed order keeps the routine easy to check
against a plain Taylor-series oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

# coefficients c_j of the degree-6 numerator of the diagonal (6,6) Pade
# approximant to exp(x); the denominator uses the same values with odd
# terms negated
_PADE6 = (1.0, 1 / 2, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280)

# scale so the argument passed to the Pade approximant has 1-norm <= this
_SCALING_TARGET = 0.5

# pivots below n * eps * max|a_ij| are treated as singular
_PIVOT_RTOL = np.finfo(float).eps


def as_matrix(a) -> np.ndarray:
    """Validate and return *a* as a 2-D float64 array with finite entries."""
    m = np.ascontiguousarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def one_norm(a) -> float:
    """Maximum absolute column sum."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=0).max())


def lu_solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Parameters
    ----------
    a : (n, n) array_like
        Square coefficient matrix, nonsingular to working tolerance.
    b : (n, m) array_like
        Right-hand side (matrix or column).

    Raises
    ------
    SingularMatrixError
        If the largest available pivot at some elimination step falls at or
        below ``n * eps * max|a|``; the error names the pivot index.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(
            f"right-hand side has {b.shape[0]} rows, expected {n}"
        )

    lu = a.copy()
    x = b.copy()
    tol = n * _PIVOT_RTOL * (float(np.abs(a).max()) if a.size else 0.0)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= tol:
            raise SingularMatrixError(k, lu[p, k], tol)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        factors = lu[k + 1:, k] / lu[k, k]
        lu[k + 1:, k] = factors
        lu[k + 1:, k + 1:] -= np.outer(factors, lu[k, k + 1:])

    x = x[perm]
    for k in range(1, n):          # forward substitution, unit lower factor
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):  # back substitution
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def expm(a) -> np.ndarray:
    """Matrix exponential by order-6 diagonal Pade with scaling and squaring."""
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got {a.shape}")

    norm = one_norm(a)
    s = 0
    if norm > _SCALING_TARGET:
        s = max(0, int(math.ceil(math.log2(norm / _SCALING_TARGET))))
    scaled = a / (2.0 ** s) if s else a

    eye = np.eye(n)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    even = _PADE6[0] * eye + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * a6
    odd = scaled @ (_PADE6[1] * eye + _PADE6[3] * a2 + _PADE6[5] * a4)
    result = lu_solve(even - odd, even + odd)
    for _ in range(s):
        result = result @ result
    return result
