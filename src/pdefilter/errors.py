"""Exception types shared across the package."""


class SingularMatrixError(ValueError):
    """Raised when an LU factorization hits a pivot below tolerance.

    The offending pivot position is stored in ``pivot_index``.
    """

    def __init__(self, pivot_index: int, pivot: float, tol: float):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is singular to working tolerance: pivot {pivot_index} "
            f"has magnitude {abs(pivot):.3e} <= {tol:.3e}"
        )


class DomainEscapeError(RuntimeError):
    """Raised when an advected density would cross the grid boundary margin.

    Only the prior assembly's escape check raises it, when more than 1e-6
    of a branch's mass would cross; the message names the offending branch.
    The fix is almost always to widen the domain used for the prediction
    step.  A grid too coarse for any domain is refused earlier, with a
    ``ValueError`` naming ``grid_nodes``.
    """


class FilterDivergenceError(RuntimeError):
    """Raised when a posterior's total mass collapses below threshold."""


class WeightUnderflowError(RuntimeError):
    """Raised when every particle's log-likelihood exponent is beyond the
    float range (``-inf``), so no weight can be told from another."""
