"""Cost matrices.

The plan objective's loss term is ``<C, alpha>`` with the cost matrix
``C[i, j] = c(x_i, y_j)``: by the reproducing property that is the inner
product of the cost with the plan embedding, so no solver needs the cost's
own embedding, and a cost is just that m x n array.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ShapeError


def squared_euclidean_cost(X, Y) -> np.ndarray:
    """Cost matrix of pairwise squared Euclidean distances."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    D = cdist(X, Y, "sqeuclidean")
    np.maximum(D, 0.0, out=D)
    return D
