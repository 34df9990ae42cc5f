"""Cost matrices.

The plan objective's loss term is ``<C, alpha>`` with the cost matrix
``C[i, j] = c(x_i, y_j)``: by the reproducing property that is the inner
product of the cost with the plan embedding, so no solver needs the cost's
own embedding, and a cost is just that m x n array.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .kernels import _point_pair


def squared_euclidean_cost(X, Y) -> np.ndarray:
    """Cost matrix of pairwise squared Euclidean distances.

    The sample sets are read and checked as ``kernels.gram`` reads them.
    """
    D = cdist(*_point_pair(X, Y), "sqeuclidean")
    np.maximum(D, 0.0, out=D)
    return D
