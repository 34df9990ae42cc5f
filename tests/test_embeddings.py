import numpy as np
import pytest

from mmdot.embeddings import squared_euclidean_cost
from mmdot.errors import ShapeError


class TestCostMatrix:
    def test_squared_euclidean_cost_values(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0.0], [3.0]])
        C = squared_euclidean_cost(X, Y)
        np.testing.assert_allclose(C, [[0.0, 9.0], [1.0, 4.0]])

    def test_squared_euclidean_dim_mismatch(self):
        with pytest.raises(ShapeError):
            squared_euclidean_cost(np.zeros((2, 2)), np.zeros((2, 3)))
