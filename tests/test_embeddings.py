import numpy as np
import pytest

from oracles import mmd_squared_scalar

from mmdot.embeddings import CostMatrix, mmd_squared, squared_euclidean_cost
from mmdot.errors import ShapeError
from mmdot.kernels import GAUSSIAN, KRONECKER_DELTA, KernelSpec, eval_kernel


def gauss(sigma=1.0):
    return KernelSpec(GAUSSIAN, sigma=sigma)


class TestCostMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CostMatrix(entries=np.array([[np.inf]]))

    def test_rejects_negative_squared_euclidean(self):
        with pytest.raises(ValueError):
            CostMatrix(entries=np.array([[-1.0]]))

    def test_user_cost_may_be_negative(self):
        C = CostMatrix(entries=np.array([[-1.0]]), cost_kind="user")
        assert C.entries[0, 0] == -1.0

    def test_squared_euclidean_cost_values(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0.0], [3.0]])
        C = squared_euclidean_cost(X, Y)
        np.testing.assert_allclose(C.entries, [[0.0, 9.0], [1.0, 4.0]])

    def test_squared_euclidean_dim_mismatch(self):
        with pytest.raises(ShapeError):
            squared_euclidean_cost(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMmdSquared:
    def test_identical_sets_zero(self):
        A = np.array([[0.0], [1.0], [2.0]])
        assert mmd_squared(gauss(), A, A.copy()) == 0.0

    def test_two_singletons(self):
        # k(a,a) + k(b,b) - 2 k(a,b) with a=0, b=2, sigma=1.
        val = mmd_squared(gauss(), np.array([[0.0]]), np.array([[2.0]]))
        assert val == pytest.approx(2.0 - 2.0 * np.exp(-2.0), abs=1e-12)

    def test_matches_scalar_expansion(self):
        A = np.array([[0.0], [1.0]])
        B = np.array([[0.5]])
        spec = gauss()
        expected = mmd_squared_scalar(
            lambda a, b: eval_kernel(spec, a, b), list(A), list(B)
        )
        assert mmd_squared(spec, A, B) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(rng.integers(1, 6), 2))
            B = rng.normal(size=(rng.integers(1, 6), 2))
            ab = mmd_squared(gauss(0.5), A, B)
            ba = mmd_squared(gauss(0.5), B, A)
            assert ab == pytest.approx(ba, abs=1e-14)
            assert ab >= 0.0

    def test_delta_kernel(self):
        A = np.array([[0.0], [1.0]])
        B = np.array([[2.0]])
        # Disjoint supports: 1/m + 1/n - 0 is not right; expand: mean(Kaa)=1/2,
        # mean(Kbb)=1, cross=0.
        assert mmd_squared(KernelSpec(KRONECKER_DELTA), A, B) == pytest.approx(1.5)
