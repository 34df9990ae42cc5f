import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from mmdot.errors import EmptyInputError, ShapeError
from mmdot.kernels import (
    GAUSSIAN,
    KRONECKER_DELTA,
    GramMatrix,
    KernelSpec,
    eval_kernel,
    gram,
)


def gauss(sigma=1.0):
    return KernelSpec(GAUSSIAN, sigma=sigma)


DELTA = KernelSpec(KRONECKER_DELTA)


class TestKernelSpec:
    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN)
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("laplacian", sigma=1.0)

    def test_delta_ignores_sigma(self):
        KernelSpec(KRONECKER_DELTA)  # no sigma needed


class TestEvalKernel:
    def test_gaussian_at_identical_points(self):
        assert eval_kernel(gauss(), [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_gaussian_unit_sigma_distance_two(self):
        # exp(-4 / 2) = exp(-2)
        assert eval_kernel(gauss(), [0.0], [2.0]) == pytest.approx(
            np.exp(-2.0), abs=1e-15
        )

    def test_delta_distinct_points(self):
        assert eval_kernel(DELTA, [1.0, 2.0], [1.0, 3.0]) == 0.0

    def test_delta_equal_points(self):
        assert eval_kernel(DELTA, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            eval_kernel(gauss(), [0.0], [0.0, 1.0])

    def test_delta_equality_is_exact(self):
        # No tolerance: nextafter neighbors are distinct points.
        z = np.nextafter(1.0, 2.0)
        assert eval_kernel(DELTA, [1.0], [z]) == 0.0


class TestGram:
    def test_delta_distinct_points_is_identity(self):
        A = np.array([[0.0], [1.0], [2.0]])
        G = gram(DELTA, A, A)
        assert np.array_equal(G.entries, np.eye(3))
        assert G.symmetric

    def test_gaussian_singleton(self):
        G = gram(gauss(), np.array([[0.0]]), np.array([[0.0]]))
        assert G.entries.shape == (1, 1)
        assert G.entries[0, 0] == 1.0

    def test_gaussian_two_points(self):
        A = np.array([[0.0], [2.0]])
        G = gram(gauss(), A, A).entries
        expected = np.array([[1.0, np.exp(-2.0)], [np.exp(-2.0), 1.0]])
        np.testing.assert_allclose(G, expected, atol=1e-15)

    def test_cross_gram_matches_eval_kernel(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(3, 2))
        G = gram(gauss(0.7), A, B).entries
        for i in range(4):
            for j in range(3):
                assert G[i, j] == pytest.approx(
                    eval_kernel(gauss(0.7), A[i], B[j]), abs=1e-15
                )
        assert not gram(gauss(0.7), A, B).symmetric

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0])
    def test_gaussian_bitwise_as_negated_exponent(self, sigma):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(9, 3))
        B = rng.normal(size=(5, 3)) * 4.0
        expected = np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma**2))
        assert gram(gauss(sigma), A, B).entries.tobytes() == expected.tobytes()
        sym = np.exp(-cdist(A, A, "sqeuclidean") / (2.0 * sigma**2))
        upper = np.triu_indices(A.shape[0], 1)
        assert np.array_equal(gram(gauss(sigma), A, A).entries[upper], sym[upper])

    def test_empty_sample_set(self):
        with pytest.raises(EmptyInputError):
            gram(gauss(), np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            gram(gauss(), np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_points_rejected(self, bad, side):
        A = [np.zeros((2, 2)), np.ones((3, 2))]
        A[side][1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gram(gauss(), *A)

    def test_one_dimensional_input_promoted(self):
        G = gram(gauss(), np.array([0.0, 2.0]), np.array([0.0, 2.0]))
        assert G.entries.shape == (2, 2)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 20),
    d=st.integers(1, 10),
    sigma=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_invariants_gaussian(n, d, sigma, seed):
    A = np.random.default_rng(seed).normal(size=(n, d))
    G = gram(KernelSpec(GAUSSIAN, sigma=sigma), A, A).entries
    # Bitwise symmetry, unit diagonal, entries in [0, 1].
    assert np.array_equal(G, G.T)
    assert np.all(np.diag(G) == 1.0)
    assert np.all((G >= 0.0) & (G <= 1.0))
    vals = np.linalg.eigvalsh(G)
    assert vals[0] >= -1e-8 * vals[-1]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_gram_invariants_delta(n, seed):
    # Integer-valued points so duplicates actually occur.
    A = np.random.default_rng(seed).integers(0, 4, size=(n, 2)).astype(float)
    G = gram(DELTA, A, A).entries
    assert np.array_equal(G, G.T)
    assert np.all(np.diag(G) == 1.0)
    vals = np.linalg.eigvalsh(G)
    assert vals[0] >= -1e-8 * max(vals[-1], 1.0)


def test_gram_matrix_is_frozen():
    G = GramMatrix(entries=np.eye(2), symmetric=True)
    with pytest.raises(AttributeError):
        G.symmetric = False
