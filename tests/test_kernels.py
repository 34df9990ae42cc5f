import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from oracles import eval_kernel

from mmdot.errors import EmptyInputError, ShapeError
from mmdot.kernels import (
    GAUSSIAN,
    KRONECKER_DELTA,
    GramMatrix,
    KernelSpec,
    gram,
    squared_euclidean_cost,
)


def gauss(sigma=1.0):
    return KernelSpec(GAUSSIAN, sigma=sigma)


DELTA = KernelSpec(KRONECKER_DELTA)


def mirrored(K):
    """``K``'s upper triangle mirrored below it, with a unit diagonal."""
    U = np.triu(K, 1)
    S = U + U.T
    np.fill_diagonal(S, 1.0)
    return S


class TestKernelSpec:
    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN)
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=-1.0)
        # An infinite bandwidth makes every Gaussian gram all ones.
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=np.inf)
        with pytest.raises(ValueError):
            KernelSpec(GAUSSIAN, sigma=-np.inf)
        # 2 sigma^2, the gram's divisor, overflows or underflows to zero.
        for sigma in (1e200, 1e-170, np.float64(1e200), np.float64(1e-170)):
            with pytest.raises(ValueError, match=r"0 < 2 sigma\^2 < inf"):
                KernelSpec(GAUSSIAN, sigma=sigma)

    @pytest.mark.parametrize("sigma", ["abc", "1.0", True, [1.0]])
    def test_gaussian_sigma_must_be_real(self, sigma):
        with pytest.raises(ValueError, match="real sigma"):
            KernelSpec(GAUSSIAN, sigma=sigma)

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
        # Integer points, so the delta kernel sees equal pairs, with signed
        # zeros, which are equal coordinates.
        A = rng.integers(-1, 2, size=(30, 2)) * rng.choice([-1.0, 1.0], size=(30, 2))
        B = rng.integers(-1, 2, size=(20, 2)) * rng.choice([-1.0, 1.0], size=(20, 2))
        D = gram(DELTA, A, B).entries
        expected = [[eval_kernel(DELTA, a, b) for b in B] for a in A]
        assert np.array_equal(D, expected)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 7.0])
    def test_gaussian_bitwise_as_negated_exponent(self, sigma):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(9, 3))
        B = rng.normal(size=(5, 3)) * 4.0
        expected = np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma**2))
        assert gram(gauss(sigma), A, B).entries.tobytes() == expected.tobytes()
        for P in (A, rng.normal(size=(61, 3))):
            sym = np.exp(-cdist(P, P, "sqeuclidean") / (2.0 * sigma**2))
            assert gram(gauss(sigma), P, P).entries.tobytes() == mirrored(sym).tobytes()

    @pytest.mark.parametrize("d", [3, 20])
    @pytest.mark.parametrize("m", [1, 2, 9, 60])
    def test_same_set_gram_is_mirrored_cdist(self, m, d):
        # A same-set gram, one cdist of the set against itself, is the
        # upper triangle of the cdist kernel mirrored, with a unit diagonal,
        # bit for bit; with a duplicate point, and for the delta kernel on
        # signed zeros.
        rng = np.random.default_rng(m)
        A = rng.normal(size=(m, d))
        A[m // 2] = A[0]
        for sigma in (0.3, 1.0, 7.0):
            sym = np.exp(-cdist(A, A, "sqeuclidean") / (2.0 * sigma**2))
            assert gram(gauss(sigma), A, A).entries.tobytes() == mirrored(sym).tobytes()
        P = rng.integers(0, 2, size=(m, d)) * rng.choice([-1.0, 1.0], size=(m, d))
        same = (cdist(P, P, "hamming") == 0.0).astype(float)
        assert gram(DELTA, P, P).entries.tobytes() == mirrored(same).tobytes()

    def test_empty_sample_set(self):
        empty, full = np.zeros((0, 2)), np.zeros((3, 2))
        for pair in ((empty, full), (full, empty)):
            with pytest.raises(EmptyInputError):
                gram(gauss(), *pair)
            with pytest.raises(EmptyInputError):
                squared_euclidean_cost(*pair)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            gram(gauss(), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_three_dimensional_sample_set_rejected(self):
        with pytest.raises(ShapeError, match="1-d or 2-d, got ndim=3"):
            gram(gauss(), np.zeros((2, 2, 1)), np.zeros((2, 2)))

    def test_tiny_sigma_gives_identity_without_overflow(self):
        # -1 / (2 sigma^2) is past the float range: -inf, whose exp is 0.
        A = np.array([[0.0], [1.0]])
        assert np.array_equal(gram(gauss(1e-160), A, A).entries, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_points_rejected(self, bad, side):
        A = [np.zeros((2, 2)), np.ones((3, 2))]
        A[side][1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gram(gauss(), *A)
        with pytest.raises(ValueError, match="non-finite"):
            squared_euclidean_cost(*A)

    def test_one_dimensional_input_promoted(self):
        # A 1-d array is m points in one dimension, for the gram and the
        # cost alike.
        a, b = np.array([0.0, 2.0]), np.array([1.0, 2.0, 4.0])
        assert gram(gauss(), a, b).entries.shape == (2, 3)
        assert np.array_equal(
            squared_euclidean_cost(a, b), squared_euclidean_cost(a[:, None], b[:, None])
        )


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


class TestCostMatrix:
    def test_squared_euclidean_cost_values(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0.0], [3.0]])
        C = squared_euclidean_cost(X, Y)
        np.testing.assert_allclose(C, [[0.0, 9.0], [1.0, 4.0]])

    def test_squared_euclidean_dim_mismatch(self):
        with pytest.raises(ShapeError):
            squared_euclidean_cost(np.zeros((2, 2)), np.zeros((2, 3)))


def test_gram_matrix_is_frozen():
    G = GramMatrix(entries=np.eye(2))
    with pytest.raises(AttributeError):
        G.entries = np.zeros((2, 2))
