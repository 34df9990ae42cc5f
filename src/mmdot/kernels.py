"""Kernel evaluation, gram matrices and the cost matrix: every pairwise
matrix over the samples is one ``cdist`` call over ``_point_pair``.

Two normalized kernels are supported: the Gaussian (RBF) kernel
``k(x, z) = exp(-||x - z||^2 / (2 sigma^2))`` and the Kronecker delta kernel
``k(x, z) = 1 if x == z else 0``.  Both satisfy ``k(x, x) = 1`` and take
values in ``[0, 1]``, which is what the downstream estimators assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.spatial.distance import cdist

from .errors import EmptyInputError, ShapeError

GAUSSIAN = "gaussian"
KRONECKER_DELTA = "delta"


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel defines the feature map and gram matrices.

    Args:
        kind: ``"gaussian"`` or ``"delta"``.
        sigma: Bandwidth, in the same units as the input coordinates.
            Required for the Gaussian kernel, as a finite positive real
            number (not a bool); ignored for the delta kernel.
    """

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, KRONECKER_DELTA):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == GAUSSIAN:
            s = self.sigma
            if isinstance(s, bool) or not isinstance(s, Real) or not 0 < s < np.inf:
                raise ValueError("Gaussian kernel requires a real sigma > 0")


@dataclass(frozen=True)
class GramMatrix:
    """Dense gram matrix; rows index the first sample set, columns the second."""

    entries: np.ndarray

    @property
    def shape(self):
        return self.entries.shape


def _as_points(A) -> np.ndarray:
    """The one reader of a sample set: a float array with one point per row,
    where a 1-d array is m points in one dimension.  Checks the shape only."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise ShapeError(f"sample set must be 1-d or 2-d, got ndim={A.ndim}")
    return A


def _point_pair(A, B):
    """Both sample sets by ``_as_points``, rejecting a non-finite coordinate,
    an empty set and a dimension mismatch."""
    Ap, Bp = _as_points(A), _as_points(B)
    if not (np.isfinite(Ap).all() and np.isfinite(Bp).all()):
        raise ValueError("sample set has non-finite entries")
    if Ap.shape[0] == 0 or Bp.shape[0] == 0:
        raise EmptyInputError("empty sample set")
    if Ap.shape[1] != Bp.shape[1]:
        raise ShapeError(f"dimension mismatch: {Ap.shape[1]} vs {Bp.shape[1]}")
    return Ap, Bp


def gram(spec: KernelSpec, A, B) -> GramMatrix:
    """Pairwise kernel evaluations ``entries[i, j] = k(A[i], B[j])``.

    A same-set gram is exactly symmetric bitwise with a unit diagonal: a
    squared coordinate difference is the same either way round, and a
    point's distance to itself is an exact zero.
    Delta-kernel equality is exact coordinate-wise floating-point equality.
    """
    metric = "sqeuclidean" if spec.kind == GAUSSIAN else "hamming"
    D = cdist(*_point_pair(A, B), metric)
    if spec.kind == GAUSSIAN:
        # In place, with the rounding of np.exp(-D / (2 sigma^2)).
        np.negative(D, out=D)
        D /= 2.0 * spec.sigma**2
        return GramMatrix(entries=np.exp(D, out=D))
    # The Hamming distance is the share of differing coordinates.
    return GramMatrix(entries=np.equal(D, 0.0, out=D))


def squared_euclidean_cost(X, Y) -> np.ndarray:
    """Cost matrix ``C[i, j] = ||X[i] - Y[j]||^2``, the sample sets read and
    checked as ``gram`` reads them.

    The plan objective's loss term is ``<C, alpha>``: by the reproducing
    property that is the inner product of the cost with the plan embedding,
    so no solver needs the cost's own embedding, and a cost is just this
    m x n array.
    """
    return cdist(*_point_pair(X, Y), "sqeuclidean")


def gram_entries(G) -> np.ndarray:
    """Accept either a GramMatrix or a plain array and return the array."""
    if isinstance(G, GramMatrix):
        return G.entries
    return np.asarray(G, dtype=float)
