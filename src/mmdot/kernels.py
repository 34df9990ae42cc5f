"""Kernel evaluation and gram-matrix construction.

Two normalized kernels are supported: the Gaussian (RBF) kernel
``k(x, z) = exp(-||x - z||^2 / (2 sigma^2))`` and the Kronecker delta kernel
``k(x, z) = 1 if x == z else 0``.  Both satisfy ``k(x, x) = 1`` and take
values in ``[0, 1]``, which is what the downstream estimators assume.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            Required (and positive) for the Gaussian kernel; ignored for the
            delta kernel.
    """

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, KRONECKER_DELTA):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == GAUSSIAN:
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("Gaussian kernel requires sigma > 0")


@dataclass(frozen=True)
class GramMatrix:
    """Dense gram matrix; rows index the first sample set, columns the second.

    When ``symmetric`` is set (both sample sets were the same object), the
    matrix is exactly symmetric bitwise and has a unit diagonal.
    """

    entries: np.ndarray
    symmetric: bool

    @property
    def shape(self):
        return self.entries.shape


def _as_points(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise ShapeError(f"sample set must be 1-d or 2-d, got ndim={A.ndim}")
    return A


def eval_kernel(spec: KernelSpec, x, z) -> float:
    """Evaluate ``k(x, z)`` for a single pair of points.

    Delta-kernel equality is exact coordinate-wise floating-point equality;
    callers needing tolerance must pre-quantize their inputs.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.shape != z.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if spec.kind == GAUSSIAN:
        d2 = float(np.sum((x - z) ** 2))
        return float(np.exp(-d2 / (2.0 * spec.sigma**2)))
    return 1.0 if np.array_equal(x, z) else 0.0


def gram(spec: KernelSpec, A, B) -> GramMatrix:
    """Pairwise kernel evaluations ``entries[i, j] = k(A[i], B[j])``.

    The symmetric flag is set iff ``A`` and ``B`` are the same object, in
    which case exact bitwise symmetry and a unit diagonal are enforced.
    """
    symmetric = A is B
    Ap = _as_points(A)
    Bp = Ap if symmetric else _as_points(B)
    if Ap.shape[0] == 0 or Bp.shape[0] == 0:
        raise EmptyInputError("empty sample set")
    if Ap.shape[1] != Bp.shape[1]:
        raise ShapeError(f"dimension mismatch: {Ap.shape[1]} vs {Bp.shape[1]}")

    if spec.kind == GAUSSIAN:
        d2 = cdist(Ap, Bp, "sqeuclidean")
        np.maximum(d2, 0.0, out=d2)
        # In place, with the rounding of np.exp(-d2 / (2 sigma^2)).
        np.negative(d2, out=d2)
        d2 /= 2.0 * spec.sigma**2
        K = np.exp(d2, out=d2)
    else:
        K = np.zeros((Ap.shape[0], Bp.shape[0]))
        for i in range(Ap.shape[0]):
            K[i] = np.all(Bp == Ap[i], axis=1)

    if symmetric:
        # Mirror the upper triangle so symmetry holds bitwise regardless of
        # how the distance kernel rounded each half.
        K = np.triu(K, 1)
        K = K + K.T
        np.fill_diagonal(K, 1.0)
    return GramMatrix(entries=K, symmetric=symmetric)


def gram_entries(G) -> np.ndarray:
    """Accept either a GramMatrix or a plain array and return the array."""
    if isinstance(G, GramMatrix):
        return G.entries
    return np.asarray(G, dtype=float)
