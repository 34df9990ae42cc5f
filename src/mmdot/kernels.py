"""Kernel evaluation and gram-matrix construction.

Two normalized kernels are supported: the Gaussian (RBF) kernel
``k(x, z) = exp(-||x - z||^2 / (2 sigma^2))`` and the Kronecker delta kernel
``k(x, z) = 1 if x == z else 0``.  Both satisfy ``k(x, x) = 1`` and take
values in ``[0, 1]``, which is what the downstream estimators assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

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
    """Both sample sets by ``_as_points`` (one array if ``B is A``), rejecting
    a non-finite coordinate, an empty set and a dimension mismatch."""
    Ap = _as_points(A)
    Bp = Ap if B is A else _as_points(B)
    if not (np.isfinite(Ap).all() and (Bp is Ap or np.isfinite(Bp).all())):
        raise ValueError("sample set has non-finite entries")
    if Ap.shape[0] == 0 or Bp.shape[0] == 0:
        raise EmptyInputError("empty sample set")
    if Ap.shape[1] != Bp.shape[1]:
        raise ShapeError(f"dimension mismatch: {Ap.shape[1]} vs {Bp.shape[1]}")
    return Ap, Bp


def gram(spec: KernelSpec, A, B) -> GramMatrix:
    """Pairwise kernel evaluations ``entries[i, j] = k(A[i], B[j])``.

    When ``A`` and ``B`` are the same object only the pairs ``i < j`` are
    evaluated (scipy's ``pdist``, whose entries equal ``cdist``'s bit for
    bit), which halves the distance and ``exp`` work; they are mirrored, so
    the result is exactly symmetric bitwise with a unit diagonal.
    Delta-kernel equality is exact coordinate-wise floating-point equality.
    """
    Ap, Bp = _point_pair(A, B)
    metric = "sqeuclidean" if spec.kind == GAUSSIAN else "hamming"
    same = Bp is Ap
    D = pdist(Ap, metric) if same else cdist(Ap, Bp, metric)
    if spec.kind == GAUSSIAN:
        np.maximum(D, 0.0, out=D)
        # In place, with the rounding of np.exp(-D / (2 sigma^2)).
        np.negative(D, out=D)
        D /= 2.0 * spec.sigma**2
        K = np.exp(D, out=D)
    else:
        # The Hamming distance is the share of differing coordinates.
        K = np.equal(D, 0.0, out=D)

    if same:
        K = squareform(K, checks=False)
        np.fill_diagonal(K, 1.0)
    return GramMatrix(entries=K)


def gram_entries(G) -> np.ndarray:
    """Accept either a GramMatrix or a plain array and return the array."""
    if isinstance(G, GramMatrix):
        return G.entries
    return np.asarray(G, dtype=float)
