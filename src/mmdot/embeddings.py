"""Cost matrices and the squared MMD between two samples.

The plan objective's loss term is ``<C, alpha>`` with the cost matrix
``C[i, j] = c(x_i, y_j)``: by the reproducing property that is the inner
product of the cost with the plan embedding, so no solver needs the cost's
own embedding.  ``mmd_squared`` compares the empirical mean embeddings of
two unweighted samples through their gram blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ShapeError
from .kernels import KernelSpec, gram

SQEUCLIDEAN = "sqeuclidean"
USER_SUPPLIED = "user"

#: Round-off beyond this magnitude is treated as a real inconsistency.
_NEGATIVE_TOL = 1e-12


@dataclass(frozen=True)
class CostMatrix:
    """Dense cost matrix ``entries[i, j] = c(x_i, y_j)``."""

    entries: np.ndarray
    cost_kind: str = SQEUCLIDEAN

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if not np.all(np.isfinite(e)):
            raise ValueError("cost matrix contains non-finite entries")
        if self.cost_kind == SQEUCLIDEAN and np.any(e < 0):
            raise ValueError("squared-Euclidean cost must be nonnegative")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return self.entries.shape


def cost_entries(C) -> np.ndarray:
    """Accept either a CostMatrix or a plain array and return the array."""
    if isinstance(C, CostMatrix):
        return C.entries
    return np.asarray(C, dtype=float)


def squared_euclidean_cost(X, Y) -> CostMatrix:
    """Cost matrix of pairwise squared Euclidean distances."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ShapeError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    D = cdist(X, Y, "sqeuclidean")
    np.maximum(D, 0.0, out=D)
    return CostMatrix(entries=D, cost_kind=SQEUCLIDEAN)


def mmd_squared(spec: KernelSpec, A, B) -> float:
    """Squared MMD between the empirical mean embeddings of ``A`` and ``B``.

    Expands ``||mean phi(a) - mean phi(b)||^2`` through the three gram
    blocks.  Tiny negatives from round-off are clamped to zero; larger
    negatives indicate an internal inconsistency and raise.
    """
    Kaa = gram(spec, A, A).entries
    Kbb = gram(spec, B, B).entries
    Kab = gram(spec, A, B).entries
    val = float(Kaa.mean() + Kbb.mean() - 2.0 * Kab.mean())
    if val < -_NEGATIVE_TOL:
        raise NumericalInconsistency(f"squared MMD materially negative: {val}")
    return max(val, 0.0)


class NumericalInconsistency(RuntimeError):
    """A quantity that must be nonnegative came out materially negative."""
