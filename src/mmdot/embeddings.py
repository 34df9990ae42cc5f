"""Empirical embedding quantities expressible through gram matrices.

Everything here reduces to gram-matrix algebra: squared MMD between two
empirical mean embeddings, the weighted marginal residual norms used by the
regularized plan objective, and the coefficients of the cost function's
least-squares projection onto the span of the sample feature maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import IllConditionedGramError, ShapeError
from .kernels import KernelSpec, gram, gram_entries

SQEUCLIDEAN = "sqeuclidean"
USER_SUPPLIED = "user"

#: Round-off beyond this magnitude is treated as a real inconsistency.
_NEGATIVE_TOL = 1e-12

_JITTER_CAP = 1e-2
_JITTER_FLOOR = 1e-10


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


@dataclass(frozen=True)
class CostEmbeddingCoefficients:
    """Coefficients ``rho`` of the cost in the span of the sample features.

    ``G1 @ rho @ G2`` reproduces the cost matrix at the samples when the
    grams are well conditioned after the recorded jitter.
    """

    rho: np.ndarray
    jitter_used: float


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


def marginal_residuals(alpha, G1, G2):
    """Weighted squared norms of the row/column marginal residuals.

    Returns ``(r1_G, r2_G, r1_GG, r2_GG)`` where ``r1 = alpha @ 1 - 1/m``
    is measured in the ``G1`` and element-wise-squared ``G1 * G1``
    quadratic forms, and analogously for the column residual with ``G2``.
    """
    alpha = np.asarray(alpha, dtype=float)
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    m, n = alpha.shape
    if G1.shape != (m, m) or G2.shape != (n, n):
        raise ShapeError(
            f"gram shapes {G1.shape}, {G2.shape} do not match coupling {alpha.shape}"
        )
    r1 = alpha.sum(axis=1) - 1.0 / m
    r2 = alpha.sum(axis=0) - 1.0 / n
    return (
        float(r1 @ G1 @ r1),
        float(r2 @ G2 @ r2),
        float(r1 @ (G1 * G1) @ r1),
        float(r2 @ (G2 * G2) @ r2),
    )


def _spd_solve(G: np.ndarray, B: np.ndarray, jitter: float) -> np.ndarray:
    """Solve ``(G + jitter I) X = B`` via Cholesky; raises LinAlgError if not SPD."""
    A = G if jitter == 0.0 else G + jitter * np.eye(G.shape[0])
    c, low = cho_factor(A, lower=True, check_finite=False)
    return cho_solve((c, low), B, check_finite=False)


def _escalate_jitter(solve, jitter: float, what: str):
    """Return ``(solve(j), j)`` for the first jitter that factorizes.

    ``j`` escalates from ``jitter`` as ``solve_against_gram`` describes.
    """
    j = float(jitter)
    while True:
        try:
            return solve(j), j
        except np.linalg.LinAlgError:
            nxt = _JITTER_FLOOR if j == 0.0 else 10.0 * j
            if nxt > _JITTER_CAP:
                raise IllConditionedGramError(
                    f"{what} failed even at jitter {j:g} (cap {_JITTER_CAP:g})"
                ) from None
            j = nxt


def solve_against_gram(G, B, jitter: float = 0.0):
    """Solve ``G X = B`` with automatic jitter escalation.

    Starts from the requested jitter and multiplies by 10 until the SPD
    factorization succeeds, capped at 1e-2 (a requested jitter of zero first
    tries the plain solve, then escalates from 1e-10).  Returns
    ``(X, jitter_used)``.
    """
    G = gram_entries(G)
    B = np.asarray(B, dtype=float)
    return _escalate_jitter(lambda j: _spd_solve(G, B, j), jitter, "gram solve")


def cost_embedding(G1, G2, C: CostMatrix, jitter: float = 0.0) -> CostEmbeddingCoefficients:
    """Least-squares projection coefficients of the cost onto the samples.

    Solves the normal equations ``G1 @ rho @ G2 = C`` of the projection of
    the cost function onto ``span{phi1(x_i) (x) phi2(y_j)}`` via two SPD
    solves that share one jitter, escalated as in ``solve_against_gram``.
    """
    G1 = gram_entries(G1)
    G2 = gram_entries(G2)
    Cm = cost_entries(C)
    m, n = Cm.shape
    if G1.shape != (m, m) or G2.shape != (n, n):
        raise ShapeError(
            f"gram shapes {G1.shape}, {G2.shape} do not match cost {Cm.shape}"
        )

    def solve(j):
        return _spd_solve(G2, _spd_solve(G1, Cm, j).T, j).T

    rho, j = _escalate_jitter(solve, jitter, "cost embedding")
    return CostEmbeddingCoefficients(rho=rho, jitter_used=j)
