"""Barycentric-projection transport maps from solved plan coefficients.

The map sends a source point ``x`` to the minimizer over ``y`` of the
conditional expected cost, where the conditional distribution over the
target samples has (unnormalized) weights ``w_j = sum_i beta[j, i] k1(x_i, x)``.
For squared-Euclidean cost the minimizer is the weighted target mean in
closed form; general costs route through projected averaged SGD.  Because
the kernel smooths over the source samples, the map is defined at
out-of-sample ``x`` as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataio import write_json
from .embeddings import SQEUCLIDEAN, USER_SUPPLIED
from .errors import InvalidModelError, NumericalFailureError, ShapeError
from .kernels import KernelSpec, gram

_WEIGHT_NEG_TOL = 1e-12
_WEIGHT_SUM_FLOOR = 1e-12
# The batch map evaluates the weights of at most this many points at once,
# which bounds its m x N kernel and n x N weight blocks.
_BLOCK_ROWS = 4096
# The batch SGD map draws at most this many target indices at once (about
# 32 MB), so a block holds max(1, _SGD_BLOCK_DRAWS // steps) points.
_SGD_BLOCK_DRAWS = 1 << 22


@dataclass(frozen=True)
class TransportMapModel:
    """Frozen bundle needed to evaluate the barycentric map anywhere.

    ``cost_fn(y, y_j)`` and ``cost_grad(y, y_j)`` must be supplied for
    user-defined costs; they are ignored for squared-Euclidean.
    """

    beta_star: np.ndarray
    source_points: np.ndarray
    target_points: np.ndarray
    kernel1: KernelSpec
    cost_kind: str = SQEUCLIDEAN
    cost_fn: Callable | None = None
    cost_grad: Callable | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta_star, dtype=float)
        src = np.atleast_2d(np.asarray(self.source_points, dtype=float))
        tgt = np.atleast_2d(np.asarray(self.target_points, dtype=float))
        n, m = beta.shape
        if src.shape[0] != m:
            raise ShapeError(
                f"beta has {m} source columns but {src.shape[0]} source points"
            )
        if tgt.shape[0] != n:
            raise ShapeError(
                f"beta has {n} target rows but {tgt.shape[0]} target points"
            )
        if np.any(beta < 0):
            raise InvalidModelError("beta_star must be nonnegative")
        if self.cost_kind == USER_SUPPLIED and (
            self.cost_fn is None or self.cost_grad is None
        ):
            raise InvalidModelError("user-supplied cost requires cost_fn and cost_grad")
        object.__setattr__(self, "beta_star", beta)
        object.__setattr__(self, "source_points", src)
        object.__setattr__(self, "target_points", tgt)

    @property
    def source_dim(self):
        return self.source_points.shape[1]

    @property
    def target_dim(self):
        return self.target_points.shape[1]


@dataclass(frozen=True)
class MapWeights:
    """Conditional weights on the simplex over the target samples, for one point."""

    weights: np.ndarray
    fallback_used: bool


def batch_weights(model: TransportMapModel, X):
    """Normalized conditional weights of a batch of points, one column each.

    Returns ``(W, fallback)`` with ``W`` n x N; ``fallback[k]`` flags the
    uniform fallback of ``conditional_weights`` at ``X[k]``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = model.beta_star.shape[0]
    if X.shape[0] == 0:
        return np.zeros((n, 0)), np.zeros(0, dtype=bool)
    if X.shape[1] != model.source_dim:
        raise ShapeError(
            f"point dimension {X.shape[1]} does not match sources {model.source_dim}"
        )
    K = gram(model.kernel1, model.source_points, X).entries  # m x N
    W = model.beta_star @ K  # n x N
    if np.any(W < -_WEIGHT_NEG_TOL):
        raise InvalidModelError(
            f"materially negative conditional weight: min={W.min():g}"
        )
    np.maximum(W, 0.0, out=W)
    totals = W.sum(axis=0)
    fallback = totals <= _WEIGHT_SUM_FLOOR
    W[:, fallback] = 1.0 / n
    W /= np.where(fallback, 1.0, totals)
    return W, fallback


def conditional_weights(model: TransportMapModel, x) -> MapWeights:
    """Weights ``w_j = sum_i beta[j, i] k1(x_i, x)``, normalized to the simplex.

    The barycentric argmin is invariant to positive scaling of the weights,
    so normalization is semantics-preserving and makes the SGD sampling
    distribution well defined.  If every weight is (numerically) zero, for
    example an out-of-sample point far from all sources under a narrow
    Gaussian kernel, uniform weights are used and flagged.  The batch map
    ``map_points_closed_form`` uses the same weights (``batch_weights``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    W, fallback = batch_weights(model, x[None, :])
    return MapWeights(weights=W[:, 0], fallback_used=bool(fallback[0]))


def map_point_closed_form(model: TransportMapModel, x) -> np.ndarray:
    """Weighted target mean; exact barycentric map for squared-Euclidean cost."""
    if model.cost_kind != SQEUCLIDEAN:
        raise InvalidModelError("closed form is only valid for squared-Euclidean cost")
    w = conditional_weights(model, x).weights
    return w @ model.target_points


def map_points_closed_form(model: TransportMapModel, X):
    """Vectorized closed-form map over a batch of source points.

    Returns ``(mapped, fallback_flags)`` with one row per input row.  The
    weights are evaluated ``_BLOCK_ROWS`` points at a time, so memory stays
    bounded however many points are mapped.
    """
    if model.cost_kind != SQEUCLIDEAN:
        raise InvalidModelError("closed form is only valid for squared-Euclidean cost")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mapped = np.empty((X.shape[0], model.target_dim))
    fallback = np.empty(X.shape[0], dtype=bool)
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        W, fallback[block] = batch_weights(model, X[block])
        mapped[block] = W.T @ model.target_points
    return mapped, fallback


def default_domain_radius(model: TransportMapModel) -> float:
    """Twice the max distance of any target point from the target mean."""
    center = model.target_points.mean(axis=0)
    spread = float(np.max(np.linalg.norm(model.target_points - center, axis=1)))
    return max(2.0 * spread, 1e-12)


def _subgradients(model: TransportMapModel, y, Yj):
    """Subgradient of ``c(., Yj[k])`` at ``y[k]``, one row each."""
    if model.cost_kind == SQEUCLIDEAN:
        return 2.0 * (y - Yj)
    return np.array([model.cost_grad(a, b) for a, b in zip(y, Yj)], dtype=float)


def _row_norms(D):
    """Euclidean norm of each row of ``D``.

    Each norm is one dot product, as ``np.linalg.norm`` computes it for a
    single vector, so a row's norm does not depend on the other rows.
    """
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def map_point_sgd(
    model: TransportMapModel,
    x,
    steps: int = 10_000,
    step_scale: float | None = None,
    seed: int = 0,
    domain_radius: float | None = None,
) -> np.ndarray:
    """Projected averaged SGD on the conditional expected cost.

    At step ``t`` a target index is sampled with probability ``w_j``, a
    subgradient of ``c(., y_j)`` is taken at the current iterate, the step
    size is ``step_scale / sqrt(t)``, and the iterate is projected onto the
    Euclidean ball of ``domain_radius`` around the weighted target mean.
    The running average of the iterates is returned.

    ``x`` is one point or an N x d batch (the result is then N x target
    dimension).  The rows of a batch run in lockstep, each with its own
    weights, its own ``default_rng(seed)`` index stream and, unless
    ``step_scale`` is given, its own step scale, so every row is bit for
    bit what a call on that row alone returns.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    if domain_radius is None:
        domain_radius = default_domain_radius(model)
    rows = max(1, _SGD_BLOCK_DRAWS // steps)
    out = np.empty((X.shape[0], model.target_dim))
    for lo in range(0, X.shape[0], rows):
        out[lo:lo + rows] = _sgd_lockstep(
            model, X[lo:lo + rows], steps, step_scale, seed, domain_radius
        )
    return out if x.ndim == 2 else out[0]


def _sgd_lockstep(model, X, steps, step_scale, seed, radius):
    """``map_point_sgd`` on the rows of ``X``, advanced one step at a time."""
    Y = model.target_points
    N = X.shape[0]
    centers = np.empty((N, Y.shape[1]))
    scales = np.empty(N)
    idx = np.empty((steps, N), dtype=np.intp)
    for k in range(N):
        w = conditional_weights(model, X[k]).weights
        centers[k] = w @ Y
        if step_scale is None:
            # Scale so a unit-subgradient step at t=1 traverses a fraction
            # of the feasible ball; keeps the variance of the averaged
            # iterate low.
            G = _subgradients(model, np.broadcast_to(centers[k], Y.shape), Y)
            grad_bound = max(float(_row_norms(G).max()), 2.0 * radius, 1e-12)
            scales[k] = radius / grad_bound
        else:
            scales[k] = step_scale
        idx[:, k] = np.random.default_rng(seed).choice(Y.shape[0], size=steps, p=w)

    y = centers.copy()
    avg = np.zeros_like(y)
    for t in range(1, steps + 1):
        g = _subgradients(model, y, Y[idx[t - 1]])
        y = y - (scales / np.sqrt(t))[:, None] * g
        dy = y - centers
        nrm = _row_norms(dy)
        far = nrm > radius
        if far.any():
            y[far] = centers[far] + dy[far] * (radius / nrm[far])[:, None]
        avg += (y - avg) / t
    # A non-finite subgradient leaves the iterate non-finite from then on
    # (the projection turns an infinite iterate into NaN), and so the average.
    if not np.all(np.isfinite(avg)):
        raise NumericalFailureError("non-finite subgradient")
    return avg


def conditional_objective(model: TransportMapModel, x, y) -> float:
    """Value of the conditional expected cost at candidate ``y``."""
    w = conditional_weights(model, x).weights
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if model.cost_kind == SQEUCLIDEAN:
        return float(np.sum(w * np.sum((model.target_points - y) ** 2, axis=1)))
    return float(
        sum(wj * model.cost_fn(y, yj) for wj, yj in zip(w, model.target_points))
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: TransportMapModel) -> dict:
    return {
        "beta_star": model.beta_star.tolist(),
        "source_points": model.source_points.tolist(),
        "target_points": model.target_points.tolist(),
        "kernel": {"kind": model.kernel1.kind, "sigma": model.kernel1.sigma},
        "cost_kind": model.cost_kind,
    }


def model_from_dict(doc: dict, cost_fn=None, cost_grad=None) -> TransportMapModel:
    kernel = KernelSpec(kind=doc["kernel"]["kind"], sigma=doc["kernel"]["sigma"])
    return TransportMapModel(
        beta_star=np.array(doc["beta_star"], dtype=float),
        source_points=np.array(doc["source_points"], dtype=float),
        target_points=np.array(doc["target_points"], dtype=float),
        kernel1=kernel,
        cost_kind=doc.get("cost_kind", SQEUCLIDEAN),
        cost_fn=cost_fn,
        cost_grad=cost_grad,
    )


def save_model(model: TransportMapModel, path) -> None:
    """Write the model as JSON through ``dataio.write_json``.

    The file is written atomically with sorted keys and a trailing newline,
    byte for byte what ``mmdot solve --emit-model`` writes.  Python's float
    repr is shortest-round-trip, so a written model reads back
    bit-identically.
    """
    if model.cost_kind != SQEUCLIDEAN:
        raise InvalidModelError("only squared-Euclidean models are serializable")
    write_json(path, model_to_dict(model))


def load_model(path) -> TransportMapModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
