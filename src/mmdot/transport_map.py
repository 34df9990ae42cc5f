"""Barycentric-projection transport maps from solved plan coefficients.

The map sends a source point ``x`` to the minimizer over ``y`` of the
conditional expected cost, where the conditional distribution over the
target samples has (unnormalized) weights ``w_j = sum_i beta[j, i] k1(x_i, x)``.
For squared-Euclidean cost the minimizer is the weighted target mean in
closed form; a model carrying a ``cost_grad`` routes through projected
averaged SGD.  Because the kernel smooths over the source samples, the map
is defined at out-of-sample ``x`` as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataio import write_json
from .errors import InvalidModelError, NumericalFailureError, ShapeError
from .kernels import KernelSpec, _as_points, gram

_WEIGHT_SUM_FLOOR = 1e-12
# The batch map evaluates the kernel of at most this many points at once,
# which bounds its m x N kernel block.
_BLOCK_ROWS = 4096
# The batch SGD map draws at most this many target indices, and computes as
# many step sizes, at once (about 32 MB together), so a block holds
# max(1, _SGD_BLOCK_DRAWS // steps) points.
_SGD_BLOCK_DRAWS = 1 << 21


@dataclass(frozen=True)
class TransportMapModel:
    """Frozen bundle needed to evaluate the barycentric map anywhere.

    Checked once, here: shapes must agree (the point sets are read by
    ``kernels._as_points``), every entry must be finite and ``beta_star``
    nonnegative (so no conditional weight is negative).  The arrays are
    stored as read-only copies.  The cost is squared Euclidean
    unless ``cost_grad(y, y_j)``, a subgradient of ``c(., y_j)`` at ``y``,
    is given; only the SGD map serves such a model.
    """

    beta_star: np.ndarray
    source_points: np.ndarray
    target_points: np.ndarray
    kernel1: KernelSpec
    cost_grad: Callable | None = None

    def __post_init__(self):
        beta = np.array(self.beta_star, dtype=float)
        if beta.ndim != 2:
            raise InvalidModelError(f"beta_star must be 2-d, got ndim={beta.ndim}")
        src = _as_points(np.array(self.source_points, dtype=float))
        tgt = _as_points(np.array(self.target_points, dtype=float))
        n, m = beta.shape
        if src.shape[0] != m:
            raise ShapeError(
                f"beta has {m} source columns but {src.shape[0]} source points"
            )
        if tgt.shape[0] != n:
            raise ShapeError(
                f"beta has {n} target rows but {tgt.shape[0]} target points"
            )
        for name, a in (("beta_star", beta), ("source_points", src),
                        ("target_points", tgt)):
            if not np.isfinite(a).all():
                raise InvalidModelError(f"{name} has non-finite entries")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.any(beta < 0):
            raise InvalidModelError("beta_star must be nonnegative")

    @property
    def target_dim(self):
        return self.target_points.shape[1]


def batch_weights(model: TransportMapModel, X):
    """Conditional weights of a batch of points, normalized to the simplex.

    A point ``x`` has weights ``w_j = sum_i beta[j, i] k1(x_i, x)``.  The
    barycentric argmin is invariant to positive scaling of the weights, so
    normalization preserves the map and makes the SGD sampling distribution
    well defined.  If every weight of a point is (numerically) zero, for
    example an out-of-sample point far from all sources under a narrow
    Gaussian kernel, its weights are uniform and flagged.

    Returns ``(W, fallback)`` with ``W`` n x N, one column per row of ``X``
    (a 1-d ``X`` is one point).  One kernel block serves the whole batch,
    but each point's weights are their own matrix-vector product and their
    own sum, so every column is bit for bit what a one-point batch returns
    (a matrix product and a column-wise sum round differently).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = model.beta_star.shape[0]
    if X.shape[0] == 0:
        return np.zeros((n, 0)), np.zeros(0, dtype=bool)
    K = gram(model.kernel1, model.source_points, X).entries  # m x N
    W = np.empty((X.shape[0], n))  # one row per point, transposed at return
    for k in range(X.shape[0]):
        W[k] = model.beta_star @ K[:, k]
    totals = W.sum(axis=1)
    fallback = totals <= _WEIGHT_SUM_FLOOR
    W[fallback] = 1.0 / n
    W /= np.where(fallback, 1.0, totals)[:, None]
    return W.T, fallback


def map_points_closed_form(model: TransportMapModel, X):
    """Vectorized closed-form map over a batch of source points.

    Returns ``(mapped, fallback_flags)`` with one row per input row.  The map
    is evaluated in factored form, ``T(x) = k(x)^T (beta^T Y) / k(x)^T
    (beta^T 1)`` with ``k(x)`` the m-vector of source-kernel values: the
    m x (d + 1) matrix ``[beta^T Y, beta^T 1]`` is built once, and each block
    of ``_BLOCK_ROWS`` points costs one m x N kernel block and one product
    with it, so memory stays bounded however many points are mapped.  A
    point whose weight total ``k(x)^T (beta^T 1)`` is at most
    ``_WEIGHT_SUM_FLOOR`` maps to the uniform target mean and is flagged, as
    in ``batch_weights``.
    """
    if model.cost_grad is not None:
        raise InvalidModelError("closed form is only valid for squared-Euclidean cost")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mapped = np.empty((X.shape[0], model.target_dim))
    fallback = np.empty(X.shape[0], dtype=bool)
    beta = model.beta_star
    Y = model.target_points
    n, d = Y.shape
    B = np.empty((beta.shape[1], d + 1))
    B[:, :d] = beta.T @ Y
    B[:, d] = beta.sum(axis=0)
    uniform_mean = np.full(n, 1.0 / n) @ Y
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        K = gram(model.kernel1, model.source_points, X[block]).entries  # m x N
        KB = K.T @ B
        totals = KB[:, d]
        flags = totals <= _WEIGHT_SUM_FLOOR
        np.divide(KB[:, :d], np.where(flags, 1.0, totals)[:, None], out=mapped[block])
        mapped[block][flags] = uniform_mean
        fallback[block] = flags
    return mapped, fallback


def default_domain_radius(model: TransportMapModel) -> float:
    """Twice the max distance of any target point from the target mean."""
    center = model.target_points.mean(axis=0)
    spread = float(np.max(np.linalg.norm(model.target_points - center, axis=1)))
    return max(2.0 * spread, 1e-12)


def _subgradients(model: TransportMapModel, y, Yj):
    """Subgradient of ``c(., Yj[k])`` at ``y[k]``, one row each."""
    if model.cost_grad is None:
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
    X,
    steps: int = 10_000,
    seed: int = 0,
    domain_radius: float | None = None,
):
    """Projected averaged SGD on the conditional expected cost of each point.

    At step ``t`` a target index is sampled with probability ``w_j``, a
    subgradient of ``c(., y_j)`` is taken at the current iterate, the step
    size is ``scale / sqrt(t)``, and the iterate is projected onto the
    Euclidean ball of ``domain_radius`` around the weighted target mean.
    The running average of the iterates is the mapped point.

    Returns ``(mapped, fallback)`` as ``map_points_closed_form`` does: one
    row per row of ``X`` (a 1-d ``X`` is one point) and the uniform-weight
    flags of ``batch_weights``, whose one call gives every row's weights.
    The rows run in lockstep, each with its own weights, its own
    ``default_rng(seed)`` index stream and its own step scale, so every row
    is bit for bit what a one-point batch returns.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    if domain_radius is None:
        domain_radius = default_domain_radius(model)
    W, fallback = batch_weights(model, X)
    rows = max(1, _SGD_BLOCK_DRAWS // steps)
    mapped = np.empty((W.shape[1], model.target_dim))
    for lo in range(0, W.shape[1], rows):
        mapped[lo:lo + rows] = _sgd_lockstep(
            model, W[:, lo:lo + rows], steps, seed, domain_radius
        )
    return mapped, fallback


def _sgd_lockstep(model, W, steps, seed, radius):
    """``map_point_sgd`` on the points whose weights are the columns of ``W``,
    advanced one step at a time."""
    Y = model.target_points
    N = W.shape[1]
    centers = np.empty((N, Y.shape[1]))
    scales = np.empty(N)
    idx = np.empty((steps, N), dtype=np.intp)
    for k in range(N):
        w = W[:, k]
        centers[k] = w @ Y
        # Scale so a unit-subgradient step at t=1 traverses a fraction of
        # the feasible ball; keeps the variance of the averaged iterate low.
        G = _subgradients(model, np.broadcast_to(centers[k], Y.shape), Y)
        grad_bound = max(float(_row_norms(G).max()), 2.0 * radius, 1e-12)
        scales[k] = radius / grad_bound
        idx[:, k] = np.random.default_rng(seed).choice(Y.shape[0], size=steps, p=w)

    # Step sizes of every step at once, one row per step: dividing by the
    # whole sqrt(t) table rounds each entry as the per-step quotient would.
    roots = np.sqrt(np.arange(1, steps + 1, dtype=float))
    rates = scales[:, None] / roots[:, None, None]  # steps x N x 1
    sqeuclidean = model.cost_grad is None
    y = centers.copy()
    avg = np.zeros_like(y)
    g = np.empty_like(y)
    dy = np.empty_like(y)
    step = np.empty_like(y)
    for t in range(1, steps + 1):
        if sqeuclidean:
            # The indices are in range, so clipping never acts; the default
            # mode would copy through a buffer.
            Y.take(idx[t - 1], axis=0, out=g, mode="clip")
            np.subtract(y, g, out=g)
            g *= 2.0
        else:
            g[:] = _subgradients(model, y, Y[idx[t - 1]])
        g *= rates[t - 1]
        y -= g
        np.subtract(y, centers, out=dy)
        nrm = _row_norms(dy)
        far = nrm > radius
        if far.any():
            y[far] = centers[far] + dy[far] * (radius / nrm[far])[:, None]
        np.subtract(y, avg, out=step)
        step /= t
        avg += step
    # A non-finite subgradient leaves the iterate non-finite from then on
    # (the projection turns an infinite iterate into NaN), and so the average.
    if not np.all(np.isfinite(avg)):
        raise NumericalFailureError("non-finite subgradient")
    return avg


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: TransportMapModel) -> dict:
    if model.cost_grad is not None:
        raise InvalidModelError("only squared-Euclidean models are serializable")
    return {
        "beta_star": model.beta_star.tolist(),
        "source_points": model.source_points.tolist(),
        "target_points": model.target_points.tolist(),
        "kernel": {"kind": model.kernel1.kind, "sigma": model.kernel1.sigma},
        "cost_kind": "sqeuclidean",
    }


def _field(doc, key, where="model"):
    if not isinstance(doc, dict):
        raise InvalidModelError(f"{where} is not a JSON object")
    if key not in doc:
        raise InvalidModelError(f"{where} has no {key!r} key")
    return doc[key]


def model_from_dict(doc: dict) -> TransportMapModel:
    kernel = _field(doc, "kernel")
    cost_kind = doc.get("cost_kind", "sqeuclidean")
    if cost_kind != "sqeuclidean":
        raise InvalidModelError(f"unknown cost kind: {cost_kind!r}")
    return TransportMapModel(
        beta_star=_field(doc, "beta_star"),
        source_points=_field(doc, "source_points"),
        target_points=_field(doc, "target_points"),
        kernel1=KernelSpec(
            kind=_field(kernel, "kind", "kernel"),
            sigma=_field(kernel, "sigma", "kernel"),
        ),
    )


def save_model(model: TransportMapModel, path) -> None:
    """Write the model as JSON through ``dataio.write_json``.

    The file is written atomically with sorted keys and a trailing newline,
    byte for byte what ``mmdot solve --emit-model`` writes.  Python's float
    repr is shortest-round-trip, so a written model reads back
    bit-identically.
    """
    write_json(path, model_to_dict(model))


def load_model(path) -> TransportMapModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
