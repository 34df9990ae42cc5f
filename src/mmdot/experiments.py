"""Reproducible experiment harnesses.

Three desk-scale studies:

* Gaussian-pair map evaluation: learn the plan between samples of two
  mean-zero unit-trace Gaussians, compare the barycentric map against the
  known closed-form optimal map, with an out-of-sample protocol and a
  discrete-OT (EMD) baseline that can only map in-sample points.
* Sample-complexity study: decay of the penalized objective's estimation
  error with the sample count, summarized as a log-log slope.
* Domain adaptation: transport labeled source points onto a target domain
  and score a 1-nearest-neighbor classifier on held-out target data.

Every run is a deterministic function of its inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .dataio import LabeledDataset
from .errors import DatasetError, EmptyInputError, ShapeError
from .kernels import GAUSSIAN, KernelSpec, gram, squared_euclidean_cost
from .solvers import (
    SolverConfig,
    _check_emd_size,
    derive_beta,
    solve_admm,
    solve_emd_exact,
    solve_simplified,
)
from .transport_map import TransportMapModel, map_points_closed_form


@dataclass(frozen=True)
class GaussianPair:
    """Two mean-zero (by construction) Gaussians with unit-trace covariances."""

    mean1: np.ndarray
    mean2: np.ndarray
    cov1: np.ndarray
    cov2: np.ndarray

    def __post_init__(self):
        for name in ("cov1", "cov2"):
            cov = np.asarray(getattr(self, name), dtype=float)
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError(f"{name} is not symmetric")
            if abs(np.trace(cov) - 1.0) > 1e-10:
                raise ValueError(f"{name} trace {np.trace(cov)} != 1")
            object.__setattr__(self, name, cov)

    @property
    def dim(self):
        return self.cov1.shape[0]


@dataclass
class ExperimentReport:
    """Structured record of one experiment run.

    ``records`` hold per-run raw results; ``aggregates`` are recomputable
    summaries; ``details`` carries study-specific fields (e.g. the fitted
    slope of a sample-complexity study).
    """

    kind: str
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "records": self.records,
            "aggregates": self.aggregates,
            "details": self.details,
        }


def make_gaussian_pair(d: int, seed: int) -> GaussianPair:
    """Random unit-trace covariance pair: cov = V V^T / ||V||_F.

    ``tr(V V^T) = ||V||_F^2``, so the normalization forces unit trace.
    Entries of V are i.i.d. uniform[0, 1) from a seeded generator; the
    same seed always yields a bit-identical pair.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(2):
        V = rng.random((d, d))
        cov = V @ V.T
        cov /= np.trace(cov)  # tr(V V^T) = ||V||_F^2, so this forces unit trace
        cov = 0.5 * (cov + cov.T)
        covs.append(cov)
    zero = np.zeros(d)
    return GaussianPair(mean1=zero, mean2=zero, cov1=covs[0], cov2=covs[1])


def _sym_sqrt_and_pinv_sqrt(cov, floor=1e-12):
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, 0.0)
    sq = np.sqrt(vals)
    inv = np.where(sq > floor, 1.0 / np.maximum(sq, floor), 0.0)
    return (vecs * sq) @ vecs.T, (vecs * inv) @ vecs.T


def gaussian_map_matrix(pair: GaussianPair) -> np.ndarray:
    """Linear part A of the closed-form optimal map between the pair.

    A = cov1^{-1/2} (cov1^{1/2} cov2 cov1^{1/2})^{1/2} cov1^{-1/2}, computed
    through symmetric eigendecompositions with negative eigenvalues clamped
    to zero and pseudo-inverse semantics below the 1e-12 eigenvalue floor.
    """
    s1, s1_inv = _sym_sqrt_and_pinv_sqrt(pair.cov1)
    mid = s1 @ pair.cov2 @ s1
    mid_sqrt, _ = _sym_sqrt_and_pinv_sqrt(mid)
    return s1_inv @ mid_sqrt @ s1_inv


def gaussian_ground_truth_map(pair: GaussianPair, x) -> np.ndarray:
    """Closed-form optimal map: x -> mean2 + A (x - mean1)."""
    A = gaussian_map_matrix(pair)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return pair.mean2 + A @ (x - pair.mean1)
    return pair.mean2 + (x - pair.mean1) @ A.T


def sample_gaussian(mean, cov, m, rng) -> np.ndarray:
    """Draw m points via symmetric eigendecomposition factorization.

    Robust to the rank-deficient normalized covariances (no triangular
    factorization).
    """
    vals, vecs = np.linalg.eigh(cov)
    factor = vecs * np.sqrt(np.maximum(vals, 0.0))
    return rng.standard_normal((m, cov.shape[0])) @ factor.T + mean


def _mse(pred, truth):
    return float(np.mean(np.sum((pred - truth) ** 2, axis=1)))


def fit_plan_model(X, Y, sigma, cfg: SolverConfig, method: str = "fw"):
    """Solve the plan between samples X, Y and build a transport-map model.

    With the simplex-only solver the conditional coefficients are derived
    from alpha through the gram; the consensus solver supplies them
    directly.  Returns ``(model, plan, trace, info)`` where info carries
    the gram condition numbers (reported, never thresholded; ``None`` for
    a singular gram, see ``_cond``).
    """
    kernel = KernelSpec(GAUSSIAN, sigma=sigma)
    G1 = gram(kernel, X, X)
    G2 = gram(kernel, Y, Y)
    C = squared_euclidean_cost(X, Y)
    if method == "fw":
        plan, trace = solve_simplified(C, G1, G2, cfg)
        beta = derive_beta(plan.alpha, G1.entries)
    elif method == "admm":
        plan, trace = solve_admm(C, G1, G2, cfg)
        beta = plan.beta
    else:
        raise ValueError(f"unknown method {method!r}")
    model = TransportMapModel(
        beta_star=beta, source_points=X, target_points=Y, kernel1=kernel
    )
    info = {
        "cond_G1": _cond(G1.entries),
        "cond_G2": _cond(G2.entries),
        "converged": trace.converged,
    }
    return model, plan, trace, info


def _cond(G):
    """2-norm condition number of a symmetric gram, ``None`` when singular.

    A symmetric matrix's singular values are its absolute eigenvalues, so
    this is ``np.linalg.cond`` without an SVD.  A zero eigenvalue, or a
    ratio past the float range, has no finite condition number; ``None``
    keeps the report valid JSON.
    """
    ev = np.abs(np.linalg.eigvalsh(G))
    with np.errstate(divide="ignore", over="ignore"):
        cond = ev.max() / ev.min()
    return float(cond) if np.isfinite(cond) else None


def run_gaussian_experiment(
    d: int,
    m_values,
    sigma: float,
    repeats: int,
    cfg: SolverConfig,
    oos_count: int = 200,
    method: str = "fw",
) -> ExperimentReport:
    """Gaussian-pair map-recovery study with an EMD baseline.

    One distribution pair per dimension; each repeat draws fresh in-sample
    data, while the out-of-sample points are fixed per (d, repeat) so
    estimators learned at different m are scored on the same fresh points.
    The EMD baseline maps in-sample only (each source sample goes to the
    discrete barycentric projection of the exact plan); it has no
    out-of-sample value.
    """
    if repeats < 1 or oos_count < 1:
        raise ValueError("repeats and oos_count must be >= 1")
    m_values = [int(m) for m in m_values]
    if not m_values or min(m_values) < 1:
        raise ValueError("m_values must hold at least one sample count, each >= 1")
    KernelSpec(GAUSSIAN, sigma=sigma)  # a bad sigma fails here, not per record
    _check_emd_size(max(m_values), max(m_values))
    pair = make_gaussian_pair(d, seed=cfg.seed)
    A_true = gaussian_map_matrix(pair)
    report = ExperimentReport(kind="gaussian_map")
    for rep in range(repeats):
        rng_oos = np.random.default_rng([cfg.seed, rep, 0xBEEF])
        X_oos = sample_gaussian(pair.mean1, pair.cov1, oos_count, rng_oos)
        T_oos = pair.mean2 + (X_oos - pair.mean1) @ A_true.T
        for m in m_values:
            rng = np.random.default_rng([cfg.seed, rep, m])
            X = sample_gaussian(pair.mean1, pair.cov1, m, rng)
            Y = sample_gaussian(pair.mean2, pair.cov2, m, rng)
            T_in = pair.mean2 + (X - pair.mean1) @ A_true.T
            record = {"seed": rep, "m": int(m), "d": int(d), "sigma": float(sigma)}
            try:
                model, plan, trace, info = fit_plan_model(X, Y, sigma, cfg, method)
                mapped_in, _ = map_points_closed_form(model, X)
                mapped_oos, _ = map_points_closed_form(model, X_oos)
                pi, _ = solve_emd_exact(squared_euclidean_cost(X, Y))
                emd_mapped = m * (pi @ Y)  # n = m: row-wise barycentric projection
                record.update(
                    mse_in_sample=_mse(mapped_in, T_in),
                    mse_oos=_mse(mapped_oos, T_oos),
                    emd_mse=_mse(emd_mapped, T_in),
                    failed=False,
                    **info,
                )
            except Exception as exc:  # failed runs are recorded, not fatal
                record.update(failed=True, error=str(exc))
            report.records.append(record)
    report.records.sort(key=lambda r: (r["d"], r["m"], r["seed"], r["sigma"]))
    report.aggregates = _aggregate_gaussian(report.records)
    report.details = {
        "method": method,
        "oos_count": int(oos_count),
        "repeats": int(repeats),
        "note": "emd baseline cannot map out-of-sample points",
    }
    return report


def _aggregate_gaussian(records):
    cells = {}
    for r in records:
        if r.get("failed"):
            continue
        cells.setdefault((r["d"], r["m"]), []).append(r)
    out = {}
    for (d, m), rs in sorted(cells.items()):
        entry = {}
        for key in ("mse_in_sample", "mse_oos", "emd_mse"):
            vals = np.array([r[key] for r in rs])
            entry[f"{key}_mean"] = float(vals.mean())
            entry[f"{key}_std"] = float(vals.std())
        entry["runs"] = len(rs)
        out[f"d={d},m={m}"] = entry
    return out


def run_sample_complexity_study(
    d: int,
    m_values,
    sigma: float,
    cfg: SolverConfig,
    seed: int,
    ref_multiplier: int = 8,
) -> ExperimentReport:
    """Objective-error decay versus sample count, as a log-log slope.

    The population objective is proxied by a solve at
    ``m_ref = ref_multiplier * max(m_values)``; errors are the absolute
    deviations of each per-m objective from that reference.  ``m_values``
    must hold at least two strictly increasing sample counts.
    """
    m_values = [int(m) for m in m_values]
    if len(m_values) < 2:
        raise ValueError("a slope needs at least two sample counts")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ValueError("m_values must be strictly increasing")
    if ref_multiplier < 8:
        raise ValueError("ref_multiplier must be >= 8")
    pair = make_gaussian_pair(d, seed=seed)

    def objective_at(m):
        rng = np.random.default_rng([seed, m])
        X = sample_gaussian(pair.mean1, pair.cov1, m, rng)
        Y = sample_gaussian(pair.mean2, pair.cov2, m, rng)
        kernel = KernelSpec(GAUSSIAN, sigma=sigma)
        G1 = gram(kernel, X, X)
        G2 = gram(kernel, Y, Y)
        C = squared_euclidean_cost(X, Y)
        _, trace = solve_simplified(C, G1, G2, cfg)
        return float(trace.objective_per_iter[-1]), trace.converged

    m_ref = ref_multiplier * max(m_values)
    report = ExperimentReport(kind="sample_complexity")
    g_ref, ref_converged = objective_at(m_ref)
    errors = []
    for m in m_values:
        g_m, converged = objective_at(m)
        err = abs(g_m - g_ref)
        errors.append(err)
        report.records.append(
            {
                "seed": int(seed),
                "d": int(d),
                "m": m,
                "sigma": float(sigma),
                "objective": g_m,
                "error": err,
                "converged": converged,
            }
        )
    logs = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(np.log(m_values), logs, 1)[0])
    report.details = {
        "m_values": m_values,
        "errors": [float(e) for e in errors],
        "fitted_slope": slope,
        "m_ref": int(m_ref),
        "objective_ref": g_ref,
        "ref_converged": ref_converged,
    }
    return report


def _one_nearest_neighbor(train_X, train_y, test_X):
    """1-NN with Euclidean distance; ties break to the smallest train index."""
    D = cdist(test_X, train_X)
    idx = np.argmin(D, axis=1)  # first occurrence = smallest index
    return train_y[idx]


def run_domain_adaptation(
    source: LabeledDataset,
    target_train: LabeledDataset,
    target_test: LabeledDataset,
    sigma: float,
    cfg: SolverConfig,
    oos_source: LabeledDataset | None = None,
    method: str = "fw",
) -> ExperimentReport:
    """Transport labeled source points to the target domain, score 1-NN.

    The plan is learned between source features and (unlabeled) target
    training features; source points are mapped through the closed-form
    barycentric map and a 1-NN classifier fitted on the mapped points is
    evaluated on the target test set.  If out-of-sample source points are
    given, only those are projected for the OOS score.  An empty
    ``target_test`` raises ``EmptyInputError``: no accuracy is defined on it.
    """
    dims = {
        "source": source.features.shape[1],
        "target_train": target_train.features.shape[1],
        "target_test": target_test.features.shape[1],
    }
    if oos_source is not None:
        dims["oos_source"] = oos_source.features.shape[1]
    if len(set(dims.values())) != 1:
        raise ShapeError(f"feature dimensions disagree: {dims}")
    if source.labels is None or target_test.labels is None:
        raise DatasetError("source and target_test must carry labels")
    if len(target_test) == 0:
        raise EmptyInputError("target_test has no rows to score")
    unseen = set(target_test.labels.tolist()) - set(source.labels.tolist())
    if unseen:
        raise DatasetError(f"test labels absent from source: {sorted(unseen)}")

    model, plan, trace, info = fit_plan_model(
        source.features, target_train.features, sigma, cfg, method
    )
    mapped_src, _ = map_points_closed_form(model, source.features)
    pred = _one_nearest_neighbor(mapped_src, source.labels, target_test.features)
    acc_in = float(np.mean(pred == target_test.labels))
    record = {
        "sigma": float(sigma),
        "seed": int(cfg.seed),
        "m": len(source),
        "n": len(target_train),
        "accuracy_in_sample": acc_in,
        **info,
    }
    if oos_source is not None and len(oos_source) > 0:
        if oos_source.labels is None:
            raise DatasetError("oos_source must carry labels")
        mapped_oos, _ = map_points_closed_form(model, oos_source.features)
        pred_oos = _one_nearest_neighbor(
            mapped_oos, oos_source.labels, target_test.features
        )
        record["accuracy_oos"] = float(np.mean(pred_oos == target_test.labels))
    report = ExperimentReport(kind="domain_adaptation")
    report.records.append(record)
    report.details = {"method": method}
    return report
