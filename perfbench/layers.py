"""Per-layer metrics of a traced run, computed from the probe's calls and spans.

Every figure is per pass: a sum over the traced passes divided by their
number.  A ``self_s`` is a self time (span minus the child spans it covers);
counts come with their base (calls, iterations, cells, bytes).  A layer the
workload never enters reports zeros.
"""

from __future__ import annotations

import os

import numpy as np

from workloads import emd_oracle_deviation, entries, final_objective

# name -> (unit, better)
PER_LAYER = {
    "kernels.gram.calls": ("count", "lower"),
    "kernels.gram.self_s": ("s", "lower"),
    "kernels.gram.entries": ("count", "lower"),
    "embeddings.cost.calls": ("count", "lower"),
    "embeddings.cost.self_s": ("s", "lower"),
    "solvers.objective": ("1", "lower"),
    "solvers.fw.calls": ("count", "lower"),
    "solvers.fw.self_s": ("s", "lower"),
    "solvers.fw.iters": ("count", "lower"),
    "solvers.fw.s_per_iter": ("s", "lower"),
    "solvers.fw.ns_per_cell_iter": ("ns", "lower"),
    "solvers.fw.unconverged": ("count", "lower"),
    "solvers.fw.final_gap_max": ("1", "lower"),
    "solvers.fw.support_max": ("count", "lower"),
    "solvers.admm.calls": ("count", "lower"),
    "solvers.admm.self_s": ("s", "lower"),
    "solvers.admm.cycles": ("count", "lower"),
    "solvers.admm.residual_max": ("1", "lower"),
    "solvers.admm.unconverged": ("count", "lower"),
    "solvers.emd.calls": ("count", "lower"),
    "solvers.emd.self_s": ("s", "lower"),
    "solvers.emd.cells": ("count", "lower"),
    "solvers.emd.objective_dev_max": ("1", "lower"),
    "experiments.derive_beta.calls": ("count", "lower"),
    "experiments.derive_beta.self_s": ("s", "lower"),
    "experiments.derive_beta.residual_ratio_max": ("ratio", "lower"),
    "experiments.fit_plan_model.self_s": ("s", "lower"),
    "experiments.study.self_s": ("s", "lower"),
    "transport_map.map_closed.calls": ("count", "lower"),
    "transport_map.map_closed.self_s": ("s", "lower"),
    "transport_map.map_closed.points": ("count", "lower"),
    "transport_map.map_closed.fallback": ("count", "lower"),
    "transport_map.sgd.calls": ("count", "lower"),
    "transport_map.sgd.self_s": ("s", "lower"),
    "transport_map.sgd.steps": ("count", "lower"),
    "dataio.read.self_s": ("s", "lower"),
    "dataio.read.bytes": ("B", "lower"),
    "dataio.write.self_s": ("s", "lower"),
    "dataio.write.bytes": ("B", "lower"),
    "dataio.digest.self_s": ("s", "lower"),
    "dataio.digest.bytes": ("B", "lower"),
    "cli.solve.self_s": ("s", "lower"),
    "cli.map.self_s": ("s", "lower"),
    "cli.map_sgd.self_s": ("s", "lower"),
    "cli.exit_codes": ("count", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_SELF_TIMED = [name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")]


def _beta_residual_ratio(call):
    """||alpha - G1 beta^T / m||_F / ||alpha||_F of one derive_beta call."""
    alpha = np.asarray(call.args[0], dtype=float)
    G1 = entries(call.args[1])
    resid = alpha - G1 @ call.result.T / alpha.shape[0]
    return float(np.linalg.norm(resid) / np.linalg.norm(alpha))


def pass_counts(calls, exit_codes):
    """Counts and quality maxima of one pass, from the calls it made."""
    out = {name: 0.0 for name in PER_LAYER if not name.endswith(".self_s")}
    cell_iters = 0.0

    def bump(name, value=1.0):
        out[name] += value

    def peak(name, value):
        out[name] = max(out[name], value)

    for call in calls:
        layer = call.layer
        if layer + ".calls" in out:
            bump(layer + ".calls")
        if layer == "kernels.gram":
            bump("kernels.gram.entries", call.result.entries.size)
        elif layer == "solvers.fw":
            plan, trace = call.result
            bump("solvers.fw.iters", trace.iters_used)
            cell_iters += plan.alpha.size * trace.iters_used
            bump("solvers.fw.unconverged", not trace.converged)
            peak("solvers.fw.final_gap_max", float(trace.gap_or_residual_per_iter[-1]))
            peak("solvers.fw.support_max", np.count_nonzero(plan.alpha))
        elif layer == "solvers.admm":
            _, trace = call.result
            bump("solvers.admm.cycles", trace.iters_used)
            bump("solvers.admm.unconverged", not trace.converged)
            peak("solvers.admm.residual_max", float(trace.gap_or_residual_per_iter[-1]))
        elif layer == "solvers.emd":
            bump("solvers.emd.cells", entries(call.args[0]).size)
            peak("solvers.emd.objective_dev_max", emd_oracle_deviation(call))
        elif layer == "experiments.derive_beta":
            peak("experiments.derive_beta.residual_ratio_max", _beta_residual_ratio(call))
        elif layer == "transport_map.map_closed":
            bump("transport_map.map_closed.points", np.atleast_2d(call.args[1]).shape[0])
            bump("transport_map.map_closed.fallback", int(np.sum(call.result[1])))
        elif layer == "transport_map.sgd":
            bump("transport_map.sgd.steps", call.kwargs.get("steps", 10_000))
        elif layer in ("dataio.read", "dataio.write", "dataio.digest"):
            bump(layer + ".bytes", os.path.getsize(call.args[0]))
    out["solvers.objective"] = final_objective(calls)
    out["cli.exit_codes"] = float(sum(code != 0 for code in exit_codes))
    out["_cell_iters"] = cell_iters
    return out


def layer_metrics(counts, self_times, traced_walls, untraced_walls):
    """Per-pass layer metrics from per-pass counts and summed self times."""
    passes = len(traced_walls)
    metrics = {name: float(np.mean([c[name] for c in counts]))
               for name in counts[0] if not name.startswith("_")}
    for layer in _SELF_TIMED:
        metrics[layer + ".self_s"] = self_times.get(layer, 0.0) / passes
    fw_s = metrics["solvers.fw.self_s"]
    iters = metrics["solvers.fw.iters"]
    cell_iters = float(np.mean([c["_cell_iters"] for c in counts]))
    metrics["solvers.fw.s_per_iter"] = fw_s / iters if iters else 0.0
    metrics["solvers.fw.ns_per_cell_iter"] = 1e9 * fw_s / cell_iters if cell_iters else 0.0
    metrics["trace.pass_s"] = float(np.median(traced_walls))
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - float(np.median(untraced_walls))
    return {name: {"value": metrics[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
