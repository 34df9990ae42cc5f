"""The four seeded workloads of the mmdot benchmark.

Each workload makes its inputs from the seed in ``setup`` and then runs one
closed-loop pass per ``run_pass`` call: one caller, each pass starting after
the previous one ended.  A pass returns an ``Outcome``: the result payload
(digested to prove passes agree), the operations attempted, the failures
seen, convergence counts and the quality figures users look at.  The output
checks that need the program's intermediate results (plans, exact-EMD
objectives) read the calls the probe kept.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

import mmdot.cli
from mmdot import experiments
from mmdot.dataio import LabeledDataset
from mmdot.solvers import SolverConfig

SIMPLEX_TOL = 1e-12
EMD_TOL = 1e-12
# Sizes of each workload; "smoke" keeps every code path at toy scale.
SIZES = {
    "full": {
        "slope_study": {"d": 5, "m_values": [25, 50], "ref_multiplier": 8},
        "gaussian_eval": {"d": 10, "m_values": [50, 100], "repeats": 3},
        "cli_roundtrip": {"d": 5, "m": 150, "fresh": 40_000, "sgd_points": 5},
        "domain_adapt_admm": {"per_class": 12},
    },
    "smoke": {
        "slope_study": {"d": 2, "m_values": [5, 10], "ref_multiplier": 8},
        "gaussian_eval": {"d": 2, "m_values": [5, 10], "repeats": 1},
        "cli_roundtrip": {"d": 2, "m": 12, "fresh": 200, "sgd_points": 2},
        "domain_adapt_admm": {"per_class": 4},
    },
}


@dataclass
class Outcome:
    """What one pass produced and what its checks found."""

    payload: bytes
    operations: int
    failures: list = field(default_factory=list)
    solves: int = 0
    converged: int = 0
    map_mse_oos: float | None = None
    accuracy: float | None = None
    exit_codes: list = field(default_factory=list)

    @property
    def digest(self):
        return hashlib.sha256(self.payload).hexdigest()


def _report_payload(report):
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def entries(a):
    return np.asarray(getattr(a, "entries", a), dtype=float)


def emd_oracle_deviation(call):
    """|objective - assignment optimum / m| for one exact-EMD call.

    With uniform marginals and m = n an optimal permutation divided by m is
    an optimal coupling (Birkhoff-von Neumann), so scipy's assignment solver
    is an independent exact oracle.
    """
    C = entries(call.args[0])
    m, n = C.shape
    if m != n:
        return math.inf
    rows, cols = linear_sum_assignment(C)
    return abs(call.result[1] - float(C[rows, cols].sum()) / m)


def check_calls(calls):
    """Checks every plan and exact-EMD result the pass produced.

    Returns ``(checks_made, failure_messages)``.
    """
    made, failures = 0, []
    for call in calls:
        if call.layer in ("solvers.fw", "solvers.admm"):
            made += 1
            alpha = call.result[0].alpha
            total = float(alpha.sum())
            if not (np.all(alpha >= 0.0) and abs(total - 1.0) <= SIMPLEX_TOL):
                failures.append(f"{call.layer}: plan off the simplex (sum {total!r})")
        elif call.layer == "solvers.emd":
            made += 1
            dev = emd_oracle_deviation(call)
            if not dev <= EMD_TOL:
                failures.append(f"solvers.emd: objective {dev:.3g} from the oracle")
    return made, failures


def final_objective(calls):
    """Mean final penalized objective of the pass's largest FW/ADMM solves.

    On slope_study this is the reference solve's ``objective_ref``; on
    cli_roundtrip it is the ``solve`` payload's ``objective``.
    """
    solves = [c for c in calls if c.layer in ("solvers.fw", "solvers.admm")]
    if not solves:
        return math.nan
    largest = max(entries(c.args[0]).size for c in solves)
    finals = [
        float(c.result[1].objective_per_iter[-1])
        for c in solves
        if entries(c.args[0]).size == largest
    ]
    return float(np.mean(finals))


def _check_finite(values, what, failures):
    for v in values:
        if not math.isfinite(v):
            failures.append(f"{what} is not finite: {v!r}")


class SlopeStudy:
    """Sample-complexity study: FW-bound, one 400x400 reference solve."""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]["slope_study"]

    def setup(self, workdir):
        # Every solve runs a fixed budget of 1200 iterations unless it closes
        # the gap to rounding (the 1e-300 target is met only at gap <= 0).
        # At the default 5000 and tol_gap 1e-10 the reference converged at
        # 2583 iterations on seed 5 (3.8 s passes against 10-11 s); at 1200
        # it ran the full budget on all of seeds 1-30.  The small m=25 and
        # m=50 solves still stop early on some seeds, at under 6% of a pass.
        self.cfg = SolverConfig(max_outer_iters=1200, tol_gap=1e-300, seed=self.seed)

    def run_pass(self, probe):
        s = self.size
        study = probe.wrap("experiments.study", experiments.run_sample_complexity_study)
        report = study(
            d=s["d"], m_values=s["m_values"], sigma=5.0, cfg=self.cfg,
            seed=self.seed, ref_multiplier=s["ref_multiplier"],
        )
        converged = [r["converged"] for r in report.records]
        converged.append(report.details["ref_converged"])
        return Outcome(
            payload=_report_payload(report),
            operations=len(converged),
            solves=len(converged),
            converged=sum(bool(c) for c in converged),
        )


class GaussianEval:
    """Gaussian map evaluation: many small FW, exact-EMD and beta fits."""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]["gaussian_eval"]

    def setup(self, workdir):
        # Every FW solve runs its full 2000-iteration budget (the gap target
        # is met only at an exact optimum): with the default stop rule the
        # pass's FW work varied 2.4-fold between seeds.
        self.cfg = SolverConfig(seed=self.seed, max_outer_iters=2000, tol_gap=1e-300)

    def run_pass(self, probe):
        s = self.size
        study = probe.wrap("experiments.study", experiments.run_gaussian_experiment)
        report = study(
            d=s["d"], m_values=s["m_values"], sigma=5.0,
            repeats=s["repeats"], cfg=self.cfg,
        )
        # The study turns exceptions into failed=True records and still
        # returns normally, so failures are read from the report itself.
        ok = [r for r in report.records if not r["failed"]]
        failures = [f"record m={r['m']} failed: {r['error']}" for r in report.records
                    if r["failed"]]
        for key in ("mse_in_sample", "mse_oos", "emd_mse"):
            _check_finite([r[key] for r in ok], key, failures)
        return Outcome(
            payload=_report_payload(report),
            operations=len(report.records),
            failures=failures,
            solves=len(report.records),
            converged=sum(bool(r["converged"]) for r in ok),
            map_mse_oos=float(np.mean([r["mse_oos"] for r in ok])) if ok else None,
        )


def write_csv(path, M):
    """Header-first numeric CSV with round-trip float text."""
    lines = [",".join(f"x{k}" for k in range(M.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in M]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class CliRoundtrip:
    """The north-star user path through ``mmdot.cli.main`` on CSV files."""

    OUTPUTS = ("plan.json", "model.json", "mapped.csv", "mapped_sgd.csv")

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]["cli_roundtrip"]

    def setup(self, workdir):
        s = self.size
        pair = experiments.make_gaussian_pair(s["d"], seed=self.seed)
        rng = np.random.default_rng([self.seed, 0xC11])
        X = experiments.sample_gaussian(pair.mean1, pair.cov1, s["m"], rng)
        Y = experiments.sample_gaussian(pair.mean2, pair.cov2, s["m"], rng)
        fresh = experiments.sample_gaussian(pair.mean1, pair.cov1, s["fresh"], rng)
        self.truth = experiments.gaussian_ground_truth_map(pair, fresh)
        self.path = {name: os.path.join(workdir, name) for name in (
            "source.csv", "target.csv", "fresh.csv", "sgd_points.csv", *self.OUTPUTS
        )}
        write_csv(self.path["source.csv"], X)
        write_csv(self.path["target.csv"], Y)
        write_csv(self.path["fresh.csv"], fresh)
        write_csv(self.path["sgd_points.csv"], fresh[: s["sgd_points"]])
        p = self.path
        self.commands = [
            ("cli.solve", ["solve", "--source", p["source.csv"],
                           "--target", p["target.csv"], "--kernel", "gaussian",
                           "--sigma", "0.5", "--out", p["plan.json"],
                           "--emit-model", p["model.json"]]),
            ("cli.map", ["map", "--model", p["model.json"],
                         "--points", p["fresh.csv"], "--out", p["mapped.csv"]]),
            ("cli.map_sgd", ["map", "--method", "sgd", "--model", p["model.json"],
                             "--points", p["sgd_points.csv"],
                             "--out", p["mapped_sgd.csv"]]),
        ]

    def run_pass(self, probe):
        codes = [probe.wrap(layer, mmdot.cli.main)(argv) for layer, argv in self.commands]
        failures = [f"{layer} exited {code}" for (layer, _), code
                    in zip(self.commands, codes) if code not in (0, 2)]
        if failures:
            return Outcome(payload=repr(codes).encode(), operations=len(codes),
                           failures=failures, solves=1, exit_codes=codes)
        digest = hashlib.sha256()
        for name in self.OUTPUTS:
            with open(self.path[name], "rb") as fh:
                digest.update(fh.read())
        mapped = read_csv(self.path["mapped.csv"])[:, : self.truth.shape[1]]
        mse = float(np.mean(np.sum((mapped - self.truth) ** 2, axis=1)))
        _check_finite([mse], "map_mse_oos", failures)
        return Outcome(
            payload=digest.digest(),
            operations=len(codes),
            failures=failures,
            solves=1,
            converged=int(codes[0] == 0),  # exit 2: solved but not converged
            map_mse_oos=mse,
            exit_codes=codes,
        )


def blobs(rng, per_class, shift):
    """Two well-separated Gaussian clusters with integer labels 0 and 1."""
    centers = np.array([(0.0, 0.0), (3.0, 3.0)]) + np.asarray(shift)
    feats = [rng.normal(scale=0.15, size=(per_class, 2)) + c for c in centers]
    labels = np.repeat([0, 1], per_class)
    return LabeledDataset(features=np.vstack(feats), labels=labels)


class DomainAdaptAdmm:
    """Domain adaptation through consensus ADMM on two shifted clusters."""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = SIZES[size]["domain_adapt_admm"]

    def setup(self, workdir):
        k = self.size["per_class"]
        rng = np.random.default_rng([self.seed, 0xDA])
        shift = (1.5, -1.0)
        self.source = blobs(rng, k, (0.0, 0.0))
        self.target_train = blobs(rng, k, shift)
        self.target_test = blobs(rng, k, shift)
        self.oos_source = blobs(rng, k, (0.0, 0.0))
        # Criterion-4 ADMM settings, but a fixed budget of 40 cycles: cycles
        # to the 1e-4 residual varied from 16 to 57 between seeds.
        self.cfg = SolverConfig(
            rho_admm=200.0, max_outer_iters=40, max_inner_iters=300,
            tol_residual=1e-300, tol_gap=1e-9, seed=self.seed,
        )

    def run_pass(self, probe):
        study = probe.wrap("experiments.study", experiments.run_domain_adaptation)
        report = study(
            self.source, self.target_train, self.target_test, sigma=0.5,
            cfg=self.cfg, oos_source=self.oos_source, method="admm",
        )
        record = report.records[0]
        return Outcome(
            payload=_report_payload(report),
            operations=1,
            solves=1,
            converged=int(bool(record["converged"])),
            accuracy=float(record["accuracy_oos"]),
        )


WORKLOADS = {
    "slope_study": SlopeStudy,
    "gaussian_eval": GaussianEval,
    "cli_roundtrip": CliRoundtrip,
    "domain_adapt_admm": DomainAdaptAdmm,
}
