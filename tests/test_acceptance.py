"""End-to-end acceptance gate.

Each test checks one documented capability at its stated tolerance and
runtime budget, and prints a single PASS/FAIL line on the terminal (the
lines bypass pytest capture so they appear in piped output too).

Known limitation, left intentionally red: the discrete-OT reduction check
(criterion 1) demands 1e-3 absolute agreement between the penalized
program at lambda = nu = 1e3 and the exact solver on every instance.  The
penalized optimum retains an O(1/lambda) bias that exceeds 1e-3 on a
large fraction of random 3x3 integer instances even at the exact optimum
(verified against an interior-point solver).  The solver reaches that
optimum well inside the 5 s budget, so the failures come from the bias
alone.  The test states the requirement faithfully rather than weakening
it.
"""

import json
import time

import numpy as np
import pytest

from oracles import emd_by_vertex_enumeration

from mmdot.cli import main as cli_main
from mmdot.dataio import write_matrix_csv
from mmdot.embeddings import CostMatrix, squared_euclidean_cost
from mmdot.experiments import (
    gaussian_map_matrix,
    make_gaussian_pair,
    run_gaussian_experiment,
    run_sample_complexity_study,
)
from mmdot.kernels import GAUSSIAN, KernelSpec, gram
from mmdot.solvers import (
    SolverConfig,
    solve_admm,
    solve_emd_exact,
    solve_simplified,
)
from mmdot.transport_map import (
    TransportMapModel,
    default_domain_radius,
    map_point_sgd,
    map_points_closed_form,
)

GAUSS1 = KernelSpec(GAUSSIAN, sigma=1.0)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def gaussian_instance(seed, m=5, n=5, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    Y = rng.normal(size=(n, d))
    return (
        squared_euclidean_cost(X, Y),
        gram(GAUSS1, X, X),
        gram(GAUSS1, Y, Y),
    )


def report(announce, num, label, ok, detail):
    announce(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_discrete_ot_reduction(announce):
    budget = 5.0
    cfg = SolverConfig(lambda1=1e3, lambda2=1e3, nu1=1e3, nu2=1e3)
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for seed in range(25):
        C = np.random.default_rng(seed).integers(0, 10, size=(3, 3)).astype(float)
        plan, _ = solve_simplified(
            CostMatrix(entries=C), np.eye(3), np.eye(3), cfg
        )
        _, emd_obj = solve_emd_exact(CostMatrix(entries=C))
        dev = abs(float(np.sum(plan.alpha * C)) - emd_obj)
        worst = max(worst, dev)
        failures += dev > 1e-3
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < budget
    report(
        announce, 1, "discrete-OT reduction", ok,
        f"{failures}/25 instances over 1e-3, worst dev {worst:.2e}, "
        f"{elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_02_emd_vs_vertex_enumeration(announce):
    budget = 10.0
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        C = rng.random((m, n))
        _, obj = solve_emd_exact(CostMatrix(entries=C, cost_kind="user"))
        _, expected = emd_by_vertex_enumeration(C)
        worst = max(worst, abs(obj - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < budget
    report(
        announce, 2, "exact EMD oracle", ok,
        f"worst dev {worst:.2e} over 50 seeds, {elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_03_fw_convergence_contract(announce):
    budget = 30.0
    cfg = SolverConfig(tol_gap=1e-6, max_outer_iters=5000)
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_iters = 0
    monotone = True
    for seed in range(20):
        C, G1, G2 = gaussian_instance(seed)
        _, trace = solve_simplified(C, G1, G2, cfg)
        worst_gap = max(worst_gap, float(trace.gap_or_residual_per_iter[-1]))
        worst_iters = max(worst_iters, trace.iters_used)
        monotone &= bool(np.all(np.diff(trace.objective_per_iter) <= 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-6 and worst_iters <= 5000 and monotone and elapsed < budget
    report(
        announce, 3, "conditional-gradient convergence", ok,
        f"worst gap {worst_gap:.2e}, worst iters {worst_iters}, "
        f"monotone={monotone}, {elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_04_admm_consensus(announce):
    budget = 60.0
    cfg = SolverConfig(
        rho_admm=200.0,
        max_outer_iters=500,
        max_inner_iters=300,
        tol_residual=1e-4,
        tol_gap=1e-9,
    )
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_iters = 0
    cap_hits = 0
    all_converged = True
    for seed in range(10):
        C, G1, G2 = gaussian_instance(seed)
        plan, trace = solve_admm(C, G1, G2, cfg)
        all_converged &= trace.converged
        worst_iters = max(worst_iters, trace.iters_used)
        cap_hits += trace.inner_cap_hits
        r1 = float(np.linalg.norm(plan.alpha - (G1.entries @ plan.beta.T) / 5.0))
        r2 = float(np.linalg.norm(plan.alpha - (plan.gamma @ G2.entries) / 5.0))
        worst_res = max(worst_res, r1, r2)
    elapsed = time.perf_counter() - t0
    ok = (
        all_converged
        and worst_iters <= 500
        and worst_res < 1e-4
        and cap_hits == 0
        and elapsed < budget
    )
    report(
        announce, 4, "consensus solver", ok,
        f"worst residual {worst_res:.2e}, worst cycles {worst_iters}, "
        f"capped prox solves {cap_hits}, {elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_05_map_backends_agree(announce):
    budget = 30.0
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 3))
        B = rng.random((10, 10))
        model = TransportMapModel(
            beta_star=B, source_points=X, target_points=Y, kernel1=GAUSS1
        )
        x = rng.normal(size=3)
        closed, _ = map_points_closed_form(model, x[None, :])
        sgd, _ = map_point_sgd(model, x, steps=10_000, seed=seed)
        # Relative to the map's output scale (the documented projection
        # radius): single-sample averaged SGD has a statistical error floor
        # of order grad_bound / (strong-convexity * sqrt(steps)), which no
        # step schedule beats, so a unit-floor denominator is unattainable
        # by information for outputs of norm < 1.
        scale = max(np.linalg.norm(closed[0]), default_domain_radius(model))
        rel = float(np.linalg.norm(sgd[0] - closed[0]) / scale)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-2 and elapsed < budget
    report(
        announce, 5, "closed-form vs SGD map", ok,
        f"worst rel err {worst:.2e} over 20 models, {elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_06_gaussian_pushforward_identity(announce):
    budget = 10.0
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        d = int(np.random.default_rng([seed, 6]).integers(1, 51))
        pair = make_gaussian_pair(d, seed)
        A = gaussian_map_matrix(pair)
        dev = float(np.linalg.norm(A @ pair.cov1 @ A.T - pair.cov2))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < budget
    report(
        announce, 6, "Gaussian push-forward identity", ok,
        f"worst Frobenius dev {worst:.2e}, dims up to 50, "
        f"{elapsed:.1f}s / {budget:.0f}s",
    )


def test_criterion_07_high_dimensional_map_beats_emd(announce):
    budget = 15 * 60.0
    t0 = time.perf_counter()
    best_sigma, best_prop, emd_mse = None, np.inf, None
    for sigma in (1.0, 5.0, 10.0):
        rep = run_gaussian_experiment(
            d=100,
            m_values=[20, 50, 100],
            sigma=sigma,
            repeats=5,
            cfg=SolverConfig(),
        )
        recs = [r for r in rep.records if not r.get("failed")]
        assert len(recs) == 15, "failed runs in the d=100 study"
        prop = float(np.mean([r["mse_in_sample"] for r in recs]))
        emd = float(np.mean([r["emd_mse"] for r in recs]))
        if prop < best_prop:
            best_sigma, best_prop, emd_mse = sigma, prop, emd
    elapsed = time.perf_counter() - t0
    ok = best_prop <= emd_mse and elapsed < budget
    report(
        announce, 7, "d=100 map vs EMD baseline", ok,
        f"best sigma {best_sigma:g}: map MSE {best_prop:.4f} vs EMD "
        f"{emd_mse:.4f}, {elapsed:.0f}s / {budget:.0f}s",
    )


def test_criterion_08_sample_complexity_slopes(announce):
    budget = 10 * 60.0
    t0 = time.perf_counter()
    slopes = {}
    for d in (5, 20):
        rep = run_sample_complexity_study(
            d=d,
            m_values=[25, 50, 100, 200],
            sigma=5.0,
            cfg=SolverConfig(tol_gap=1e-7),
            seed=0,
            ref_multiplier=8,
        )
        slopes[d] = rep.details["fitted_slope"]
    elapsed = time.perf_counter() - t0
    gap = abs(slopes[5] - slopes[20])
    ok = slopes[5] <= -0.3 and slopes[20] <= -0.3 and gap < 0.25 and elapsed < budget
    report(
        announce, 8, "estimation-error decay slopes", ok,
        f"slope(d=5) {slopes[5]:.3f}, slope(d=20) {slopes[20]:.3f}, "
        f"|diff| {gap:.3f}, {elapsed:.0f}s / {budget:.0f}s",
    )


def test_criterion_09_out_of_sample_protocol(announce):
    budget = 2 * 60.0
    t0 = time.perf_counter()
    rep = run_gaussian_experiment(
        d=10,
        m_values=[100],
        sigma=5.0,
        repeats=5,
        cfg=SolverConfig(),
        oos_count=200,
    )
    recs = [r for r in rep.records if not r.get("failed")]
    finite = all(
        np.isfinite([r["mse_in_sample"], r["mse_oos"]]).all() for r in recs
    )
    ratios = [r["mse_oos"] / r["mse_in_sample"] for r in recs]
    no_emd_oos = all("emd_mse_oos" not in r for r in rep.records)
    elapsed = time.perf_counter() - t0
    ok = (
        len(recs) == 5
        and finite
        and max(ratios) <= 3.0
        and no_emd_oos
        and elapsed < budget
    )
    report(
        announce, 9, "out-of-sample protocol", ok,
        f"worst OOS/in-sample ratio {max(ratios):.2f}, finite={finite}, "
        f"EMD reports no OOS={no_emd_oos}, {elapsed:.0f}s / {budget:.0f}s",
    )


def test_criterion_10_cli_determinism(announce, tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "x.csv"
    tgt = tmp_path / "y.csv"
    pts = tmp_path / "p.csv"
    cost = tmp_path / "c.csv"
    write_matrix_csv(src, rng.normal(size=(5, 2)))
    write_matrix_csv(tgt, rng.normal(size=(5, 2)))
    write_matrix_csv(pts, rng.normal(size=(3, 2)))
    write_matrix_csv(cost, rng.random((3, 4)))
    model = tmp_path / "model.json"
    commands = {
        "solve": ["solve", "--source", src, "--target", tgt, "--kernel",
                  "gaussian", "--sigma", "1.0", "--seed", "3",
                  "--emit-model", model, "--out", tmp_path / "plan.json"],
        "solve-admm": ["solve", "--source", src, "--target", tgt, "--kernel",
                       "gaussian", "--sigma", "1.0", "--method", "admm",
                       "--rho", "200", "--tol-residual", "1e-4",
                       "--max-iters", "500", "--out", tmp_path / "plan2.json"],
        "map": ["map", "--model", model, "--points", pts,
                "--out", tmp_path / "mapped.csv"],
        "map-sgd": ["map", "--model", model, "--points", pts, "--method",
                    "sgd", "--steps", "2000", "--seed", "5",
                    "--out", tmp_path / "mapped2.csv"],
        "emd": ["emd", "--cost", cost, "--out", tmp_path / "emd.json"],
        "eval-gaussian": ["eval-gaussian", "--dim", "2", "--samples", "8,12",
                          "--sigma", "1.0", "--repeats", "2", "--oos-count",
                          "16", "--out", tmp_path / "gauss.json"],
        "sample-complexity": ["sample-complexity", "--dim", "2", "--samples",
                              "5,10", "--sigma", "1.0", "--seed", "7",
                              "--out", tmp_path / "slope.json"],
    }
    stale = []
    for name, argv in commands.items():
        argv = [str(a) for a in argv]
        assert cli_main(argv) == 0, f"{name} failed"
        out_path = argv[argv.index("--out") + 1]
        first = open(out_path, "rb").read()
        first_model = open(model, "rb").read() if name == "solve" else None
        assert cli_main(argv) == 0, f"{name} rerun failed"
        if open(out_path, "rb").read() != first:
            stale.append(name)
        if name == "solve" and open(model, "rb").read() != first_model:
            stale.append(name + "/model")
        manifest = json.loads(open(out_path + ".manifest.json").read())
        assert manifest["command"] == argv[0]
    ok = not stale
    report(
        announce, 10, "CLI rerun determinism", ok,
        "all payloads byte-identical" if ok else f"differing: {stale}",
    )
