import json

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import linear_sum_assignment, nnls

import oracles
from oracles import (
    emd_by_linear_program,
    emd_by_vertex_enumeration,
    penalized_objective,
    prox_kkt_gap,
    prox_simplex_rebuilt,
    simplex_grid_min,
    simplex_projection_by_bisection,
    support_qp_by_scipy_wrappers,
)

from mmdot import solvers
from mmdot.cli import main as cli_main
from mmdot.dataio import write_matrix_csv
from mmdot.errors import NumericalFailureError, ShapeError
from mmdot.experiments import make_gaussian_pair, sample_gaussian
from mmdot.kernels import GAUSSIAN, KernelSpec, gram, squared_euclidean_cost
from mmdot.solvers import (
    SolverConfig,
    _cholesky,
    _forest_cycle,
    _lmo,
    _nnls_columns,
    _penalty_matrices,
    _point_classes,
    _potrs,
    _project_simplex,
    _support_qp,
    derive_beta,
    solve_admm,
    solve_emd_exact,
    solve_simplified,
)

GAUSS1 = KernelSpec(GAUSSIAN, sigma=1.0)


def gaussian_instance(seed, m=5, n=5, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, d))
    Y = rng.normal(size=(n, d))
    G1 = gram(GAUSS1, X, X)
    G2 = gram(GAUSS1, Y, Y)
    return squared_euclidean_cost(X, Y), G1, G2


def repeated_point_instance(seed):
    """2-d samples drawn with replacement from m // 2 base points, 3 <= m < 12."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 12))
    base = rng.normal(size=(m // 2, 2))
    X = base[rng.integers(0, m // 2, size=m)]
    Y = base[rng.integers(0, m // 2, size=m)] + 0.3
    kernel = KernelSpec(GAUSSIAN, sigma=float(rng.choice([0.3, 1.0, 3.0])))
    return X, Y, kernel


def named_instance(case):
    """``gauss<seed>`` or ``repeated<seed>``: cost and grams of that instance."""
    if case.startswith("gauss"):
        return gaussian_instance(int(case[5:]))
    X, Y, kernel = repeated_point_instance(int(case[8:]))
    return squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y)


def blob_instance(seed, per_class=12, sigma=0.5):
    """Two-cluster source and shifted target, sized like the domain-adaptation runs."""
    rng = np.random.default_rng(seed)

    def blobs(shift):
        centers = np.array([(0.0, 0.0), (3.0, 3.0)]) + np.asarray(shift)
        return np.vstack(
            [rng.normal(scale=0.15, size=(per_class, 2)) + c for c in centers]
        )

    X, Y = blobs((0.0, 0.0)), blobs((1.5, -1.0))
    kernel = KernelSpec(GAUSSIAN, sigma=sigma)
    return squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y)


def near_duplicate_instance(seed):
    """6 points in 1-d with a near-duplicate source pair and target pair, sigma 1."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(6, 1))
    Y = rng.normal(size=(6, 1))
    X[1] = X[0] + 1e-6 * rng.normal(size=1)
    Y[2] = Y[3] + 1e-6 * rng.normal(size=1)
    return squared_euclidean_cost(X, Y), gram(GAUSS1, X, X), gram(GAUSS1, Y, Y)


def assert_support_sizes(plan, trace):
    """The trace's support size per iteration ends at the returned plan's."""
    assert trace.support_sizes.size == trace.iters_used
    assert trace.support_sizes[-1] == np.count_nonzero(plan.alpha)


def slope_study_instance(seed, m):
    """One solve of the sample-complexity study: d = 5, sigma = 5, m points."""
    pair = make_gaussian_pair(5, seed=seed)
    rng = np.random.default_rng([seed, m])
    X = sample_gaussian(pair.mean1, pair.cov1, m, rng)
    Y = sample_gaussian(pair.mean2, pair.cov2, m, rng)
    kernel = KernelSpec(GAUSSIAN, sigma=5.0)
    return squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y)


def cli_scale_instance():
    """m = n = 150 samples shaped like the CLI round trip: d = 5, sigma 0.5."""
    pair = make_gaussian_pair(5, seed=901)
    rng = np.random.default_rng(901)
    X = sample_gaussian(pair.mean1, pair.cov1, 150, rng)
    Y = sample_gaussian(pair.mean2, pair.cov2, 150, rng)
    kernel = KernelSpec(GAUSSIAN, sigma=0.5)
    return squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.lambda1 == 10.0 and cfg.rho_admm == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": -1.0},
            {"nu2": -0.5},
            {"rho_admm": 0.0},
            {"max_outer_iters": 0},
            {"max_inner_iters": -2},
            {"tol_gap": 0.0},
            {"tol_residual": -1e-9},
            {"lambda1": np.nan},
            {"lambda2": np.inf},
            {"nu1": np.inf},
            {"nu2": np.nan},
            {"rho_admm": np.inf},
            {"tol_gap": np.inf},
            {"tol_residual": np.inf},
            {"max_outer_iters": 2.5},
            {"max_inner_iters": 2.5},
            {"max_outer_iters": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integer_budgets_accepted(self):
        C, G1, G2 = gaussian_instance(0)
        cfg = SolverConfig(max_outer_iters=np.int64(2), max_inner_iters=np.int32(300))
        assert solve_simplified(C, G1, G2, cfg)[1].iters_used <= 2
        assert solve_admm(C, G1, G2, cfg)[1].iters_used == 2


class TestSolveSimplified:
    def test_linear_objective_hits_min_cost_vertex(self):
        C = np.array([[3.0, 1.0], [2.0, 5.0]])
        cfg = SolverConfig(lambda1=0, lambda2=0, nu1=0, nu2=0)
        plan, trace = solve_simplified(C, np.eye(2), np.eye(2), cfg)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(plan.alpha, expected, atol=1e-12)
        assert trace.objective_per_iter[-1] == pytest.approx(1.0, abs=1e-10)
        assert trace.converged

    def test_singleton(self):
        plan, trace = solve_simplified(
            np.array([[7.0]]),
            np.array([[1.0]]),
            np.array([[1.0]]),
            SolverConfig(),
        )
        np.testing.assert_allclose(plan.alpha, [[1.0]])
        assert trace.converged

    def test_discrete_ot_reduction_with_identity_grams(self):
        # Heavy marginal penalties with Kronecker grams pull the solution to
        # the discrete-OT optimum.  The regularized optimum retains an O(1/lam)
        # bias in the trace, so the documented tolerance here is 1e-2; the
        # strict 1e-3 variant lives in the acceptance suite.
        cfg = SolverConfig(
            lambda1=1e3, lambda2=1e3, nu1=1e3, nu2=1e3, tol_gap=1e-8,
            max_outer_iters=10_000,
        )
        for seed in range(5):
            rng = np.random.default_rng(seed)
            C = rng.integers(0, 10, size=(3, 3)).astype(float)
            plan, _ = solve_simplified(C, np.eye(3), np.eye(3), cfg)
            _, emd_obj = emd_by_vertex_enumeration(C)
            assert abs(float(np.sum(plan.alpha * C)) - emd_obj) < 1e-2

    def test_feasibility_invariants(self):
        # No repair follows the solve: the support weights are scattered
        # into the plan as the support solve left them.
        instances = [gaussian_instance(seed) for seed in range(5)]
        instances += [slope_study_instance(901, m) for m in (25, 150)]
        for C, G1, G2 in instances:
            plan, _ = solve_simplified(C, G1, G2, SolverConfig())
            assert np.all(plan.alpha >= 0.0)
            assert abs(plan.alpha.sum() - 1.0) <= 1e-12

    def test_objective_trace_non_increasing(self):
        C, G1, G2 = gaussian_instance(11)
        _, trace = solve_simplified(C, G1, G2, SolverConfig())
        objs = trace.objective_per_iter
        assert np.all(np.diff(objs) <= 0.0)
        assert trace.iters_used == len(objs) == len(trace.gap_or_residual_per_iter)

    def test_objective_matches_scalar_oracle(self):
        C, G1, G2 = gaussian_instance(12, m=4, n=3)
        cfg = SolverConfig(lambda1=2.0, lambda2=3.0, nu1=0.5, nu2=1.5)
        plan, trace = solve_simplified(C, G1, G2, cfg)
        expected = penalized_objective(
            plan.alpha, C, G1.entries, G2.entries, 2.0, 3.0, 0.5, 1.5
        )
        # The returned plan is the iterate the last objective was read from.
        assert trace.objective_per_iter[-1] == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize(
        "case,budget",
        [("gauss0", 5000), ("gauss11", 5000), ("gauss0", 1), ("gauss0", 2),
         ("gauss0", 3), ("gauss3", 5000), ("repeated7", 5000)],
    )
    def test_plan_matches_last_trace_entry(self, case, budget):
        # The loop keeps the plan as support cells and weights; the dense
        # plan it returns must be the one its last objective and gap were
        # read from, converged or stopped by the budget.
        C, G1, G2 = named_instance(case)
        cfg = SolverConfig(max_outer_iters=budget)
        plan, trace = solve_simplified(C, G1, G2, cfg)
        if budget < 4:
            assert trace.iters_used == budget and not trace.converged
        else:
            assert trace.converged
        a, L, K1, K2 = plan.alpha, C, G1.entries, G2.entries
        m, n = a.shape
        H1 = cfg.lambda1 * K1 + cfg.nu1 * K1 * K1
        H2 = cfg.lambda2 * K2 + cfg.nu2 * K2 * K2
        u1 = a.sum(axis=1) - 1.0 / m
        u2 = a.sum(axis=0) - 1.0 / n
        g = L + 2.0 * (H1 @ u1)[:, None] + 2.0 * (H2 @ u2)[None, :]
        objective = penalized_objective(
            a, L, K1, K2, cfg.lambda1, cfg.lambda2, cfg.nu1, cfg.nu2
        )
        assert trace.objective_per_iter[-1] == pytest.approx(
            objective, rel=1e-9, abs=1e-12
        )
        assert trace.gap_or_residual_per_iter[-1] == pytest.approx(
            float(np.sum(g * a) - g.min()), rel=1e-9, abs=1e-12
        )
        assert_support_sizes(plan, trace)

    @pytest.mark.parametrize(
        "case", [f"gauss{s}" for s in range(20)]
        + [f"repeated{s}" for s in (0, 2, 7, 29, 45, 104, 169, 240)],
    )
    def test_support_is_forest_over_point_classes(self, case):
        # A forest over r row classes and c column classes has at most
        # r + c - 1 edges, and every nonzero cell is one edge.
        C, G1, G2 = named_instance(case)
        plan, _ = solve_simplified(C, G1, G2, SolverConfig())
        classes = len(set(_point_classes(G1.entries))) + len(
            set(_point_classes(G2.entries))
        )
        assert np.count_nonzero(plan.alpha) <= classes - 1

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_raises(self, bad):
        C, G1, G2 = gaussian_instance(3)
        cost = C.copy()
        cost[1, 2] = bad
        with pytest.raises(NumericalFailureError) as info:
            solve_simplified(cost, G1, G2, SolverConfig())
        assert info.value.trace.iters_used == 0

    def test_gap_upper_bounds_suboptimality(self):
        # At any iterate, objective - gap <= true optimum <= grid minimum.
        # The grid minimum over-estimates the true optimum, so the check
        # objective - gap <= grid_min is a valid necessary condition.
        C, G1, G2 = gaussian_instance(13, m=2, n=2, d=2)
        cfg = SolverConfig(lambda1=2.0, lambda2=2.0, nu1=1.0, nu2=1.0, max_outer_iters=40)
        _, trace = solve_simplified(C, G1, G2, cfg)
        grid_min = simplex_grid_min(
            C, G1.entries, G2.entries, 2.0, 2.0, 1.0, 1.0, step=5e-3
        )
        objs = trace.objective_per_iter
        gaps = trace.gap_or_residual_per_iter
        assert np.all(objs - gaps <= grid_min + 1e-12)

    def test_determinism_bit_identical(self):
        C, G1, G2 = gaussian_instance(21)
        p1, t1 = solve_simplified(C, G1, G2, SolverConfig())
        p2, t2 = solve_simplified(C, G1, G2, SolverConfig())
        assert np.array_equal(p1.alpha, p2.alpha)
        assert np.array_equal(t1.objective_per_iter, t2.objective_per_iter)

    @pytest.mark.parametrize("seed", [3, 5, 6, 13, 15, 16, 18])
    def test_cyclic_supports_converge(self, seed):
        # On these instances the support closes a row/column cycle, where
        # the support QP is singular; the cycle push must keep it solvable.
        C, G1, G2 = gaussian_instance(seed)
        _, trace = solve_simplified(C, G1, G2, SolverConfig(tol_gap=1e-10))
        assert trace.converged
        assert trace.gap_or_residual_per_iter[-1] <= 1e-10
        assert np.all(np.diff(trace.objective_per_iter) <= 0.0)

    @pytest.mark.parametrize("seed", [0, 2, 7, 29, 45, 104, 169, 240])
    def test_repeated_points_converge(self, seed):
        # Identical points have identical gram rows, so the support QP is
        # singular along moves between their cells even on a row/column
        # forest; the forest must be kept over classes of identical points.
        X, Y, kernel = repeated_point_instance(seed)
        _, trace = solve_simplified(
            squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y),
            SolverConfig(),
        )
        assert trace.converged
        assert trace.gap_or_residual_per_iter[-1] <= 1e-12
        assert np.all(np.diff(trace.objective_per_iter) <= 0.0)

    @pytest.mark.parametrize("seed", [39, 66, 102, 129, 194, 240, 286, 287])
    def test_repeated_points_unreachable_gap_keep_forest(self, seed):
        # With the gap target out of reach the loop keeps stepping toward
        # copies of points already in the support, whose cells close
        # 2-cycles (two cells between the same row and column classes).
        # Each push must leave a forest over the classes, or Q is singular.
        C, G1, G2 = named_instance(f"repeated{seed}")
        plan, trace = solve_simplified(C, G1, G2, SolverConfig(tol_gap=1e-300))
        classes = len(set(_point_classes(G1.entries))) + len(
            set(_point_classes(G2.entries))
        )
        assert np.count_nonzero(plan.alpha) <= classes - 1
        assert trace.stop_reason in ("fixed_point", "stall")
        assert_support_sizes(plan, trace)
        assert np.all(np.diff(trace.objective_per_iter) <= 0.0)

    def test_indefinite_support_qp_raises_with_trace(self):
        # An indefinite "gram" makes the support QP non-convex; its failed
        # Cholesky factorization surfaces as a NumericalFailureError.
        G1 = np.array([[1.0, -3.0], [-3.0, 1.0]])
        cfg = SolverConfig(lambda1=1.0, nu1=0.0, lambda2=0.0, nu2=0.0)
        with pytest.raises(NumericalFailureError) as info:
            solve_simplified(
                np.zeros((2, 1)), G1, np.ones((1, 1)), cfg
            )
        assert str(info.value) == (
            "support solve failed: 2-th leading minor of the array is not "
            "positive definite"
        )
        assert info.value.trace.iters_used == 1

    def test_fixed_point_stops_before_budget(self):
        # Slope-study-shaped instance with an unreachable gap target: the
        # loop stops at its fixed point instead of running the budget out.
        C, G1, G2 = slope_study_instance(seed=0, m=50)
        cfg = SolverConfig(tol_gap=1e-300, max_outer_iters=1200)
        _, trace = solve_simplified(C, G1, G2, cfg)
        assert trace.iters_used < 1200
        assert trace.converged is False
        assert trace.stop_reason == "fixed_point"
        assert trace.gap_or_residual_per_iter[-1] <= 1e-10

    @pytest.mark.parametrize("seed", [129, 198])
    def test_near_duplicate_stall_stops(self, seed):
        # A near-duplicate source pair and target pair make Q nearly
        # singular; on these seeds the support solve returns its starting
        # iterate bit for bit at a gap far above the target, and every
        # later iteration would repeat it.
        plan, trace = solve_simplified(*near_duplicate_instance(seed), SolverConfig())
        assert trace.stop_reason == "stall"
        assert trace.converged is False
        assert trace.iters_used <= 10
        assert trace.gap_or_residual_per_iter[-1] > SolverConfig().tol_gap
        assert abs(plan.alpha.sum() - 1.0) <= 1e-12
        assert_support_sizes(plan, trace)

    def test_near_duplicate_factorization_failure(self):
        # On this seed Q is numerically indefinite after 11 iterations; the
        # failure carries LAPACK's leading-minor index in scipy's words.
        with pytest.raises(NumericalFailureError) as info:
            solve_simplified(*near_duplicate_instance(45), SolverConfig())
        assert str(info.value) == (
            "support solve failed: 6-th leading minor of the array is not "
            "positive definite"
        )
        assert info.value.trace.iters_used == 11

    def test_stop_reasons_gap_and_budget(self):
        C, G1, G2 = gaussian_instance(4, m=6, n=6)
        _, trace = solve_simplified(C, G1, G2, SolverConfig())
        assert trace.converged and trace.stop_reason == "gap"
        assert trace.support_solves == trace.iters_used - 1
        _, trace = solve_simplified(C, G1, G2, SolverConfig(max_outer_iters=2))
        assert not trace.converged and trace.stop_reason == "budget"
        assert trace.iters_used == 2 and trace.support_solves == 1

    def test_cli_scale_solve_takes_fast_path(self):
        # The cli_roundtrip solve shape (d = 5, m = 150, sigma = 0.5): the
        # support mostly carries over, so most support optima are interior.
        pair = make_gaussian_pair(5, seed=811)
        rng = np.random.default_rng([811, 0xC11])
        X, Y = (sample_gaussian(np.zeros(5), cov, 150, rng)
                for cov in (pair.cov1, pair.cov2))
        kernel = KernelSpec(GAUSSIAN, sigma=0.5)
        _, trace = solve_simplified(
            squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y),
            SolverConfig(),
        )
        assert trace.stop_reason == "gap"
        assert trace.support_solves == trace.iters_used - 1
        assert 0 < trace.nnls_solves < trace.support_solves / 2

    def test_cli_solve_converges_at_roundtrip_scale(self, tmp_path):
        # d = 5, m = 150, sigma = 0.5: about 165 support cells at the optimum.
        pair = make_gaussian_pair(5, seed=811)
        rng = np.random.default_rng([811, 0xC11])
        paths = []
        for name, cov in (("x.csv", pair.cov1), ("y.csv", pair.cov2)):
            paths.append(str(tmp_path / name))
            write_matrix_csv(paths[-1], sample_gaussian(np.zeros(5), cov, 150, rng))
        out = tmp_path / "plan.json"
        code = cli_main(
            ["solve", "--source", paths[0], "--target", paths[1], "--kernel",
             "gaussian", "--sigma", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["trace"]["final_gap_or_residual"] <= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_simplified(
                np.ones((2, 3)), np.eye(3), np.eye(3), SolverConfig()
            )
        with pytest.raises(ShapeError, match="G2 shape"):
            solve_simplified(
                np.ones((2, 3)), np.eye(2), np.eye(2), SolverConfig()
            )

    def test_full_step_restarts_support(self, monkeypatch):
        # A Frank-Wolfe step of length 1 moves all the mass to the new cell,
        # so the support restarts from that cell alone and the cycle search
        # sees an empty support.  A seeded search over small Gaussian-kernel
        # instances (m, n 2-8, d 1-3, weights log-uniform in 1e-3..1e3)
        # found this one.
        rng = np.random.default_rng(1977)
        m, n, d = (int(v) for v in rng.integers([2, 2, 1], [9, 9, 4]))
        lam, nu = 10.0 ** rng.uniform(-3, 3, size=2)
        X, Y = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        restarts = []

        def spy(support, *args):
            restarts.append(not support)
            return _forest_cycle(support, *args)

        monkeypatch.setattr(solvers, "_forest_cycle", spy)
        plan, trace = solve_simplified(
            squared_euclidean_cost(X, Y), gram(GAUSS1, X, X), gram(GAUSS1, Y, Y),
            SolverConfig(lambda1=lam, lambda2=lam, nu1=nu, nu2=nu),
        )
        assert any(restarts)
        assert trace.converged and trace.stop_reason == "gap"
        assert np.all(np.diff(trace.objective_per_iter) <= 0.0)
        assert plan.alpha.sum() == pytest.approx(1.0, abs=1e-12)


class TestLmo:
    """The blocked gradient argmin against the dense one."""

    @staticmethod
    def check(L, p, q, rows):
        g = L + p[:, None] + q
        s, value = _lmo(L, p, q, np.empty((rows, L.shape[1])))
        assert s == int(np.argmin(g))
        assert np.array_equal(value, g.flat[s], equal_nan=True)
        return value

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 3, 7, 40])
    def test_random_matches_dense(self, seed, rows):
        rng = np.random.default_rng(seed)
        m, n = 40, 23
        self.check(rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n), rows)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 3, 8, 40])
    def test_ties_go_to_first_in_row_major_order(self, seed, rows):
        # Small integers tie often; the minimum is planted in blocks 1, 3
        # and 4 of 8 rows, so equal minima sit in different blocks.
        rng = np.random.default_rng(seed)
        m, n = 40, 6
        L = rng.integers(0, 3, size=(m, n)).astype(float)
        p = rng.integers(0, 2, size=m).astype(float)
        q = rng.integers(0, 2, size=n).astype(float)
        for i, j in ((9, 4), (27, 0), (35, 2)):
            L[i, j] = -5.0 - p[i] - q[j]
        self.check(L, p, q, rows)

    @pytest.mark.parametrize("rows", [1, 8, 40])
    @pytest.mark.parametrize("row", [0, 21, 39])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_reported(self, bad, row, rows):
        # First, middle and last block of 8 rows; a -inf before a NaN
        # still reports the NaN, as the dense argmin does.
        rng = np.random.default_rng(row)
        L, p, q = rng.normal(size=(40, 9)), rng.normal(size=40), rng.normal(size=9)
        L[row, 5] = bad
        assert not np.isfinite(self.check(L, p, q, rows))
        L[39 - row, 1] = -np.inf
        assert not np.isfinite(self.check(L, p, q, rows))

    def test_rows_wider_than_block_take_one_row_each(self):
        rng = np.random.default_rng(5)
        m, n = 3, solvers._LMO_BLOCK_CELLS + 17
        rows = max(1, solvers._LMO_BLOCK_CELLS // n)
        assert rows == 1
        self.check(rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n), rows)


class TestLmoBlockSize:
    """Plans and traces do not depend on how the gradient argmin is blocked."""

    @staticmethod
    def solves(monkeypatch, C, G1, G2, cfg):
        m, n = np.shape(C)
        out = []
        for cells in (1, 7 * n, m * n, solvers._LMO_BLOCK_CELLS):
            monkeypatch.setattr(solvers, "_LMO_BLOCK_CELLS", cells)
            out.append(solve_simplified(C, G1, G2, cfg))
        return out

    def assert_identical(self, runs):
        (p0, t0), rest = runs[0], runs[1:]
        for plan, trace in rest:
            assert plan.alpha.tobytes() == p0.alpha.tobytes()
            for name in ("objective_per_iter", "gap_or_residual_per_iter", "support_sizes"):
                assert getattr(trace, name).tobytes() == getattr(t0, name).tobytes()
            assert (trace.stop_reason, trace.support_solves, trace.nnls_solves) == (
                t0.stop_reason, t0.support_solves, t0.nnls_solves
            )

    @pytest.mark.parametrize(
        "case", [f"gauss{s}" for s in (3, 5, 6, 13, 15, 16, 18)]
        + [f"repeated{s}" for s in (0, 7, 45, 129, 240)],
    )
    def test_small_instances(self, monkeypatch, case):
        C, G1, G2 = named_instance(case)
        self.assert_identical(self.solves(monkeypatch, C, G1, G2, SolverConfig(tol_gap=1e-300)))

    def test_slope_study_reference_shape(self, monkeypatch):
        # The benchmark's 400-point reference solve (m_ref = 8 x 50).
        C, G1, G2 = slope_study_instance(seed=901, m=400)
        cfg = SolverConfig(max_outer_iters=1200, tol_gap=1e-300)
        runs = self.solves(monkeypatch, C, G1, G2, cfg)
        assert runs[0][1].iters_used > 5
        self.assert_identical(runs)


class TestSupportQp:
    @staticmethod
    def brute_force(Q, c):
        """Best KKT point over every face of the simplex."""
        k = c.size
        best, best_a = np.inf, None
        for mask in range(1, 2**k):
            S = [i for i in range(k) if mask >> i & 1]
            K = np.zeros((len(S) + 1, len(S) + 1))
            K[:-1, :-1] = 2.0 * Q[np.ix_(S, S)]
            K[:-1, -1] = K[-1, :-1] = 1.0
            sol = np.linalg.solve(K, np.concatenate([-c[S], [1.0]]))
            if np.all(sol[:-1] >= 0.0):
                a = np.zeros(k)
                a[S] = sol[:-1]
                val = a @ Q @ a + c @ a
                if val < best:
                    best, best_a = val, a
        return best, best_a

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        B = rng.normal(size=(k, k))
        Q = B.T @ B + 0.1 * np.eye(k)
        return Q, rng.normal(scale=3.0, size=k)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        Q, c = self.instance(seed)
        a, fell_back = _support_qp(Q, c)
        best, best_a = self.brute_force(Q, c)
        assert np.all(a >= 0.0) and abs(a.sum() - 1.0) <= 1e-15
        assert abs((a @ Q @ a + c @ a) - best) <= 1e-12
        np.testing.assert_allclose(a, best_a, atol=1e-10)
        # The KKT fast path serves exactly the interior optima.
        assert fell_back == (not np.all(best_a > 0.0))

    @staticmethod
    def spd_instance(k, seed, interior):
        """``Q = I + B^T B / 4k``; a small ``c`` keeps the optimum interior."""
        rng = np.random.default_rng([k, seed])
        B = rng.normal(size=(k, k))
        Q = np.eye(k) + B.T @ B / (4 * k)
        return Q, rng.normal(scale=1e-3 / k if interior else 3.0, size=k)

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 150])
    def test_bitwise_as_scipy_wrappers(self, k):
        routes = set()
        for seed in range(4):
            for interior in (True, False):
                Q, c = self.spd_instance(k, seed, interior)
                a, fell_back = _support_qp(Q, c)
                a_ref, fell_back_ref = support_qp_by_scipy_wrappers(Q, c)
                assert a.tobytes() == a_ref.tobytes()
                assert fell_back == fell_back_ref
                routes.add(fell_back)
        # A single weight is always positive; larger supports take both routes.
        assert routes == ({False} if k == 1 else {False, True})

    def test_brute_force_seeds_take_both_routes(self):
        routes = {_support_qp(*self.instance(seed))[1] for seed in range(20)}
        assert routes == {False, True}

    def test_forest_cycle(self):
        # n = 3 columns, every point its own class; cell (i, j) is 3 i + j.
        classes = [0, 1, 2]
        support = [0, 3, 4]  # (0, 0), (1, 0), (1, 1)
        # (0, 1) closes the cycle; positions of (1, 1), (1, 0), (0, 0).
        assert _forest_cycle(support, 1, 3, classes, classes) == [2, 1, 0]
        assert _forest_cycle(support, 2, 3, classes, classes) is None
        assert _forest_cycle([0, 4], 1, 3, classes, classes) is None

    def test_forest_cycle_identical_rows(self):
        # Rows 0 and 1 are one class, so (1, 0) closes a 2-cycle with
        # (0, 0); with both in the support the class pair has two edges.
        assert _forest_cycle([0], 2, 2, [0, 0], [0, 1]) == [0]
        assert _forest_cycle([0, 2], 1, 2, [0, 0], [0, 1]) is None
        assert _forest_cycle([0, 2, 1], 3, 2, [0, 0], [0, 1]) == [2]

    def test_point_classes(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0], [1.0, 0.0]])
        assert _point_classes(gram(GAUSS1, X, X).entries) == [0, 1, 0, 3, 1]
        assert _point_classes(gram(GAUSS1, X[:2], X[:2]).entries) == [0, 1]


class TestCholesky:
    @pytest.mark.parametrize("k", [1, 2, 10, 48])
    def test_newton_solve_bitwise_as_scipy_wrappers(self, k):
        # The ADMM prox's Newton solve: potrf then potrs on an SPD matrix.
        rng = np.random.default_rng(k)
        B = rng.normal(size=(k, k))
        M = np.eye(k) + B @ B.T
        r = rng.normal(size=k)
        d = _potrs(_cholesky(M), r)[0]
        assert d.tobytes() == cho_solve((cholesky(M), False), r).tobytes()

    def test_not_definite_raises_scipy_message(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _cholesky(A)
        with pytest.raises(np.linalg.LinAlgError) as scipys:
            cholesky(A)
        assert str(ours.value) == str(scipys.value) == (
            "2-th leading minor of the array is not positive definite"
        )


class TestNonFiniteGram:
    @pytest.mark.parametrize("solve", [solve_simplified, solve_admm])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_raises_before_any_iteration(self, solve, bad, side):
        C, G1, G2 = gaussian_instance(3)
        grams = [G1.entries.copy(), G2.entries.copy()]
        grams[side][1, 2] = bad
        with pytest.raises(NumericalFailureError) as info:
            solve(C, *grams, SolverConfig(rho_admm=50.0, max_outer_iters=3))
        assert info.value.trace.iters_used == 0


class TestPenaltyMatrices:
    @pytest.mark.parametrize("case", ["gauss0", "gauss3", "repeated7", "repeated45"])
    def test_bitwise_as_sum_of_forms(self, case):
        # Each form keeps the bits of lam G + nu G*G, so a rewrite of the
        # build (in place, or with the operands reordered) must keep them.
        _, G1, G2 = named_instance(case)
        for cfg in (
            SolverConfig(),
            SolverConfig(lambda1=0.3, lambda2=7.0, nu1=1e3, nu2=0.0),
            SolverConfig(lambda1=0.0, lambda2=1e-3, nu1=1.7, nu2=3e5),
        ):
            H1, H2 = _penalty_matrices(G1.entries, G2.entries, cfg)
            for H, G, lam, nu in (
                (H1, G1.entries, cfg.lambda1, cfg.nu1),
                (H2, G2.entries, cfg.lambda2, cfg.nu2),
            ):
                assert H.tobytes() == (lam * G + nu * (G * G)).tobytes()


class TestSolveAdmm:
    def test_singleton_consensus(self):
        cfg = SolverConfig(lambda1=0, lambda2=0, nu1=0, nu2=0)
        plan, trace = solve_admm(
            np.array([[4.0]]),
            np.array([[1.0]]),
            np.array([[1.0]]),
            cfg,
        )
        np.testing.assert_allclose(plan.alpha, [[1.0]], atol=1e-8)
        np.testing.assert_allclose(plan.beta, [[1.0]], atol=1e-4)
        np.testing.assert_allclose(plan.gamma, [[1.0]], atol=1e-4)
        assert trace.converged

    def test_identity_gram_consensus_relations(self):
        # With G = I the consensus constraints read beta = m alpha^T, gamma = n alpha.
        C = np.array([[0.0, 2.0], [2.0, 0.0]])
        cfg = SolverConfig(rho_admm=5.0, tol_residual=1e-6, max_outer_iters=2000)
        plan, trace = solve_admm(C, np.eye(2), np.eye(2), cfg)
        assert trace.converged
        np.testing.assert_allclose(plan.beta, 2.0 * plan.alpha.T, atol=1e-5)
        np.testing.assert_allclose(plan.gamma, 2.0 * plan.alpha, atol=1e-5)

    def test_gaussian_instance_converges(self):
        # 5x5 Gaussian-gram instance: residuals below 1e-4 within 500 cycles.
        C, G1, G2 = gaussian_instance(7)
        cfg = SolverConfig(
            rho_admm=200.0,
            max_outer_iters=500,
            max_inner_iters=300,
            tol_residual=1e-4,
            tol_gap=1e-9,
        )
        plan, trace = solve_admm(C, G1, G2, cfg)
        assert trace.converged and trace.stop_reason == "residual"
        assert trace.inner_cap_hits == 0
        res1 = np.linalg.norm(plan.alpha - (G1.entries @ plan.beta.T) / 5.0)
        res2 = np.linalg.norm(plan.alpha - (plan.gamma @ G2.entries) / 5.0)
        # The returned plan is the one the stop test read its residuals from.
        assert res1 <= 1e-4 and res2 <= 1e-4
        assert np.all(plan.beta >= 0.0) and np.all(plan.gamma >= 0.0)

    @pytest.mark.parametrize("m,n", [(4, 7), (7, 4)])
    def test_rectangular_instance_converges(self, m, n):
        C, G1, G2 = gaussian_instance(7, m=m, n=n)
        cfg = SolverConfig(
            rho_admm=200.0,
            max_outer_iters=500,
            max_inner_iters=300,
            tol_residual=1e-4,
            tol_gap=1e-9,
        )
        plan, trace = solve_admm(C, G1, G2, cfg)
        assert trace.converged
        assert plan.beta.shape == (n, m) and plan.gamma.shape == (m, n)
        res1 = np.linalg.norm(plan.alpha - (G1.entries @ plan.beta.T) / m)
        res2 = np.linalg.norm(plan.alpha - (plan.gamma @ G2.entries) / n)
        assert res1 <= 1e-4 and res2 <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beta_gamma_step_is_exact_fit(self, seed):
        # One cycle leaves the duals at zero, so the beta/gamma step fits
        # the returned alpha itself.
        C, G1, G2 = gaussian_instance(seed, m=12, n=12, d=2)
        plan, _ = solve_admm(C, G1, G2, SolverConfig(max_outer_iters=1))
        np.testing.assert_allclose(
            plan.beta, derive_beta(plan.alpha, G1), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            plan.gamma, derive_beta(plan.alpha.T, G2), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prox_step_is_exact(self, seed):
        # With one cycle the duals, beta and gamma are still zero, so the
        # prox center is C / (2 rho).  At the prox minimizer the FW gap of
        # the prox objective vanishes.
        C, G1, G2 = blob_instance(seed)
        rho = 200.0
        cfg = SolverConfig(rho_admm=rho, max_outer_iters=1, max_inner_iters=300)
        plan, trace = solve_admm(C, G1, G2, cfg)
        H1, H2 = _penalty_matrices(G1.entries, G2.entries, cfg)
        assert trace.inner_cap_hits == 0
        assert prox_kkt_gap(H1, H2, rho, C / (2.0 * rho), plan.alpha) <= 1e-9

    def test_inner_cap_hits_count_capped_cycles(self):
        # The cold first cycle needs more than one Newton step: with a
        # budget of one it is capped, at the default budget it is not.
        C, G1, G2 = blob_instance(0)
        cfg = SolverConfig(rho_admm=200.0, max_outer_iters=1, max_inner_iters=1)
        _, capped = solve_admm(C, G1, G2, cfg)
        assert capped.inner_cap_hits == 1 and capped.prox_newton_steps == 1
        cfg = SolverConfig(rho_admm=200.0, max_outer_iters=1)
        _, solved = solve_admm(C, G1, G2, cfg)
        assert solved.inner_cap_hits == 0 and solved.prox_newton_steps > 1

    def test_prox_exact_at_cli_scale(self):
        # m = n = 150 samples shaped like the CLI round trip (sigma 0.5,
        # rho 200): every prox solve finishes within the default step
        # budget, and the first one, whose center is C / (2 rho), is exact.
        C, G1, G2 = cli_scale_instance()
        rho = 200.0
        _, trace = solve_admm(C, G1, G2, SolverConfig(rho_admm=rho, max_outer_iters=3))
        assert trace.iters_used == 3 and trace.inner_cap_hits == 0
        cfg = SolverConfig(rho_admm=rho, max_outer_iters=1)
        plan, trace = solve_admm(C, G1, G2, cfg)
        H1, H2 = _penalty_matrices(G1.entries, G2.entries, cfg)
        assert trace.inner_cap_hits == 0
        assert prox_kkt_gap(H1, H2, rho, C / (2.0 * rho), plan.alpha) <= 1e-9

    @pytest.mark.parametrize("rho", [0.01, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m,n", [(6, 8), (12, 12)])
    def test_prox_exact_on_hard_cold_starts(self, rho, seed, m, n):
        # A small rho under a heavy penalty makes the prox dual nearly
        # piecewise linear: full Newton steps overshoot and cycle between
        # active sets until the step budget runs out on every one of these
        # instances, so the damped steps of the line search must act.
        C, G1, G2 = gaussian_instance(seed, m=m, n=n)
        cfg = SolverConfig(
            lambda1=1e3, lambda2=1e3, nu1=1e3, nu2=1e3, rho_admm=rho,
            max_outer_iters=1,
        )
        plan, trace = solve_admm(C, G1, G2, cfg)
        H1, H2 = _penalty_matrices(G1.entries, G2.entries, cfg)
        assert trace.inner_cap_hits == 0
        assert prox_kkt_gap(H1, H2, rho, C / (2.0 * rho), plan.alpha) <= 1e-9

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_raises(self, bad):
        C, G1, G2 = gaussian_instance(3)
        cost = C.copy()
        cost[1, 2] = bad
        with pytest.raises(NumericalFailureError):
            solve_admm(cost, G1, G2, SolverConfig(max_outer_iters=3))

    def test_plan_as_computed(self):
        # alpha is the last prox solve's simplex projection and beta, gamma
        # the last column fits, none clamped or renormalized afterwards.
        C, G1, G2 = blob_instance(0)
        plan, _ = solve_admm(C, G1, G2, SolverConfig(rho_admm=200.0, max_outer_iters=40))
        assert np.all(plan.alpha >= 0.0)
        assert abs(plan.alpha.sum() - 1.0) <= 1e-12
        assert np.all(plan.beta >= 0.0) and np.all(plan.gamma >= 0.0)

    def test_budget_exhaustion_returns_unconverged(self):
        C, G1, G2 = gaussian_instance(3)
        cfg = SolverConfig(max_outer_iters=3, max_inner_iters=10, tol_residual=1e-12)
        plan, trace = solve_admm(C, G1, G2, cfg)
        assert not trace.converged
        assert trace.iters_used == 3
        assert trace.stop_reason == "budget"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objective_matches_scalar_oracle(self, seed):
        C, G1, G2 = gaussian_instance(seed)
        cfg = SolverConfig(rho_admm=50.0, max_outer_iters=40)
        plan, trace = solve_admm(C, G1, G2, cfg)
        expected = penalized_objective(
            plan.alpha, C, G1.entries, G2.entries, 10.0, 10.0, 10.0, 10.0
        )
        assert trace.objective_per_iter[-1] == pytest.approx(expected, rel=1e-12)

    def test_determinism_bit_identical(self):
        C, G1, G2 = gaussian_instance(5)
        cfg = SolverConfig(rho_admm=50.0, max_outer_iters=40)
        p1, t1 = solve_admm(C, G1, G2, cfg)
        p2, _ = solve_admm(C, G1, G2, cfg)
        assert t1.support_sizes.size == 0
        assert np.array_equal(p1.alpha, p2.alpha)
        assert np.array_equal(p1.beta, p2.beta)
        assert np.array_equal(p1.gamma, p2.gamma)


def prox_case(case):
    """Cost, grams and config of an ADMM instance named ``case``.

    ``blob<seed>``: the domain-adaptation settings (rho 200, 40 cycles);
    ``hard<rho>-<seed>-<m>x<n>``: one cold prox solve under a heavy penalty;
    ``gauss<m>x<n>``: criterion 4's settings on a rectangular instance;
    ``cli150``: three cycles at the CLI round trip's size.
    """
    if case.startswith("blob"):
        cfg = SolverConfig(
            rho_admm=200.0, max_outer_iters=40, max_inner_iters=300,
            tol_residual=1e-300,
        )
        return (*blob_instance(int(case[4:])), cfg)
    if case.startswith("hard"):
        rho, seed, shape = case[4:].split("-")
        m, n = map(int, shape.split("x"))
        cfg = SolverConfig(
            lambda1=1e3, lambda2=1e3, nu1=1e3, nu2=1e3, rho_admm=float(rho),
            max_outer_iters=1,
        )
        return (*gaussian_instance(int(seed), m=m, n=n), cfg)
    if case.startswith("gauss"):
        m, n = map(int, case[5:].split("x"))
        cfg = SolverConfig(
            rho_admm=200.0, max_outer_iters=500, max_inner_iters=300,
            tol_residual=1e-4, tol_gap=1e-9,
        )
        return (*gaussian_instance(7, m=m, n=n), cfg)
    return (*cli_scale_instance(), SolverConfig(rho_admm=200.0, max_outer_iters=3))


def counting(calls, fn):
    """``fn`` recording the bytes of its one argument in ``calls``."""
    def wrapped(A):
        calls.append(A.tobytes())
        return fn(A)
    return wrapped


HARD_PROX_CASES = [
    f"hard{rho}-{seed}-{shape}"
    for rho in ("0.01", "0.1") for seed in range(3) for shape in ("6x8", "12x12")
]


class TestProxKeptFactor:
    """The prox solve's kept Newton factor and deferred dual against the
    solve that rebuilds both at every step (``oracles.prox_simplex_rebuilt``)."""

    @staticmethod
    def both(monkeypatch, case):
        """Factorizations and results of ``solve_admm`` as is, then with the
        rebuilding prox patched in."""
        C, G1, G2, cfg = prox_case(case)
        kept, rebuilt = [], []
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_cholesky", counting(kept, solvers._cholesky))
            ours = solve_admm(C, G1, G2, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_prox_simplex", prox_simplex_rebuilt)
            patch.setattr(oracles, "cholesky", counting(rebuilt, oracles.cholesky))
            theirs = solve_admm(C, G1, G2, cfg)
        return kept, rebuilt, ours, theirs

    @pytest.mark.parametrize(
        "case",
        ["blob0", "blob1", "blob2", *HARD_PROX_CASES, "gauss4x7", "gauss7x4", "cli150"],
    )
    def test_bitwise_as_rebuilt(self, monkeypatch, case):
        kept, rebuilt, (plan, trace), (ref, ref_trace) = self.both(monkeypatch, case)
        for name in ("alpha", "beta", "gamma"):
            assert getattr(plan, name).tobytes() == getattr(ref, name).tobytes()
        for name in ("objective_per_iter", "gap_or_residual_per_iter"):
            assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes()
        for name in ("prox_newton_steps", "inner_cap_hits", "nnls_solves", "stop_reason"):
            assert getattr(trace, name) == getattr(ref_trace, name)
        if case.startswith("hard"):
            # Some step was damped: it factored more than one matrix.
            assert len(rebuilt) > ref_trace.prox_newton_steps

    @pytest.mark.parametrize("case", ["blob0", "blob1", "blob2"])
    def test_factored_once_per_active_set_change(self, monkeypatch, case):
        kept, rebuilt, (_, trace), _ = self.both(monkeypatch, case)
        # No step is damped here: the rebuilding solve factors one
        # undamped matrix per Newton step, and the kept factor is refreshed
        # exactly where that matrix (so the active set) changes.
        assert len(rebuilt) == trace.prox_newton_steps >= 40
        changes = [i for i in range(1, len(rebuilt)) if rebuilt[i] != rebuilt[i - 1]]
        assert kept == [rebuilt[0]] + [rebuilt[i] for i in changes]
        assert len(kept) == len(changes) + 1 <= 4
        if case == "blob0":
            # Here the active set goes A -> B -> A, and A is factored
            # again: only the last system is kept.
            assert len(set(kept)) < len(kept)


def assert_close_rel(actual, expected, rel=1e-12):
    """Entry-wise agreement to ``rel`` of the largest magnitude of ``expected``."""
    scale = float(np.abs(expected).max())
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * scale)


class TestNnlsColumns:
    """The column-wise NNLS of the beta/gamma fits against scipy column by column.

    ``A`` is a gram of the domain-adaptation shape (two 12-point blobs,
    sigma 0.5) divided by its size, ill-conditioned as in
    ``domain_adapt_admm``; ``B`` is a 40-cycle ADMM plan with its column 3
    zeroed.
    """

    @staticmethod
    def case(side):
        C, G1, G2 = blob_instance(0)
        plan, _ = solve_admm(C, G1, G2, SolverConfig(rho_admm=200.0, max_outer_iters=40))
        if side == "beta":
            A, B = G1.entries / 24.0, plan.alpha.copy()
        else:
            A, B = G2.entries / 24.0, plan.alpha.T.copy()
        B[:, 3] = 0.0
        ref = np.array([nnls(A, b)[0] for b in B.T])
        assert np.linalg.cond(A) > 1e6
        return A, B, ref, ref > 0.0

    @pytest.mark.parametrize("side", ["beta", "gamma"])
    def test_cold_fit_is_scipy_column_by_column(self, side):
        A, B, ref, _ = self.case(side)
        X, solves = _nnls_columns(A, B)
        assert np.array_equal(X, ref)
        assert solves == B.shape[1] - 1

    @pytest.mark.parametrize("side", ["beta", "gamma"])
    def test_true_passive_set_needs_no_fallback(self, side):
        A, B, ref, T = self.case(side)
        cache = {}
        X, solves = _nnls_columns(A, B, T, cache)
        assert solves == 0
        assert_close_rel(X, ref)
        assert len(cache) == len({row.tobytes() for row in T})
        X2, solves = _nnls_columns(A, B, T, cache)
        assert solves == 0 and np.array_equal(X2, X)

    @pytest.mark.parametrize("guess", ["empty", "subset", "superset", "all", "disjoint"])
    @pytest.mark.parametrize("side", ["beta", "gamma"])
    def test_wrong_passive_set_falls_back(self, side, guess):
        A, B, ref, T = self.case(side)
        rows = np.arange(T.shape[0])
        if guess == "empty":
            G = np.zeros_like(T)
        elif guess == "subset":
            G = T.copy()
            G[rows, np.argmax(T, axis=1)] = False
        elif guess == "superset":
            # The most clearly inactive cell: adding it makes its
            # least-squares weight negative.
            W = (B - A @ ref.T).T @ A
            G = T.copy()
            G[rows, np.argmin(np.where(T, np.inf, W), axis=1)] = True
        elif guess == "all":
            G = np.ones_like(T)
        else:
            G = ~T
        X, solves = _nnls_columns(A, B, G, {})
        assert solves == B.shape[1] - 1
        assert_close_rel(X, ref)

    def test_zero_column_gives_zero_row(self):
        A, B, _, T = self.case("beta")
        for G in (T, np.ones_like(T), None):
            X, _ = _nnls_columns(A, B, G, {})
            assert np.array_equal(X[3], np.zeros(A.shape[1]))


class TestAdmmWarmFit:
    """The warm-started beta/gamma fit over many ADMM cycles."""

    @pytest.mark.parametrize(
        "seed,cycles",
        list(enumerate([1, 55, 125, 1, 100, 58, 192, 36, 1, 453])),
    )
    def test_criterion_4_cycle_counts(self, seed, cycles):
        C, G1, G2 = gaussian_instance(seed)
        cfg = SolverConfig(
            rho_admm=200.0, max_outer_iters=500, max_inner_iters=300,
            tol_residual=1e-4, tol_gap=1e-9,
        )
        _, trace = solve_admm(C, G1, G2, cfg)
        assert trace.converged and trace.iters_used == cycles
        assert trace.inner_cap_hits == 0

    def test_matches_fits_forced_through_scipy(self, monkeypatch):
        C, G1, G2 = blob_instance(1)
        cfg = SolverConfig(
            rho_admm=200.0, max_outer_iters=40, max_inner_iters=300,
            tol_residual=1e-300,
        )
        warm, warm_trace = solve_admm(C, G1, G2, cfg)
        cold_fit = solvers._nnls_columns
        monkeypatch.setattr(
            solvers, "_nnls_columns", lambda A, B, guess, cache: cold_fit(A, B)
        )
        cold, cold_trace = solve_admm(C, G1, G2, cfg)
        assert warm_trace.iters_used == cold_trace.iters_used == 40
        assert cold_trace.nnls_solves == 40 * 2 * 24
        assert warm_trace.nnls_solves < cold_trace.nnls_solves
        for name in ("alpha", "beta", "gamma"):
            assert_close_rel(getattr(warm, name), getattr(cold, name))
        np.testing.assert_allclose(
            warm_trace.gap_or_residual_per_iter,
            cold_trace.gap_or_residual_per_iter, rtol=1e-9,
        )

    def test_nnls_solves_count_scipy_fits(self):
        # The first cycle fits every non-zero column with scipy; later
        # cycles send only the columns whose warm start fails.
        C, G1, G2 = blob_instance(0)
        cfg = SolverConfig(rho_admm=200.0, max_outer_iters=1)
        plan, first = solve_admm(C, G1, G2, cfg)
        nonzero = np.count_nonzero(plan.alpha.any(axis=0)) + np.count_nonzero(
            plan.alpha.any(axis=1)
        )
        assert first.nnls_solves == nonzero
        cfg = SolverConfig(rho_admm=200.0, max_outer_iters=40, tol_residual=1e-300)
        _, trace = solve_admm(C, G1, G2, cfg)
        assert nonzero <= trace.nnls_solves < 40 * 2 * 24


class TestProjectSimplex:
    @pytest.mark.parametrize("n", [1, 5, 576])
    @pytest.mark.parametrize("kind", ["wide", "narrow", "tied", "constant"])
    def test_matches_bisection_oracle(self, n, kind):
        rng = np.random.default_rng(n)
        v = {
            "wide": lambda: rng.normal(size=n),
            "narrow": lambda: rng.normal(scale=1.0 / n, size=n),
            "tied": lambda: rng.integers(-2, 3, size=n) / 4.0,
            "constant": lambda: np.full(n, 0.3),
        }[kind]()
        x = _project_simplex(v)
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(
            x, simplex_projection_by_bisection(v), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 5, 576])
    def test_identity_on_simplex(self, n):
        rng = np.random.default_rng(n)
        sparse_point = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.3)
        sparse_point[0] += 1.0 - sparse_point.sum()
        for p in (
            np.full(n, 1.0 / n),
            np.eye(n)[n - 1],
            rng.dirichlet(np.ones(n)),
            sparse_point,
        ):
            np.testing.assert_allclose(_project_simplex(p), p, rtol=0, atol=1e-12)


class TestSolveEmdExact:
    def test_two_by_two_diagonal(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi, obj = solve_emd_exact(C)
        np.testing.assert_allclose(pi, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self):
        pi, obj = solve_emd_exact(np.array([[3.5]]))
        np.testing.assert_allclose(pi, [[1.0]])
        assert obj == pytest.approx(3.5)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_cost_raises(self, bad, n):
        C = np.ones((2, n))
        C[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve_emd_exact(C)

    def test_rectangular_vs_vertex_enumeration(self):
        C = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        _, obj = solve_emd_exact(C)
        _, expected = emd_by_vertex_enumeration(C)
        assert obj == pytest.approx(expected, abs=1e-12)

    def test_random_instances_vs_vertex_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            C = rng.random((m, n))
            pi, obj = solve_emd_exact(C)
            _, expected = emd_by_vertex_enumeration(C)
            assert abs(obj - expected) <= 1e-9
            np.testing.assert_allclose(pi.sum(axis=1), np.full(m, 1.0 / m), atol=1e-12)
            np.testing.assert_allclose(pi.sum(axis=0), np.full(n, 1.0 / n), atol=1e-12)

    def test_square_at_cap_vs_linear_program(self):
        # 100 x 100 is the largest square instance under the cell cap.
        for seed in range(3):
            C = np.random.default_rng(seed).random((100, 100))
            pi, obj = solve_emd_exact(C)
            _, expected = emd_by_linear_program(C)
            assert abs(obj - expected) <= 1e-12
            np.testing.assert_allclose(pi.sum(axis=1), np.full(100, 0.01), atol=1e-12)
            np.testing.assert_allclose(pi.sum(axis=0), np.full(100, 0.01), atol=1e-12)

    @pytest.mark.parametrize("m,n", [(12, 18), (18, 12), (7, 5), (40, 250)])
    def test_rectangular_vs_replicated_assignment(self, m, n):
        # Repeating row i L/m times and column j L/n times, L = lcm(m, n),
        # turns uniform-marginal OT into an L x L assignment problem.
        C = np.random.default_rng(m * n).random((m, n))
        L = np.lcm(m, n)
        big = np.repeat(np.repeat(C, L // m, axis=0), L // n, axis=1)
        rows, cols = linear_sum_assignment(big)
        expected = float(big[rows, cols].sum()) / L
        pi, obj = solve_emd_exact(C)
        assert abs(obj - expected) <= 1e-12
        assert np.all(pi >= 0.0)
        np.testing.assert_allclose(pi.sum(axis=1), np.full(m, 1.0 / m), atol=1e-12)
        np.testing.assert_allclose(pi.sum(axis=0), np.full(n, 1.0 / n), atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ShapeError):
            solve_emd_exact(np.zeros((101, 101)))

    def test_cost_must_be_two_dimensional(self):
        with pytest.raises(ShapeError, match="2-d"):
            solve_emd_exact(np.zeros(4))
