import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oracles import (
    emd_by_linear_program,
    emd_by_vertex_enumeration,
    penalized_objective,
    prox_kkt_gap,
    simplex_grid_min,
    simplex_projection_by_bisection,
)

from mmdot.cli import main as cli_main
from mmdot.dataio import write_matrix_csv
from mmdot.embeddings import CostMatrix, squared_euclidean_cost
from mmdot.errors import NumericalFailureError, ShapeError
from mmdot.experiments import make_gaussian_pair, sample_gaussian
from mmdot.kernels import GAUSSIAN, KernelSpec, gram
from mmdot.solvers import (
    SolverConfig,
    _forest_cycle,
    _penalty_matrices,
    _point_classes,
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
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveSimplified:
    def test_linear_objective_hits_min_cost_vertex(self):
        C = CostMatrix(entries=np.array([[3.0, 1.0], [2.0, 5.0]]))
        cfg = SolverConfig(lambda1=0, lambda2=0, nu1=0, nu2=0)
        plan, trace = solve_simplified(C, np.eye(2), np.eye(2), cfg)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(plan.alpha, expected, atol=1e-12)
        assert trace.objective_per_iter[-1] == pytest.approx(1.0, abs=1e-10)
        assert trace.converged

    def test_singleton(self):
        plan, trace = solve_simplified(
            CostMatrix(entries=np.array([[7.0]])),
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
            plan, _ = solve_simplified(
                CostMatrix(entries=C), np.eye(3), np.eye(3), cfg
            )
            _, emd_obj = emd_by_vertex_enumeration(C)
            assert abs(float(np.sum(plan.alpha * C)) - emd_obj) < 1e-2

    def test_feasibility_invariants(self):
        for seed in range(5):
            C, G1, G2 = gaussian_instance(seed)
            plan, _ = solve_simplified(C, G1, G2, SolverConfig())
            assert np.all(plan.alpha >= 0.0)
            assert abs(plan.alpha.sum() - 1.0) <= 1e-10

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
            plan.alpha, C.entries, G1.entries, G2.entries, 2.0, 3.0, 0.5, 1.5
        )
        # Final reported objective is for the pre-cleanup iterate; re-evaluate.
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
        a, L, K1, K2 = plan.alpha, C.entries, G1.entries, G2.entries
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
        cost = C.entries.copy()
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
            C.entries, G1.entries, G2.entries, 2.0, 2.0, 1.0, 1.0, step=5e-3
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
        assert np.all(np.diff(trace.objective_per_iter) <= 0.0)

    def test_indefinite_support_qp_raises_with_trace(self):
        # An indefinite "gram" makes the support QP non-convex; its failed
        # Cholesky factorization surfaces as a NumericalFailureError.
        G1 = np.array([[1.0, -3.0], [-3.0, 1.0]])
        cfg = SolverConfig(lambda1=1.0, nu1=0.0, lambda2=0.0, nu2=0.0)
        with pytest.raises(NumericalFailureError) as info:
            solve_simplified(
                CostMatrix(entries=np.zeros((2, 1))), G1, np.ones((1, 1)), cfg
            )
        assert "support solve" in str(info.value)
        assert info.value.trace.iters_used == 1

    def test_fixed_point_stops_before_budget(self):
        # Slope-study-shaped instance with an unreachable gap target: the
        # loop stops at its fixed point instead of running the budget out.
        pair = make_gaussian_pair(5, seed=0)
        rng = np.random.default_rng([0, 50])
        X = sample_gaussian(pair.mean1, pair.cov1, 50, rng)
        Y = sample_gaussian(pair.mean2, pair.cov2, 50, rng)
        kernel = KernelSpec(GAUSSIAN, sigma=5.0)
        cfg = SolverConfig(tol_gap=1e-300, max_outer_iters=1200)
        _, trace = solve_simplified(
            squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y), cfg
        )
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
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 1))
        Y = rng.normal(size=(6, 1))
        X[1] = X[0] + 1e-6 * rng.normal(size=1)
        Y[2] = Y[3] + 1e-6 * rng.normal(size=1)
        plan, trace = solve_simplified(
            squared_euclidean_cost(X, Y), gram(GAUSS1, X, X), gram(GAUSS1, Y, Y),
            SolverConfig(),
        )
        assert trace.stop_reason == "stall"
        assert trace.converged is False
        assert trace.iters_used <= 10
        assert trace.gap_or_residual_per_iter[-1] > SolverConfig().tol_gap
        assert abs(plan.alpha.sum() - 1.0) <= 1e-12

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
                CostMatrix(entries=np.ones((2, 3))), np.eye(3), np.eye(3), SolverConfig()
            )


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


class TestSolveAdmm:
    def test_singleton_consensus(self):
        cfg = SolverConfig(lambda1=0, lambda2=0, nu1=0, nu2=0)
        plan, trace = solve_admm(
            CostMatrix(entries=np.array([[4.0]])),
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
        C = CostMatrix(entries=np.array([[0.0, 2.0], [2.0, 0.0]]))
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
        # Final cleanup renormalizes alpha; allow a small slack over the stop tol.
        assert res1 <= 2e-4 and res2 <= 2e-4
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
        assert res1 <= 2e-4 and res2 <= 2e-4

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
        assert prox_kkt_gap(H1, H2, rho, C.entries / (2.0 * rho), plan.alpha) <= 1e-9

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
        pair = make_gaussian_pair(5, seed=901)
        rng = np.random.default_rng(901)
        X = sample_gaussian(pair.mean1, pair.cov1, 150, rng)
        Y = sample_gaussian(pair.mean2, pair.cov2, 150, rng)
        kernel = KernelSpec(GAUSSIAN, sigma=0.5)
        C, G1, G2 = squared_euclidean_cost(X, Y), gram(kernel, X, X), gram(kernel, Y, Y)
        rho = 200.0
        _, trace = solve_admm(C, G1, G2, SolverConfig(rho_admm=rho, max_outer_iters=3))
        assert trace.iters_used == 3 and trace.inner_cap_hits == 0
        cfg = SolverConfig(rho_admm=rho, max_outer_iters=1)
        plan, trace = solve_admm(C, G1, G2, cfg)
        H1, H2 = _penalty_matrices(G1.entries, G2.entries, cfg)
        assert trace.inner_cap_hits == 0
        assert prox_kkt_gap(H1, H2, rho, C.entries / (2.0 * rho), plan.alpha) <= 1e-9

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
        assert prox_kkt_gap(H1, H2, rho, C.entries / (2.0 * rho), plan.alpha) <= 1e-9

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_raises(self, bad):
        C, G1, G2 = gaussian_instance(3)
        cost = C.entries.copy()
        cost[1, 2] = bad
        with pytest.raises(NumericalFailureError):
            solve_admm(cost, G1, G2, SolverConfig(max_outer_iters=3))

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
            plan.alpha, C.entries, G1.entries, G2.entries, 10.0, 10.0, 10.0, 10.0
        )
        assert trace.objective_per_iter[-1] == pytest.approx(expected, rel=1e-12)

    def test_determinism_bit_identical(self):
        C, G1, G2 = gaussian_instance(5)
        cfg = SolverConfig(rho_admm=50.0, max_outer_iters=40)
        p1, _ = solve_admm(C, G1, G2, cfg)
        p2, _ = solve_admm(C, G1, G2, cfg)
        assert np.array_equal(p1.alpha, p2.alpha)
        assert np.array_equal(p1.beta, p2.beta)
        assert np.array_equal(p1.gamma, p2.gamma)


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
        pi, obj = solve_emd_exact(CostMatrix(entries=C))
        np.testing.assert_allclose(pi, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self):
        pi, obj = solve_emd_exact(CostMatrix(entries=np.array([[3.5]])))
        np.testing.assert_allclose(pi, [[1.0]])
        assert obj == pytest.approx(3.5)

    def test_rectangular_vs_vertex_enumeration(self):
        C = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        _, obj = solve_emd_exact(CostMatrix(entries=C))
        _, expected = emd_by_vertex_enumeration(C)
        assert obj == pytest.approx(expected, abs=1e-12)

    def test_random_instances_vs_vertex_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            C = rng.random((m, n))
            pi, obj = solve_emd_exact(CostMatrix(entries=C, cost_kind="user"))
            _, expected = emd_by_vertex_enumeration(C)
            assert abs(obj - expected) <= 1e-9
            np.testing.assert_allclose(pi.sum(axis=1), np.full(m, 1.0 / m), atol=1e-12)
            np.testing.assert_allclose(pi.sum(axis=0), np.full(n, 1.0 / n), atol=1e-12)

    def test_square_at_cap_vs_linear_program(self):
        # 100 x 100 is the largest square instance under the cell cap.
        for seed in range(3):
            C = np.random.default_rng(seed).random((100, 100))
            pi, obj = solve_emd_exact(CostMatrix(entries=C, cost_kind="user"))
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
        pi, obj = solve_emd_exact(CostMatrix(entries=C, cost_kind="user"))
        assert abs(obj - expected) <= 1e-12
        assert np.all(pi >= 0.0)
        np.testing.assert_allclose(pi.sum(axis=1), np.full(m, 1.0 / m), atol=1e-12)
        np.testing.assert_allclose(pi.sum(axis=0), np.full(n, 1.0 / n), atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(ShapeError):
            solve_emd_exact(np.zeros((101, 101)))
