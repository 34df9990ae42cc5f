import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from mmdot.dataio import LabeledDataset
from mmdot.errors import DatasetError, ShapeError
from mmdot.experiments import (
    GaussianPair,
    derive_beta,
    fit_plan_model,
    gaussian_ground_truth_map,
    gaussian_map_matrix,
    make_gaussian_pair,
    run_domain_adaptation,
    run_gaussian_experiment,
    run_sample_complexity_study,
    sample_gaussian,
)
from mmdot.kernels import GAUSSIAN, KernelSpec, gram, squared_euclidean_cost
from mmdot.solvers import SolverConfig, solve_simplified
from mmdot.transport_map import map_points_closed_form


class TestGaussianPair:
    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError):
            GaussianPair(
                mean1=np.zeros(2), mean2=np.zeros(2), cov1=cov, cov2=np.eye(2) / 2
            )

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError):
            GaussianPair(
                mean1=np.zeros(2),
                mean2=np.zeros(2),
                cov1=np.eye(2),  # trace 2
                cov2=np.eye(2) / 2,
            )


class TestMakeGaussianPair:
    def test_unit_trace(self):
        for d, seed in [(1, 0), (3, 1), (10, 2), (50, 3)]:
            pair = make_gaussian_pair(d, seed)
            assert abs(np.trace(pair.cov1) - 1.0) <= 1e-10
            assert abs(np.trace(pair.cov2) - 1.0) <= 1e-10

    def test_one_dimensional_is_degenerate(self):
        pair = make_gaussian_pair(1, seed=5)
        np.testing.assert_allclose(pair.cov1, [[1.0]])
        np.testing.assert_allclose(pair.cov2, [[1.0]])

    def test_deterministic(self):
        a = make_gaussian_pair(4, seed=9)
        b = make_gaussian_pair(4, seed=9)
        assert np.array_equal(a.cov1, b.cov1)
        assert np.array_equal(a.cov2, b.cov2)

    def test_psd(self):
        pair = make_gaussian_pair(6, seed=11)
        assert np.linalg.eigvalsh(pair.cov1)[0] >= -1e-10

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            make_gaussian_pair(0, seed=0)


class TestGroundTruthMap:
    def test_equal_covariances_identity(self):
        cov = make_gaussian_pair(3, seed=0).cov1
        pair = GaussianPair(
            mean1=np.zeros(3), mean2=np.ones(3), cov1=cov, cov2=cov.copy()
        )
        A = gaussian_map_matrix(pair)
        np.testing.assert_allclose(A, np.eye(3), atol=1e-8)
        x = np.array([0.3, -0.2, 0.5])
        np.testing.assert_allclose(
            gaussian_ground_truth_map(pair, x), np.ones(3) + x, atol=1e-8
        )

    def test_axis_aligned_ratio(self):
        # Diagonal covariances decouple per axis: A = diag(s2_i / s1_i).
        pair = GaussianPair(
            mean1=np.zeros(2),
            mean2=np.zeros(2),
            cov1=np.diag([0.8, 0.2]),
            cov2=np.diag([0.5, 0.5]),
        )
        A = gaussian_map_matrix(pair)
        expected = np.diag([np.sqrt(0.5 / 0.8), np.sqrt(0.5 / 0.2)])
        np.testing.assert_allclose(A, expected, atol=1e-10)

    def test_pushforward_identity_small(self):
        pair = make_gaussian_pair(2, seed=3)
        A = gaussian_map_matrix(pair)
        np.testing.assert_allclose(A @ pair.cov1 @ A.T, pair.cov2, atol=1e-8)

    def test_pushforward_identity_up_to_d50(self):
        for seed, d in enumerate([5, 10, 25, 50]):
            pair = make_gaussian_pair(d, seed)
            A = gaussian_map_matrix(pair)
            err = np.linalg.norm(A @ pair.cov1 @ A.T - pair.cov2)
            assert err <= 1e-8

    def test_batch_matches_single(self):
        pair = make_gaussian_pair(3, seed=4)
        X = np.random.default_rng(0).normal(size=(5, 3))
        batch = gaussian_ground_truth_map(pair, X)
        for i in range(5):
            np.testing.assert_allclose(
                batch[i], gaussian_ground_truth_map(pair, X[i]), atol=1e-12
            )


def test_sample_gaussian_empirical_covariance():
    pair = make_gaussian_pair(4, seed=6)
    rng = np.random.default_rng(123)
    X = sample_gaussian(pair.mean1, pair.cov1, 100_000, rng)
    emp = (X - X.mean(axis=0)).T @ (X - X.mean(axis=0)) / X.shape[0]
    rel = np.linalg.norm(emp - pair.cov1) / np.linalg.norm(pair.cov1)
    assert rel <= 0.05


class TestDeriveBeta:
    def test_identity_gram_exact(self):
        rng = np.random.default_rng(0)
        alpha = rng.random((3, 4))
        alpha /= alpha.sum()
        beta = derive_beta(alpha, np.eye(3))
        np.testing.assert_allclose(beta, 3.0 * alpha.T, atol=1e-8)

    def test_nonnegative_and_consensus_fit(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        G1 = gram(KernelSpec(GAUSSIAN, sigma=1.0), X, X)
        alpha = rng.random((5, 5))
        alpha /= alpha.sum()
        beta = derive_beta(alpha, G1)
        assert np.all(beta >= 0.0)
        # The exact NNLS fit should do no worse than plain clamping.
        fit = np.linalg.norm(alpha - (G1.entries @ beta.T) / 5.0)
        Bt = cho_solve(cho_factor(G1.entries + 1e-8 * np.eye(5)), 5.0 * alpha)
        clamp = np.maximum(Bt, 0.0)
        fit_clamp = np.linalg.norm(alpha - (G1.entries @ clamp) / 5.0)
        assert fit <= fit_clamp + 1e-12

    def test_zero_columns_give_zero_rows(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 2))
        alpha = rng.random((6, 5))
        alpha[:, [1, 3]] = 0.0
        alpha /= alpha.sum()
        beta = derive_beta(alpha, gram(KernelSpec(GAUSSIAN, sigma=1.0), X, X))
        assert np.all(beta[[1, 3]] == 0.0)
        assert np.any(beta[[0, 2, 4]] > 0.0)

    def test_ill_conditioned_gram_fits_no_worse_than_zero(self):
        # Slope-study instance d=5, sigma=5, m=200: cond(G1) is about 2e17.
        # beta = 0 leaves a residual of ||alpha||_F, so no fit may exceed it.
        m = 200
        pair = make_gaussian_pair(5, seed=0)
        rng = np.random.default_rng([0, m])
        X = sample_gaussian(pair.mean1, pair.cov1, m, rng)
        Y = sample_gaussian(pair.mean2, pair.cov2, m, rng)
        kernel = KernelSpec(GAUSSIAN, sigma=5.0)
        G1 = gram(kernel, X, X)
        plan, trace = solve_simplified(
            squared_euclidean_cost(X, Y), G1, gram(kernel, Y, Y),
            SolverConfig(tol_gap=1e-7),
        )
        assert trace.converged
        beta = derive_beta(plan.alpha, G1)
        resid = np.linalg.norm(plan.alpha - G1.entries @ beta.T / m)
        assert resid <= np.linalg.norm(plan.alpha)


class TestRunGaussianExperiment:
    def test_degenerate_dimension_smoke(self):
        # d=1 unit-trace forces equal covariances, so the truth map is the
        # identity; the learned map should track it to well under the data
        # variance.
        rep = run_gaussian_experiment(
            d=1, m_values=[50], sigma=0.3, repeats=1, cfg=SolverConfig(seed=0),
            oos_count=50,
        )
        r = rep.records[0]
        assert not r["failed"]
        assert r["mse_in_sample"] <= 0.5
        assert np.isfinite(r["mse_oos"])

    def test_emd_baseline_has_no_oos_field(self):
        rep = run_gaussian_experiment(
            d=2, m_values=[10], sigma=1.0, repeats=1, cfg=SolverConfig(seed=0),
            oos_count=10,
        )
        r = rep.records[0]
        assert "emd_mse" in r and "emd_mse_oos" not in r
        assert "cannot map out-of-sample" in rep.details["note"]

    def test_deterministic(self):
        kwargs = dict(
            d=2, m_values=[10], sigma=1.0, repeats=2, cfg=SolverConfig(seed=3),
            oos_count=10,
        )
        a = run_gaussian_experiment(**kwargs)
        b = run_gaussian_experiment(**kwargs)
        for ra, rb in zip(a.records, b.records):
            assert ra["mse_in_sample"] == rb["mse_in_sample"]
            assert ra["mse_oos"] == rb["mse_oos"]

    def test_aggregates_recomputable_from_records(self):
        rep = run_gaussian_experiment(
            d=2, m_values=[8, 12], sigma=1.0, repeats=2, cfg=SolverConfig(seed=1),
            oos_count=8,
        )
        for key, entry in rep.aggregates.items():
            d, m = (int(tok.split("=")[1]) for tok in key.split(","))
            rs = [r for r in rep.records if r["d"] == d and r["m"] == m]
            vals = [r["mse_in_sample"] for r in rs if not r.get("failed")]
            assert entry["mse_in_sample_mean"] == pytest.approx(np.mean(vals))
            assert entry["runs"] == len(vals)

    @pytest.mark.parametrize("repeats, oos_count", [(0, 8), (1, 0)])
    def test_rejects_empty_protocol(self, repeats, oos_count):
        with pytest.raises(ValueError):
            run_gaussian_experiment(
                d=2, m_values=[8], sigma=1.0, repeats=repeats,
                cfg=SolverConfig(), oos_count=oos_count,
            )

    def test_rejects_empty_m_values(self):
        with pytest.raises(ValueError, match="at least one sample count"):
            run_gaussian_experiment(
                d=2, m_values=[], sigma=1.0, repeats=1, cfg=SolverConfig(),
                oos_count=8,
            )

    @pytest.mark.parametrize("m_values", [[0, 1], [8, -1]])
    def test_rejects_sample_count_below_one(self, m_values):
        with pytest.raises(ValueError, match="each >= 1"):
            run_gaussian_experiment(
                d=2, m_values=m_values, sigma=1.0, repeats=1, cfg=SolverConfig(),
                oos_count=8,
            )


class TestSampleComplexity:
    @pytest.mark.parametrize("m_values", [[], [5]])
    def test_rejects_fewer_than_two_counts(self, m_values):
        with pytest.raises(ValueError, match="two sample counts"):
            run_sample_complexity_study(
                d=2, m_values=m_values, sigma=1.0, cfg=SolverConfig(), seed=0
            )

    def test_rejects_non_increasing_m(self):
        with pytest.raises(ValueError):
            run_sample_complexity_study(
                d=2, m_values=[10, 10], sigma=1.0, cfg=SolverConfig(), seed=0
            )

    def test_rejects_small_ref_multiplier(self):
        with pytest.raises(ValueError):
            run_sample_complexity_study(
                d=2, m_values=[5, 10], sigma=1.0, cfg=SolverConfig(), seed=0,
                ref_multiplier=4,
            )

    def test_schema_and_determinism(self):
        kwargs = dict(
            d=2, m_values=[5, 10, 20], sigma=1.0, cfg=SolverConfig(), seed=2
        )
        a = run_sample_complexity_study(**kwargs)
        b = run_sample_complexity_study(**kwargs)
        assert a.details["fitted_slope"] == b.details["fitted_slope"]
        assert a.details["m_ref"] == 160
        assert all(e >= 0.0 for e in a.details["errors"])
        assert len(a.records) == 3


def blob_dataset(rng, centers, per_class, noise=0.15, shift=None):
    feats, labels = [], []
    for label, c in enumerate(centers):
        pts = rng.normal(scale=noise, size=(per_class, len(c))) + np.asarray(c)
        if shift is not None:
            pts = pts + np.asarray(shift)
        feats.append(pts)
        labels += [label] * per_class
    return LabeledDataset(
        features=np.vstack(feats), labels=np.array(labels, dtype=int)
    )


class TestDomainAdaptation:
    CENTERS = [(0.0, 0.0), (3.0, 3.0)]

    def test_same_domain_high_accuracy(self):
        rng = np.random.default_rng(0)
        src = blob_dataset(rng, self.CENTERS, 15)
        rep = run_domain_adaptation(
            src, src, src, sigma=0.5, cfg=SolverConfig(seed=0)
        )
        assert rep.records[0]["accuracy_in_sample"] >= 0.95

    def test_shifted_domain(self):
        rng = np.random.default_rng(1)
        shift = (1.5, -1.0)
        src = blob_dataset(rng, self.CENTERS, 15)
        tgt_train = blob_dataset(rng, self.CENTERS, 15, shift=shift)
        tgt_test = blob_dataset(rng, self.CENTERS, 10, shift=shift)
        rep = run_domain_adaptation(
            src, tgt_train, tgt_test, sigma=0.5, cfg=SolverConfig(seed=0)
        )
        assert rep.records[0]["accuracy_in_sample"] >= 0.9

    def test_oos_accuracy_optional(self):
        rng = np.random.default_rng(2)
        src = blob_dataset(rng, self.CENTERS, 10)
        rep = run_domain_adaptation(
            src, src, src, sigma=0.5, cfg=SolverConfig(seed=0)
        )
        assert "accuracy_oos" not in rep.records[0]
        oos = blob_dataset(rng, self.CENTERS, 5)
        rep2 = run_domain_adaptation(
            src, src, src, sigma=0.5, cfg=SolverConfig(seed=0), oos_source=oos
        )
        assert "accuracy_oos" in rep2.records[0]

    def test_admm_report_carries_no_solver_telemetry(self):
        # The trace's prox telemetry stays out of the study report.
        rng = np.random.default_rng(4)
        src = blob_dataset(rng, self.CENTERS, 6)
        oos = blob_dataset(rng, self.CENTERS, 3)
        cfg = SolverConfig(rho_admm=200.0, max_outer_iters=5, seed=0)
        rep = run_domain_adaptation(
            src, src, src, sigma=0.5, cfg=cfg, oos_source=oos, method="admm"
        )
        doc = rep.to_dict()
        assert set(doc) == {"kind", "records", "aggregates", "details"}
        assert doc["details"] == {"method": "admm"} and doc["aggregates"] == {}
        assert set(doc["records"][0]) == {
            "sigma", "seed", "m", "n", "accuracy_in_sample", "cond_G1",
            "cond_G2", "converged", "accuracy_oos",
        }

    def test_unseen_test_label_rejected(self):
        rng = np.random.default_rng(3)
        src = blob_dataset(rng, [self.CENTERS[0]], 10)  # only label 0
        tgt = blob_dataset(rng, self.CENTERS, 10)  # labels 0 and 1
        with pytest.raises(DatasetError):
            run_domain_adaptation(src, tgt, tgt, sigma=0.5, cfg=SolverConfig())

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        src = blob_dataset(rng, self.CENTERS, 5)
        tgt = blob_dataset(rng, [(0.0,), (3.0,)], 5)
        with pytest.raises(ShapeError):
            run_domain_adaptation(src, tgt, tgt, sigma=0.5, cfg=SolverConfig())


def test_fit_plan_model_reports_condition_numbers():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 2))
    Y = rng.normal(size=(6, 2))
    model, plan, trace, info = fit_plan_model(X, Y, 1.0, SolverConfig())
    assert info["cond_G1"] >= 1.0 and info["cond_G2"] >= 1.0
    # Well-conditioned grams: the eigenvalue ratio is the 2-norm condition.
    kernel = KernelSpec(GAUSSIAN, sigma=1.0)
    for key, P in (("cond_G1", X), ("cond_G2", Y)):
        expected = np.linalg.cond(gram(kernel, P, P).entries)
        assert expected < 1e6
        assert info[key] == pytest.approx(expected, rel=1e-6)
    assert info["converged"] == trace.converged
    assert np.all(model.beta_star >= 0.0)


def test_fit_plan_model_singular_gram_condition_is_none():
    # Identical source points give the gram [[1, 1], [1, 1]]: a zero
    # eigenvalue, so no finite condition number, and no warning.
    X = np.zeros((2, 2))
    Y = np.array([[0.5, 0.0], [1.0, 1.0]])
    _, _, _, info = fit_plan_model(X, Y, 1.0, SolverConfig())
    assert info["cond_G1"] is None
    expected = np.linalg.cond(gram(KernelSpec(GAUSSIAN, sigma=1.0), Y, Y).entries)
    assert info["cond_G2"] == pytest.approx(expected, rel=1e-12)


def test_fit_plan_model_admm_uses_solver_beta():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 2))
    Y = rng.normal(size=(4, 2))
    cfg = SolverConfig(rho_admm=50.0, max_outer_iters=200, max_inner_iters=200)
    model, plan, trace, info = fit_plan_model(X, Y, 1.0, cfg, method="admm")
    assert plan.beta is not None
    assert np.array_equal(model.beta_star, plan.beta)


def test_fit_plan_model_reads_one_dimensional_samples_as_columns():
    # A 1-d sample set is m points in one dimension, for the grams, the
    # cost and the model alike.
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=6), rng.normal(size=6)
    flat, plan, _, _ = fit_plan_model(x, y, 1.0, SolverConfig())
    column, plan_c, _, _ = fit_plan_model(x[:, None], y[:, None], 1.0, SolverConfig())
    assert plan.alpha.tobytes() == plan_c.alpha.tobytes()
    assert flat.beta_star.tobytes() == column.beta_star.tobytes()
    assert flat.source_points.shape == (6, 1)
    queries = np.linspace(-2.0, 2.0, 9)[:, None]
    mapped, _ = map_points_closed_form(flat, queries)
    mapped_c, _ = map_points_closed_form(column, queries)
    assert mapped.tobytes() == mapped_c.tobytes()
