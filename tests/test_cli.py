import dataclasses
import json

import numpy as np
import pytest

from oracles import emd_by_vertex_enumeration

from mmdot import experiments
from mmdot.cli import _solver_config, build_parser, main
from mmdot.dataio import write_matrix_csv
from mmdot.errors import NumericalFailureError
from mmdot.solvers import SolverConfig
from mmdot import transport_map
from mmdot.transport_map import load_model, save_model


def write_points(path, M):
    write_matrix_csv(path, np.asarray(M, dtype=float))
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


def write_labeled(path, rng, rows):
    """A labeled 2-d CSV of ``rows`` points labeled 0, 1, 0, ...; ``rows=0``
    writes the header only."""
    write_matrix_csv(
        path, rng.normal(size=(rows, 2)),
        extra_columns=[("label", [k % 2 for k in range(rows)])],
    )
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


class TestSolve:
    def test_singleton_alpha(self, workdir):
        src = write_points(workdir / "x.csv", [[0.0]])
        tgt = write_points(workdir / "y.csv", [[1.0]])
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"] == [[1.0]]
        assert doc["converged"] is True
        assert (workdir / "plan.json.manifest.json").exists()

    def test_repeated_rows_converge(self, workdir):
        # Rows drawn with replacement from m // 2 base points: identical
        # points make the support QP singular unless the solver merges them.
        rng = np.random.default_rng(0)
        m = int(rng.integers(3, 12))
        base = rng.normal(size=(m // 2, 2))
        src = write_points(workdir / "x.csv", base[rng.integers(0, m // 2, size=m)])
        tgt = write_points(
            workdir / "y.csv", base[rng.integers(0, m // 2, size=m)] + 0.3
        )
        sigma = float(rng.choice([0.3, 1.0, 3.0]))
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", sigma, "--out", out]
        )
        assert code == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_delta_reduction_matches_emd(self, workdir):
        # A 3x3 integer cost where the heavily penalized program sits within
        # 1e-3 of the exact discrete optimum (the residual regularization
        # bias is instance-dependent; this instance is inside the band).
        C = np.array([[7.0, 9.0, 2.0], [2.0, 7.0, 8.0], [5.0, 1.0, 8.0]])
        cost = write_points(workdir / "cost.csv", C)
        src = write_points(workdir / "x.csv", [[0.0], [1.0], [2.0]])
        tgt = write_points(workdir / "y.csv", [[0.0], [1.0], [2.0]])
        plan_out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "delta",
             "--cost", cost, "--lambda1", 1000, "--lambda2", 1000,
             "--nu1", 1000, "--nu2", 1000, "--max-iters", 20000,
             "--out", plan_out]
        )
        assert code == 0
        emd_out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", emd_out]) == 0
        alpha = np.array(json.loads(plan_out.read_text())["alpha"])
        emd_obj = json.loads(emd_out.read_text())["objective"]
        assert abs(float(np.sum(alpha * C)) - emd_obj) <= 1e-3

    def test_rerun_byte_identical(self, workdir):
        rng = np.random.default_rng(0)
        src = write_points(workdir / "x.csv", rng.normal(size=(4, 2)))
        tgt = write_points(workdir / "y.csv", rng.normal(size=(4, 2)))
        out = workdir / "plan.json"
        args = ["solve", "--source", src, "--target", tgt, "--kernel",
                "gaussian", "--sigma", 1.0, "--seed", 3, "--out", out]
        assert run(args) == 0
        first = out.read_bytes()
        first_manifest = json.loads((workdir / "plan.json.manifest.json").read_text())
        assert run(args) == 0
        assert out.read_bytes() == first
        second_manifest = json.loads((workdir / "plan.json.manifest.json").read_text())
        first_manifest.pop("runtime_seconds")
        second_manifest.pop("runtime_seconds")
        assert first_manifest == second_manifest

    def test_nonconvergence_exit_code_two(self, workdir):
        rng = np.random.default_rng(1)
        src = write_points(workdir / "x.csv", rng.normal(size=(4, 2)))
        tgt = write_points(workdir / "y.csv", rng.normal(size=(4, 2)))
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--max-iters", 2, "--out", out]
        )
        assert code == 2
        assert out.exists()  # results written despite non-convergence

    def test_numerical_failure_exit_two(self, workdir, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise NumericalFailureError("support solve failed: test")

        monkeypatch.setattr("mmdot.cli.solve_simplified", broken)
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", src, "--kernel", "gaussian",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "mmdot solve: error: support solve failed: test" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--lambda1", "nan", "lambda1 must be finite and nonnegative"),
         ("--nu2", "inf", "nu2 must be finite and nonnegative"),
         ("--rho", "inf", "rho_admm must be finite and positive"),
         ("--tol", "inf", "tolerances must be finite and positive"),
         ("--tol-residual", "inf", "tolerances must be finite and positive")],
    )
    def test_non_finite_weight_exit_one(self, workdir, capsys, flag, value, message):
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", src, "--kernel", "gaussian",
             "--sigma", 1.0, flag, value, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot solve: error: {message}"]
        assert not out.exists()
        assert not (workdir / "plan.json.manifest.json").exists()

    def test_missing_sigma_for_gaussian(self, workdir, capsys):
        src = write_points(workdir / "x.csv", [[0.0]])
        code = run(
            ["solve", "--source", src, "--target", src, "--kernel", "gaussian",
             "--out", workdir / "p.json"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot solve: error: Gaussian kernel requires a real sigma > 0"]

    @pytest.mark.parametrize("sigma", [1e200, 1e-170])
    def test_sigma_past_float_range_exit_one(self, workdir, capsys, sigma):
        # 2 sigma^2 overflows, or underflows to zero.
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        out = workdir / "p.json"
        code = run(["solve", "--source", src, "--target", src, "--kernel",
                    "gaussian", "--sigma", sigma, "--out", out])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"mmdot solve: error: Gaussian kernel requires 0 < 2 sigma^2 < inf, got {sigma!r}"
        ]
        assert not out.exists()

    def test_delta_model_records_no_sigma(self, workdir):
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        model = workdir / "model.json"
        assert run(["solve", "--source", src, "--target", src, "--kernel", "delta",
                    "--sigma", 2.0, "--out", workdir / "p.json",
                    "--emit-model", model]) == 0
        kernel = json.loads(model.read_text())["kernel"]
        assert kernel == {"kind": "delta", "sigma": None}

    def test_user_cost_with_emit_model_exit_one(self, workdir, capsys):
        # A model maps with the squared-Euclidean barycenter; it cannot
        # stand for a plan fitted to a user cost.
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        tgt = write_points(workdir / "y.csv", [[0.5], [2.0]])
        cost = write_points(workdir / "c.csv", [[0.5, 2.0], [0.5, 1.0]])
        out, model = workdir / "plan.json", workdir / "model.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--cost", cost, "--out", out, "--emit-model", model]
        )
        assert code == 1
        assert "--emit-model requires --cost sqeuclidean" in capsys.readouterr().err
        assert not out.exists() and not model.exists()
        assert not (workdir / "plan.json.manifest.json").exists()

    def test_non_finite_cost_exit_one(self, workdir, capsys):
        src = write_points(workdir / "x.csv", [[0.0], [1.0]])
        tgt = write_points(workdir / "y.csv", [[0.5], [2.0]])
        cost = workdir / "c.csv"
        cost.write_text("c0,c1\n0.5,2.0\nnan,1.0\n")
        out = workdir / "plan.json"
        code = run(["solve", "--source", src, "--target", tgt, "--kernel",
                    "gaussian", "--sigma", 1.0, "--cost", cost, "--out", out])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot solve: error: {cost}: cost matrix has non-finite entries"]
        assert not out.exists()

    def test_user_cost_shape_mismatch_exit_one(self, workdir, capsys):
        src = write_points(workdir / "x.csv", [[0.0], [1.0], [3.0]])
        tgt = write_points(workdir / "y.csv", [[0.5], [2.0]])
        cost = write_points(workdir / "c.csv", [[0.5, 2.0, 1.0], [0.5, 1.0, 4.0]])
        out = workdir / "plan.json"
        code = run(["solve", "--source", src, "--target", tgt, "--kernel",
                    "gaussian", "--sigma", 1.0, "--cost", cost, "--out", out])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "mmdot solve: error: cost shape (2, 3) does not match samples (3, 2)"
        ]
        assert not out.exists()
        assert not (workdir / "plan.json.manifest.json").exists()

    def test_plan_payload_keeps_its_trace_fields(self, workdir):
        src = write_points(workdir / "x.csv", [[0.0], [1.0], [3.0]])
        tgt = write_points(workdir / "y.csv", [[0.5], [2.0], [2.5]])
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"alpha", "objective", "converged", "trace"}
        assert set(doc["trace"]) == {"iters_used", "converged", "final_gap_or_residual"}

    def test_bad_csv_names_location(self, workdir, capsys):
        bad = workdir / "bad.csv"
        bad.write_text("a,b\n1.0,zzz\n")
        code = run(
            ["solve", "--source", bad, "--target", bad, "--kernel", "gaussian",
             "--sigma", 1.0, "--out", workdir / "p.json"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err and "zzz" in err

    def test_admm_emits_beta_gamma(self, workdir):
        rng = np.random.default_rng(2)
        src = write_points(workdir / "x.csv", rng.normal(size=(3, 2)))
        tgt = write_points(workdir / "y.csv", rng.normal(size=(3, 2)))
        out = workdir / "plan.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--method", "admm", "--rho", 200,
             "--max-iters", 500, "--max-inner-iters", 300,
             "--tol-residual", 1e-4, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # The trace's prox telemetry stays out of the payload.
        assert set(doc) == {"alpha", "objective", "converged", "trace", "beta", "gamma"}
        assert set(doc["trace"]) == {"iters_used", "converged", "final_gap_or_residual"}


class TestMapRoundTrip:
    def make_model(self, workdir, m=4):
        rng = np.random.default_rng(5)
        src = write_points(workdir / "x.csv", rng.normal(size=(m, 2)))
        tgt = write_points(workdir / "y.csv", rng.normal(size=(m, 2)))
        model = workdir / "model.json"
        code = run(
            ["solve", "--source", src, "--target", tgt, "--kernel", "gaussian",
             "--sigma", 1.0, "--out", workdir / "plan.json",
             "--emit-model", model]
        )
        assert code == 0
        return model

    def test_emitted_model_bytes_match_save_model(self, workdir):
        model = self.make_model(workdir)
        again = workdir / "again.json"
        save_model(load_model(model), again)
        assert again.read_bytes() == model.read_bytes()

    def test_solve_then_map(self, workdir):
        model = self.make_model(workdir)
        pts = write_points(workdir / "pts.csv", [[0.0, 0.0], [1.0, -1.0]])
        out = workdir / "mapped.csv"
        assert run(["map", "--model", model, "--points", pts, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y0,y1,fallback"
        assert len(lines) == 3

    def test_single_target_model_constant_output(self, workdir):
        model_path = workdir / "model.json"
        model_path.write_text(json.dumps({
            "beta_star": [[1.0]],
            "source_points": [[0.0]],
            "target_points": [[7.0, -2.0]],
            "kernel": {"kind": "gaussian", "sigma": 1.0},
            "cost_kind": "sqeuclidean",
        }))
        pts = write_points(workdir / "pts.csv", [[0.0], [5.0], [-3.0]])
        out = workdir / "mapped.csv"
        assert run(["map", "--model", model_path, "--points", pts, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, :2], [[7.0, -2.0]] * 3)

    def test_empty_points_file(self, workdir):
        model = self.make_model(workdir)
        pts = workdir / "pts.csv"
        pts.write_text("x0,x1\n")
        out = workdir / "mapped.csv"
        assert run(["map", "--model", model, "--points", pts, "--out", out]) == 0
        assert out.read_text() == "y0,y1,fallback\n"

    def test_empty_points_file_sgd(self, workdir):
        model = self.make_model(workdir)
        pts = workdir / "pts.csv"
        pts.write_text("x0,x1\n")
        out = workdir / "mapped.csv"
        assert run(["map", "--model", model, "--points", pts, "--method", "sgd",
                    "--out", out]) == 0
        assert out.read_text() == "y0,y1,fallback\n"

    def test_sgd_agrees_with_closed(self, workdir):
        model = self.make_model(workdir)
        pts = write_points(workdir / "pts.csv", [[0.2, 0.4]])
        out_c = workdir / "c.csv"
        out_s = workdir / "s.csv"
        assert run(["map", "--model", model, "--points", pts, "--out", out_c]) == 0
        assert run(["map", "--model", model, "--points", pts, "--method", "sgd",
                    "--steps", 10000, "--out", out_s]) == 0
        yc = np.loadtxt(out_c, delimiter=",", skiprows=1)[:2]
        ys = np.loadtxt(out_s, delimiter=",", skiprows=1)[:2]
        assert np.linalg.norm(ys - yc) / max(np.linalg.norm(yc), 1.0) <= 1e-2

    def test_sgd_map_builds_one_kernel_block(self, workdir, monkeypatch):
        # Five points share one batch of kernel values: the fallback flags
        # and every point's SGD weights come from the same gram call.
        model = self.make_model(workdir)
        pts = write_points(
            workdir / "pts.csv", np.random.default_rng(8).normal(size=(5, 2))
        )
        calls = []
        original = transport_map.gram
        monkeypatch.setattr(
            transport_map, "gram", lambda *a: calls.append(a) or original(*a)
        )
        assert run(["map", "--model", model, "--points", pts, "--method", "sgd",
                    "--steps", 100, "--out", workdir / "s.csv"]) == 0
        assert len(calls) == 1 and calls[0][2].shape == (5, 2)

    def test_dimension_mismatch_exit_one(self, workdir, capsys):
        model = self.make_model(workdir)
        pts = write_points(workdir / "pts.csv", [[0.0, 0.0, 0.0]])
        code = run(["map", "--model", model, "--points", pts,
                    "--out", workdir / "m.csv"])
        assert code == 1
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["closed", "sgd"])
    @pytest.mark.parametrize(
        "field", ["beta_star", "source_points", "target_points"]
    )
    def test_non_finite_model_exit_one(self, workdir, capsys, field, method):
        model = self.make_model(workdir)
        doc = json.loads(model.read_text())
        doc[field][0][0] = float("nan")
        model.write_text(json.dumps(doc))
        pts = write_points(workdir / "pts.csv", [[0.0, 0.0]])
        code = run(["map", "--model", model, "--points", pts, "--method", method,
                    "--steps", 100, "--out", workdir / "m.csv"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot map: error: {field} has non-finite entries"]

    @pytest.mark.parametrize("method", ["closed", "sgd"])
    def test_unknown_cost_kind_exit_one(self, workdir, capsys, method):
        model = self.make_model(workdir)
        doc = json.loads(model.read_text())
        doc["cost_kind"] = "foo"
        model.write_text(json.dumps(doc))
        pts = write_points(workdir / "pts.csv", [[0.0, 0.0]])
        code = run(["map", "--model", model, "--points", pts, "--method", method,
                    "--steps", 100, "--out", workdir / "m.csv"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot map: error: unknown cost kind: 'foo'"]

    @pytest.mark.parametrize("method", ["closed", "sgd"])
    @pytest.mark.parametrize("case,message", [
        ("kernel", "model has no 'kernel' key"),
        ("beta_star", "model has no 'beta_star' key"),
        ("sigma", "kernel has no 'sigma' key"),
        ("list", "model is not a JSON object"),
        ("sigma_str", "Gaussian kernel requires a real sigma > 0"),
        ("sigma_bool", "Gaussian kernel requires a real sigma > 0"),
        ("beta_1d", "beta_star must be 2-d, got ndim=1"),
    ])
    def test_malformed_model_exit_one(self, workdir, capsys, case, message, method):
        model = self.make_model(workdir)
        doc = json.loads(model.read_text())
        if case == "sigma":
            del doc["kernel"]["sigma"]
        elif case == "list":
            doc = [doc]
        elif case == "sigma_str":
            doc["kernel"]["sigma"] = "abc"
        elif case == "sigma_bool":
            doc["kernel"]["sigma"] = True
        elif case == "beta_1d":
            doc["beta_star"] = [1.0]
        else:
            del doc[case]
        model.write_text(json.dumps(doc))
        pts = write_points(workdir / "pts.csv", [[0.0, 0.0]])
        code = run(["map", "--model", model, "--points", pts, "--method", method,
                    "--steps", 100, "--out", workdir / "m.csv"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot map: error: {message}"]
        assert not (workdir / "m.csv").exists()

    @pytest.mark.parametrize("method", ["closed", "sgd"])
    def test_non_finite_points_exit_one(self, workdir, capsys, method):
        model = self.make_model(workdir)
        pts = workdir / "pts.csv"
        pts.write_text("x0,x1\n0.5,1.0\nnan,0.0\n")
        code = run(["map", "--model", model, "--points", pts, "--method", method,
                    "--steps", 100, "--out", workdir / "m.csv"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot map: error: sample set has non-finite entries"]

    def test_map_rerun_byte_identical(self, workdir):
        model = self.make_model(workdir)
        pts = write_points(workdir / "pts.csv", [[0.1, 0.3], [2.0, -1.0]])
        out = workdir / "mapped.csv"
        args = ["map", "--model", model, "--points", pts, "--out", out]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first


class TestEmd:
    def test_antidiagonal_zero(self, workdir):
        cost = write_points(workdir / "c.csv", [[0.0, 1.0], [1.0, 0.0]])
        out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(0.0, abs=1e-12)

    def test_singleton(self, workdir):
        cost = write_points(workdir / "c.csv", [[2.5]])
        out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", out]) == 0
        assert json.loads(out.read_text())["objective"] == pytest.approx(2.5)

    def test_rectangular_matches_oracle(self, workdir):
        C = np.array([[1.0, 5.0, 2.0], [3.0, 1.0, 4.0]])
        cost = write_points(workdir / "c.csv", C)
        out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", out]) == 0
        _, expected = emd_by_vertex_enumeration(C)
        assert json.loads(out.read_text())["objective"] == pytest.approx(
            expected, abs=1e-12
        )

    def test_sqeuclidean_requires_samples(self, workdir, capsys):
        code = run(["emd", "--out", workdir / "o.json"])
        assert code == 1
        assert "--source" in capsys.readouterr().err

    def test_non_finite_cost_exit_one(self, workdir, capsys):
        cost = workdir / "c.csv"
        cost.write_text("c0,c1\n0.5,2.0\nnan,1.0\n")
        out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot emd: error: {cost}: cost matrix has non-finite entries"]
        assert not out.exists()

    def test_empty_cost_exit_one(self, workdir, capsys):
        cost = workdir / "c.csv"
        cost.write_text("c0,c1\n")
        out = workdir / "emd.json"
        assert run(["emd", "--cost", cost, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot emd: error: cost matrix of shape (0, 2) is empty"]
        assert not out.exists()

    def test_empty_samples_exit_one(self, workdir, capsys):
        src = workdir / "x.csv"
        src.write_text("x0,x1\n")
        tgt = write_points(workdir / "y.csv", [[0.0, 1.0], [2.0, 3.0]])
        out = workdir / "emd.json"
        assert run(["emd", "--source", src, "--target", tgt, "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot emd: error: empty sample set"]
        assert not out.exists()

    def test_size_cap_exit_one(self, workdir, capsys):
        cost = write_points(workdir / "c.csv", np.zeros((101, 101)))
        code = run(["emd", "--cost", cost, "--out", workdir / "o.json"])
        assert code == 1
        assert "cap" in capsys.readouterr().err


class TestExperimentCommands:
    def test_eval_gaussian_schema(self, workdir):
        out = workdir / "report.json"
        code = run(
            ["eval-gaussian", "--dim", 2, "--samples", "8,12", "--sigma", 1.0,
             "--repeats", 1, "--oos-count", 8, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "gaussian_map"
        assert len(doc["records"]) == 2

    def test_eval_gaussian_failed_record_exit_two(self, workdir, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("exact solver broke")

        monkeypatch.setattr("mmdot.experiments.solve_emd_exact", broken)
        out = workdir / "report.json"
        code = run(
            ["eval-gaussian", "--dim", 2, "--samples", "8", "--sigma", 1.0,
             "--repeats", 1, "--oos-count", 8, "--out", out]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["records"][0]["failed"] is True
        assert "exact solver broke" in doc["records"][0]["error"]
        assert (workdir / "report.json.manifest.json").exists()

    def test_sample_complexity_schema(self, workdir):
        out = workdir / "slope.json"
        code = run(
            ["sample-complexity", "--dim", 2, "--samples", "5,10,20",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "fitted_slope" in doc["details"]

    @pytest.mark.parametrize("flag", ["--repeats", "--oos-count"])
    def test_eval_gaussian_empty_protocol_exit_one(self, workdir, flag, capsys):
        out = workdir / "report.json"
        argv = ["eval-gaussian", "--dim", 2, "--samples", "8", "--sigma", 1.0,
                "--repeats", 1, "--oos-count", 8, flag, 0, "--out", out]
        assert run(argv) == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_gaussian_empty_samples_exit_one(self, workdir, capsys):
        out = workdir / "report.json"
        argv = ["eval-gaussian", "--dim", 2, "--samples", "", "--sigma", 1.0,
                "--out", out]
        assert run(argv) == 1
        assert "at least one sample count" in capsys.readouterr().err
        assert not out.exists()
        assert not (workdir / "report.json.manifest.json").exists()

    def test_eval_gaussian_zero_sample_count_exit_one(self, workdir, capsys):
        out = workdir / "report.json"
        argv = ["eval-gaussian", "--dim", 2, "--samples", "0,1", "--sigma", 1.0,
                "--repeats", 1, "--oos-count", 8, "--out", out]
        assert run(argv) == 1
        assert "each >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not (workdir / "report.json.manifest.json").exists()

    @pytest.mark.parametrize(
        "samples, sigma, message",
        [("6", 0.0, "Gaussian kernel requires a real sigma > 0"),
         ("6", 1e200, "Gaussian kernel requires 0 < 2 sigma^2 < inf, got 1e+200"),
         ("101", 1.0, "m*n = 10201 exceeds exact-solver cap 10000")],
    )
    def test_eval_gaussian_bad_input_exit_one_before_records(
        self, workdir, capsys, samples, sigma, message
    ):
        # An input that would fail every record fails the run instead.
        out = workdir / "report.json"
        argv = ["eval-gaussian", "--dim", 2, "--samples", samples, "--sigma", sigma,
                "--repeats", 1, "--oos-count", 4, "--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"mmdot eval-gaussian: error: {message}"]
        assert not out.exists()
        assert not (workdir / "report.json.manifest.json").exists()

    def test_sample_complexity_single_count_exit_one(self, workdir, capsys):
        out = workdir / "slope.json"
        code = run(
            ["sample-complexity", "--dim", 2, "--samples", "5",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 1
        assert "two sample counts" in capsys.readouterr().err
        assert not out.exists()
        assert not (workdir / "slope.json.manifest.json").exists()

    def test_eval_gaussian_unconverged_exit_two(self, workdir):
        out = workdir / "report.json"
        code = run(
            ["eval-gaussian", "--dim", 2, "--samples", "8", "--sigma", 1.0,
             "--repeats", 1, "--oos-count", 8, "--max-iters", 1, "--out", out]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["records"][0]["failed"] is False
        assert doc["records"][0]["converged"] is False

    def test_sample_complexity_unconverged_exit_two(self, workdir):
        out = workdir / "slope.json"
        code = run(
            ["sample-complexity", "--dim", 2, "--samples", "5,10,20",
             "--sigma", 1.0, "--max-iters", 1, "--out", out]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["details"]["ref_converged"] is False
        assert (workdir / "slope.json.manifest.json").exists()

    def test_sample_complexity_unconverged_reference_exit_two(
        self, workdir, monkeypatch
    ):
        # Every per-m solve converges; only the m_ref = 8 * 10 solve is
        # reported as stopped on its budget.
        solve = experiments.solve_simplified

        def budget_at_reference(C, G1, G2, cfg):
            plan, trace = solve(C, G1, G2, cfg)
            if C.shape[0] == 80:
                trace = dataclasses.replace(trace, stop_reason="budget")
            return plan, trace

        monkeypatch.setattr("mmdot.experiments.solve_simplified", budget_at_reference)
        out = workdir / "slope.json"
        code = run(
            ["sample-complexity", "--dim", 2, "--samples", "5,10",
             "--sigma", 1.0, "--out", out]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["details"]["m_ref"] == 80
        assert doc["details"]["ref_converged"] is False
        assert all(r["converged"] for r in doc["records"])
        assert (workdir / "slope.json.manifest.json").exists()

    def test_domain_adapt_on_blob_fixture(self, workdir):
        rng = np.random.default_rng(0)

        def blobs(path, per_class, shift=(0.0, 0.0)):
            a = rng.normal(scale=0.15, size=(per_class, 2)) + shift
            b = rng.normal(scale=0.15, size=(per_class, 2)) + np.add(
                (3.0, 3.0), shift
            )
            feats = np.vstack([a, b])
            labels = [0] * per_class + [1] * per_class
            write_matrix_csv(path, feats, extra_columns=[("label", labels)])
            return str(path)

        src = blobs(workdir / "src.csv", 12)
        tgt_train = blobs(workdir / "tt.csv", 12, shift=(1.5, -1.0))
        tgt_test = blobs(workdir / "te.csv", 8, shift=(1.5, -1.0))
        out = workdir / "da.json"
        code = run(
            ["domain-adapt", "--source", src, "--target-train", tgt_train,
             "--target-test", tgt_test, "--sigma", 0.5, "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["records"][0]["accuracy_in_sample"] >= 0.9

    def test_domain_adapt_unconverged_exit_two(self, workdir):
        rng = np.random.default_rng(1)
        paths = []
        for name in ("src.csv", "tt.csv", "te.csv"):
            paths.append(str(workdir / name))
            write_matrix_csv(
                paths[-1], rng.normal(size=(6, 2)),
                extra_columns=[("label", [0, 1] * 3)],
            )
        out = workdir / "da.json"
        code = run(
            ["domain-adapt", "--source", paths[0], "--target-train", paths[1],
             "--target-test", paths[2], "--sigma", 0.5, "--max-iters", 1,
             "--out", out]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["records"][0]["converged"] is False

    @pytest.mark.parametrize(
        "method", [[], ["--method", "admm", "--rho", 200, "--tol-residual", 1e-4]]
    )
    def test_domain_adapt_singular_gram_reports_null(self, workdir, method):
        # Two identical source points make the source gram [[1, 1], [1, 1]],
        # whose smallest eigenvalue is exactly 0: its condition number is
        # null, so the report stays strict JSON.
        src, tt, te = workdir / "s.csv", workdir / "tt.csv", workdir / "te.csv"
        src.write_text("x0,x1,label\n0,0,0\n0,0,0\n")
        tt.write_text("x0,x1\n0.5,0\n1,1\n")
        te.write_text("x0,x1,label\n0.2,0.1,0\n")
        out = workdir / "da.json"
        code = run(
            ["domain-adapt", "--source", src, "--target-train", tt,
             "--target-test", te, "--sigma", 1, *method, "--out", out]
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        record = json.loads(out.read_text(), parse_constant=reject)["records"][0]
        assert record["cond_G1"] is None
        assert 1.0 <= record["cond_G2"] < np.inf

    def test_domain_adapt_empty_target_test_exit_one(self, workdir, capsys):
        rng = np.random.default_rng(2)
        src = write_labeled(workdir / "src.csv", rng, 6)
        tgt_train = write_labeled(workdir / "tt.csv", rng, 6)
        tgt_test = write_labeled(workdir / "te.csv", rng, 0)
        out = workdir / "da.json"
        code = run(
            ["domain-adapt", "--source", src, "--target-train", tgt_train,
             "--target-test", tgt_test, "--sigma", 0.5, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["mmdot domain-adapt: error: target_test has no rows to score"]
        assert not out.exists()
        assert not (workdir / "da.json.manifest.json").exists()

    def test_experiment_rerun_byte_identical(self, workdir):
        out = workdir / "slope.json"
        args = ["sample-complexity", "--dim", 2, "--samples", "5,10",
                "--sigma", 1.0, "--seed", 7, "--out", out]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first


class TestManifest:
    KEYS = {"command", "parameters", "seed", "version", "input_digests",
            "runtime_seconds"}

    @staticmethod
    def argv_and_inputs(command, workdir):
        """Arguments of a small run of ``command`` and the input files its
        manifest digests."""
        rng = np.random.default_rng(5)
        if command in ("solve", "map", "emd"):
            src = write_points(workdir / "x.csv", rng.normal(size=(4, 2)))
            tgt = write_points(workdir / "y.csv", rng.normal(size=(4, 2)))
        if command == "solve":
            return ["solve", "--source", src, "--target", tgt, "--kernel",
                    "gaussian", "--sigma", 1.0], [src, tgt]
        if command == "map":
            model = str(workdir / "model.json")
            assert run(["solve", "--source", src, "--target", tgt, "--kernel",
                        "gaussian", "--sigma", 1.0, "--out", workdir / "plan.json",
                        "--emit-model", model]) == 0
            return ["map", "--model", model, "--points", src], [model, src]
        if command == "emd":
            return ["emd", "--source", src, "--target", tgt], [src, tgt]
        if command == "eval-gaussian":
            return ["eval-gaussian", "--dim", 2, "--samples", "6", "--sigma", 1.0,
                    "--repeats", 1, "--oos-count", 4], []
        if command == "sample-complexity":
            return ["sample-complexity", "--dim", 2, "--samples", "4,6",
                    "--sigma", 1.0], []
        paths = [write_labeled(workdir / f"{name}.csv", rng, 6)
                 for name in ("src", "tt", "te")]
        return ["domain-adapt", "--source", paths[0], "--target-train", paths[1],
                "--target-test", paths[2], "--sigma", 0.5], paths

    @pytest.mark.parametrize(
        "command",
        ["solve", "map", "emd", "eval-gaussian", "sample-complexity", "domain-adapt"],
    )
    def test_every_command_writes_one_manifest_shape(self, workdir, command):
        argv, inputs = self.argv_and_inputs(command, workdir)
        out = workdir / "result.out"
        assert run(argv + ["--out", out]) == 0
        assert out.exists()
        manifest = json.loads((workdir / "result.out.manifest.json").read_text())
        assert set(manifest) == self.KEYS
        assert manifest["command"] == command
        assert manifest["parameters"]["out"] == str(out)
        assert sorted(manifest["input_digests"]) == sorted(inputs)
        assert manifest["runtime_seconds"] > 0.0


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--source", "x", "--target", "y", "--kernel", "delta"],
            ["eval-gaussian", "--dim", "1", "--samples", "2,3", "--sigma", "1"],
            ["sample-complexity", "--dim", "1", "--samples", "2,3", "--sigma", "1"],
            ["domain-adapt", "--source", "s", "--target-train", "t",
             "--target-test", "u", "--sigma", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_solver_flag_defaults_are_solver_config_defaults(self, argv):
        args = build_parser().parse_args(argv + ["--out", "o.json"])
        assert _solver_config(args) == SolverConfig(seed=0)

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run(["emd", "--bogus", "1", "--out", workdir / "o.json"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flag", ["--rho", "--max-inner-iters", "--tol-residual"])
    def test_sample_complexity_takes_no_admm_flags(self, workdir, flag):
        # The study solves by Frank-Wolfe only, which reads none of them.
        with pytest.raises(SystemExit) as exc:
            run(["sample-complexity", "--dim", 2, "--samples", "4,6", "--sigma", 1.0,
                 flag, 5, "--out", workdir / "o.json"])
        assert exc.value.code == 1
        assert not (workdir / "o.json").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_input_file(self, workdir, capsys):
        code = run(["emd", "--cost", workdir / "nope.csv",
                    "--out", workdir / "o.json"])
        assert code == 1
