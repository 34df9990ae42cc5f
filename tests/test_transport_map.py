import json

import numpy as np
import pytest

from oracles import conditional_cost, eval_kernel

from mmdot.errors import InvalidModelError, NumericalFailureError, ShapeError
from mmdot.kernels import GAUSSIAN, KRONECKER_DELTA, KernelSpec
from mmdot.transport_map import (
    TransportMapModel,
    batch_weights,
    default_domain_radius,
    load_model,
    map_point_sgd,
    map_points_closed_form,
    model_from_dict,
    model_to_dict,
    save_model,
)

GAUSS1 = KernelSpec(GAUSSIAN, sigma=1.0)
DELTA = KernelSpec(KRONECKER_DELTA)


def point_weights(model, x):
    """Weights and fallback flag of one point, from a 1-row batch."""
    W, fallback = batch_weights(model, x)
    return W[:, 0], bool(fallback[0])


def pointwise_map(model, x):
    """Per-point oracle of the closed-form map: the weighted target mean."""
    return point_weights(model, x)[0] @ model.target_points


def map_one(model, x):
    return map_points_closed_form(model, np.atleast_2d(x))[0][0]


def weights_model(weights, targets, x_probe):
    """Model whose conditional weights at x_probe equal the given vector.

    One source point equal to the probe under the delta kernel gives a
    kernel vector of [1], so the single beta column realizes the weights
    exactly.
    """
    weights = np.asarray(weights, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    beta = weights[:, None]
    return TransportMapModel(
        beta_star=beta,
        source_points=np.atleast_2d(np.asarray(x_probe, dtype=float)),
        target_points=targets,
        kernel1=DELTA,
    )


class TestModelValidation:
    def test_shape_mismatch_sources(self):
        with pytest.raises(ShapeError):
            TransportMapModel(
                beta_star=np.ones((2, 3)),
                source_points=np.zeros((2, 1)),  # needs 3 source points
                target_points=np.zeros((2, 1)),
                kernel1=GAUSS1,
            )

    def test_shape_mismatch_targets(self):
        with pytest.raises(ShapeError, match="2 target rows but 3 target points"):
            TransportMapModel(
                beta_star=np.ones((2, 3)),
                source_points=np.zeros((3, 1)),
                target_points=np.zeros((3, 1)),
                kernel1=GAUSS1,
            )

    def test_negative_beta_rejected(self):
        with pytest.raises(InvalidModelError):
            TransportMapModel(
                beta_star=np.array([[-0.1]]),
                source_points=np.zeros((1, 1)),
                target_points=np.zeros((1, 1)),
                kernel1=GAUSS1,
            )

    @pytest.mark.parametrize(
        "field", ["beta_star", "source_points", "target_points"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        arrays = dict(beta_star=np.ones((1, 1)), source_points=np.zeros((1, 1)),
                      target_points=np.zeros((1, 1)))
        arrays[field][0, 0] = bad
        with pytest.raises(InvalidModelError, match=field):
            TransportMapModel(kernel1=GAUSS1, **arrays)

    def test_unknown_cost_kind_rejected(self):
        doc = model_to_dict(weights_model([1.0], [[0.0]], [0.0]))
        doc["cost_kind"] = "foo"
        with pytest.raises(InvalidModelError, match="unknown cost kind: 'foo'"):
            model_from_dict(doc)

    def test_model_arrays_are_read_only(self):
        beta = np.array([[0.5], [0.5]])
        model = TransportMapModel(
            beta_star=beta,
            source_points=np.zeros((1, 1)),
            target_points=np.array([[0.0], [2.0]]),
            kernel1=DELTA,
        )
        for a in (model.beta_star, model.source_points, model.target_points):
            with pytest.raises(ValueError):
                a[0, 0] = -1.0
        # The model froze a copy; the caller's array stays writable.
        beta[0, 0] = -1.0
        assert model.beta_star[0, 0] == 0.5

    def test_cost_grad_model_has_no_closed_form_and_no_file(self, tmp_path):
        model = TransportMapModel(
            beta_star=np.ones((1, 1)),
            source_points=np.zeros((1, 1)),
            target_points=np.zeros((1, 1)),
            kernel1=GAUSS1,
            cost_grad=euclidean_grad,
        )
        with pytest.raises(InvalidModelError, match="closed form"):
            map_points_closed_form(model, [[0.0]])
        with pytest.raises(InvalidModelError, match="serializable"):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()
        # A dict would name the squared-Euclidean cost and reload as such.
        with pytest.raises(InvalidModelError, match="serializable"):
            model_to_dict(model)


class TestConditionalWeights:
    def test_single_target_normalizes_to_one(self):
        model = TransportMapModel(
            beta_star=np.array([[0.3]]),
            source_points=np.array([[0.0]]),
            target_points=np.array([[5.0]]),
            kernel1=GAUSS1,
        )
        w, fallback = point_weights(model, [0.7])
        np.testing.assert_allclose(w, [1.0])
        assert not fallback

    def test_delta_kernel_identity_beta_picks_basis_vector(self):
        X = np.array([[0.0], [1.0], [2.0]])
        model = TransportMapModel(
            beta_star=np.eye(3),
            source_points=X,
            target_points=X.copy(),
            kernel1=DELTA,
        )
        for i in range(3):
            w, _ = point_weights(model, X[i])
            np.testing.assert_allclose(w, np.eye(3)[i])

    def test_matches_scalar_double_sum(self):
        rng = np.random.default_rng(4)
        beta = rng.random((2, 2))
        X = rng.normal(size=(2, 2))
        Y = rng.normal(size=(2, 2))
        model = TransportMapModel(
            beta_star=beta, source_points=X, target_points=Y, kernel1=GAUSS1
        )
        x = rng.normal(size=2)
        raw = np.array(
            [
                sum(beta[j, i] * eval_kernel(GAUSS1, X[i], x) for i in range(2))
                for j in range(2)
            ]
        )
        expected = raw / raw.sum()
        got, _ = point_weights(model, x)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = TransportMapModel(
                beta_star=rng.random((4, 3)),
                source_points=rng.normal(size=(3, 2)),
                target_points=rng.normal(size=(4, 2)),
                kernel1=GAUSS1,
            )
            w, _ = point_weights(model, rng.normal(size=2))
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_far_point_uniform_fallback(self):
        model = TransportMapModel(
            beta_star=np.ones((2, 1)),
            source_points=np.array([[0.0]]),
            target_points=np.array([[0.0], [2.0]]),
            kernel1=KernelSpec(GAUSSIAN, sigma=0.01),
        )
        w, fallback = point_weights(model, [100.0])
        assert fallback
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_dimension_mismatch(self):
        model = TransportMapModel(
            beta_star=np.ones((1, 1)),
            source_points=np.zeros((1, 2)),
            target_points=np.zeros((1, 2)),
            kernel1=GAUSS1,
        )
        with pytest.raises(ShapeError):
            batch_weights(model, [0.0])


class TestClosedForm:
    def test_single_target(self):
        model = TransportMapModel(
            beta_star=np.array([[1.0]]),
            source_points=np.array([[0.0]]),
            target_points=np.array([[3.0, -1.0]]),
            kernel1=GAUSS1,
        )
        for x in ([0.0], [5.0], [-2.0]):
            np.testing.assert_allclose(map_one(model, x), [3.0, -1.0])

    def test_uniform_weights_over_two_scalars(self):
        model = weights_model([0.5, 0.5], [[0.0], [2.0]], [0.0])
        np.testing.assert_allclose(map_one(model, [0.0]), [1.0])

    def test_convex_combination(self):
        model = weights_model([0.25, 0.75], [[0.0, 0.0], [4.0, 0.0]], [0.0])
        np.testing.assert_allclose(map_one(model, [0.0]), [3.0, 0.0])

    def test_out_of_sample_point_accepted(self):
        rng = np.random.default_rng(6)
        model = TransportMapModel(
            beta_star=rng.random((3, 3)),
            source_points=rng.normal(size=(3, 2)),
            target_points=rng.normal(size=(3, 2)),
            kernel1=GAUSS1,
        )
        y = map_one(model, [10.0, -10.0])
        assert np.all(np.isfinite(y))

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(7)
        model = TransportMapModel(
            beta_star=rng.random((4, 3)),
            source_points=rng.normal(size=(3, 2)),
            target_points=rng.normal(size=(4, 3)),
            kernel1=GAUSS1,
        )
        # The last point is far from every source, so its weights underflow
        # and the batch must take the same uniform fallback as one point.
        P = np.vstack([rng.normal(size=(6, 2)), [[1e3, -1e3]]])
        batch, fallback = map_points_closed_form(model, P)
        assert batch.shape == (7, 3)
        assert fallback.tolist() == [False] * 6 + [True]
        for i in range(7):
            assert point_weights(model, P[i])[1] == fallback[i]
            np.testing.assert_allclose(
                batch[i], pointwise_map(model, P[i]), atol=1e-12
            )

    def test_empty_batch(self):
        model = weights_model([1.0], [[0.0]], [0.0])
        out, flags = map_points_closed_form(model, np.zeros((0, 1)))
        assert out.shape == (0, 1) and flags.shape == (0,)

    def test_blocked_batch_matches_pointwise_bitwise(self):
        # More rows than one weight block.  Delta-kernel weights with
        # dyadic beta columns summing to powers of two, and integer targets,
        # make every product and sum exact, so any evaluation order gives
        # the same bits; the point at 5.0 matches no source and falls back.
        model = TransportMapModel(
            beta_star=np.array([[0.5, 1.0, 0.25], [0.25, 0.5, 0.25],
                                [0.25, 0.5, 1.0], [0.0, 2.0, 0.5]]),
            source_points=np.array([[0.0], [1.0], [2.0]]),
            target_points=np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 5.0], [2.0, 2.0]]),
            kernel1=DELTA,
        )
        rng = np.random.default_rng(11)
        P = rng.choice([0.0, 1.0, 2.0, 5.0], size=(4100, 1))
        mapped, fallback = map_points_closed_form(model, P)
        assert mapped.shape == (4100, 2)
        assert fallback.tolist() == (P[:, 0] == 5.0).tolist()
        for i in range(P.shape[0]):
            w, flag = point_weights(model, P[i])
            assert flag == fallback[i]
            assert np.array_equal(mapped[i], w @ model.target_points)

    @pytest.mark.parametrize("kernel", ["gaussian", "delta"])
    def test_factored_blocks_match_pointwise_oracle(self, kernel):
        # Two kernel blocks, and rows far from (Gaussian) or off (delta)
        # every source that fall back to the uniform target mean.
        rng = np.random.default_rng(13)
        src = rng.normal(size=(7, 2))
        model = TransportMapModel(
            beta_star=rng.random((5, 7)),
            source_points=src,
            target_points=rng.normal(size=(5, 3)) * 10.0,
            kernel1=KernelSpec(GAUSSIAN, sigma=0.7) if kernel == "gaussian" else DELTA,
        )
        if kernel == "gaussian":
            P = rng.normal(size=(4200, 2)) * 1.5
            P[::97] = 1e3
        else:
            P = src[rng.integers(0, 7, size=4200)]
            P[::97] = 5.0
        mapped, fallback = map_points_closed_form(model, P)
        assert fallback[::97].all() and not fallback[1::97].any()
        uniform = model.target_points.mean(axis=0)
        scale = np.abs(model.target_points).max()
        for i in range(P.shape[0]):
            w, flag = point_weights(model, P[i])
            assert flag == fallback[i]
            np.testing.assert_allclose(
                mapped[i], w @ model.target_points,
                rtol=1e-12, atol=1e-12 * scale,
            )
            if fallback[i]:
                np.testing.assert_allclose(mapped[i], uniform, rtol=1e-12)


def euclidean_cost(y, yj):
    return float(np.linalg.norm(y - yj))


def euclidean_grad(y, yj):
    d = y - yj
    n = np.linalg.norm(d)
    return d / n if n > 0 else np.zeros_like(d)


def sgd_by_loop(model, x, steps, seed, domain_radius=None):
    """Reference projected averaged SGD: one point, one step at a time."""
    w, _ = point_weights(model, x)
    Y = model.target_points
    center = w @ Y
    radius = default_domain_radius(model) if domain_radius is None else domain_radius

    def grad(y, yj):
        if model.cost_grad is None:
            return 2.0 * (y - yj)
        return np.asarray(model.cost_grad(y, yj), dtype=float)

    bound = max(float(np.linalg.norm(grad(center, yj))) for yj in Y)
    step_scale = radius / max(bound, 2.0 * radius, 1e-12)
    idx = np.random.default_rng(seed).choice(Y.shape[0], size=steps, p=w)
    y = center.copy()
    avg = np.zeros_like(y)
    for t in range(1, steps + 1):
        y = y - (step_scale / np.sqrt(t)) * grad(y, Y[idx[t - 1]])
        dy = y - center
        nrm = float(np.linalg.norm(dy))
        if nrm > radius:
            y = center + dy * (radius / nrm)
        avg += (y - avg) / t
    return avg


class TestSgd:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            model = TransportMapModel(
                beta_star=rng.random((5, 5)),
                source_points=rng.normal(size=(5, 3)),
                target_points=rng.normal(size=(5, 3)),
                kernel1=GAUSS1,
            )
            x = rng.normal(size=3)
            yc = pointwise_map(model, x)
            ys, _ = map_point_sgd(model, x, steps=10_000, seed=seed)
            scale = max(np.linalg.norm(yc), default_domain_radius(model))
            assert np.linalg.norm(ys[0] - yc) / scale <= 1e-2

    def test_single_target_euclidean_cost(self):
        model = TransportMapModel(
            beta_star=np.array([[1.0]]),
            source_points=np.array([[0.0]]),
            target_points=np.array([[1.0, 2.0]]),
            kernel1=GAUSS1,
            cost_grad=euclidean_grad,
        )
        y, _ = map_point_sgd(model, [0.0], steps=10_000, seed=0, domain_radius=5.0)
        assert np.linalg.norm(y[0] - [1.0, 2.0]) <= 1e-2

    def test_median_degeneracy_objective_value(self):
        # Even weights over scalar targets {0, 2} with Euclidean cost: every
        # point of [0, 2] is optimal with value 1; assert on the value only.
        model = TransportMapModel(
            beta_star=np.array([[0.5], [0.5]]),
            source_points=np.array([[0.0]]),
            target_points=np.array([[0.0], [2.0]]),
            kernel1=DELTA,
            cost_grad=euclidean_grad,
        )
        y, _ = map_point_sgd(model, [0.0], steps=10_000, seed=1, domain_radius=4.0)
        w, _ = point_weights(model, [0.0])
        value = conditional_cost(w, model.target_points, euclidean_cost, y[0])
        assert abs(value - 1.0) <= 1e-2

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_subgradient_raises(self, bad):
        model = TransportMapModel(
            beta_star=np.array([[0.5], [0.5]]),
            source_points=np.array([[0.0]]),
            target_points=np.array([[0.0], [2.0]]),
            kernel1=DELTA,
            cost_grad=lambda y, yj: np.full_like(y, bad),
        )
        with pytest.raises(NumericalFailureError, match="non-finite subgradient"):
            map_point_sgd(model, [0.0], steps=10)

    def test_nonpositive_steps_rejected(self):
        model = weights_model([1.0], [[0.0]], [0.0])
        with pytest.raises(ValueError):
            map_point_sgd(model, [0.0], steps=0)

    @pytest.mark.parametrize("kind", ["default", "small_radius", "user_cost"])
    def test_batch_matches_per_point_bitwise(self, kind):
        rng = np.random.default_rng(12)
        extra = {}
        if kind == "user_cost":
            extra = dict(cost_grad=euclidean_grad)
        model = TransportMapModel(
            beta_star=rng.random((6, 4)),
            source_points=rng.normal(size=(4, 2)),
            target_points=rng.normal(size=(6, 3)),
            kernel1=GAUSS1,
            **extra,
        )
        # The last point is far from every source and takes the uniform
        # fallback weights.
        P = np.vstack([rng.normal(size=(4, 2)), [[1e3, -1e3]]])
        radius = 0.05 if kind == "small_radius" else None
        batch, fallback = map_point_sgd(model, P, steps=300, seed=3,
                                        domain_radius=radius)
        assert batch.shape == (5, 3)
        assert fallback.tolist() == [False] * 4 + [True]
        for k in range(P.shape[0]):
            one, flag = map_point_sgd(model, P[k], steps=300, seed=3,
                                      domain_radius=radius)
            assert one.shape == (1, 3) and flag.tolist() == [fallback[k]]
            assert np.array_equal(batch[k], one[0])
            assert np.array_equal(one[0], sgd_by_loop(model, P[k], 300, 3, radius))
            if radius is not None:
                # The projection keeps every iterate, so the average, in
                # the ball around the row's weighted target mean.
                w, _ = point_weights(model, P[k])
                assert np.linalg.norm(one[0] - w @ model.target_points) <= radius * (1 + 1e-12)

    def test_fallback_flags_match_closed_form(self):
        rng = np.random.default_rng(14)
        model = TransportMapModel(
            beta_star=rng.random((5, 4)),
            source_points=rng.normal(size=(4, 2)),
            target_points=rng.normal(size=(5, 2)),
            kernel1=KernelSpec(GAUSSIAN, sigma=0.5),
        )
        # The middle point is far from every source.
        P = np.vstack([rng.normal(size=(3, 2)), [[50.0, 50.0]], rng.normal(size=(2, 2))])
        mapped, fallback = map_point_sgd(model, P, steps=50, seed=0)
        closed, closed_fallback = map_points_closed_form(model, P)
        assert mapped.shape == closed.shape == (6, 2)
        assert fallback.tolist() == closed_fallback.tolist()
        assert fallback.tolist() == [False] * 3 + [True] + [False] * 2

    def test_batch_of_no_points(self):
        model = weights_model([1.0], [[0.0, 1.0]], [0.0])
        out, flags = map_point_sgd(model, np.zeros((0, 1)), steps=10)
        assert out.shape == (0, 2) and flags.shape == (0,)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        model = TransportMapModel(
            beta_star=rng.random((3, 3)),
            source_points=rng.normal(size=(3, 2)),
            target_points=rng.normal(size=(3, 2)),
            kernel1=GAUSS1,
        )
        a, _ = map_point_sgd(model, [0.1, 0.2], steps=500, seed=42)
        b, _ = map_point_sgd(model, [0.1, 0.2], steps=500, seed=42)
        assert np.array_equal(a, b)


def test_power_cost_objective_convex_along_segments():
    # For cost |y - y_j|^p with p >= 1 the conditional objective is convex in
    # y; check the midpoint inequality on random 1-d instances.
    rng = np.random.default_rng(10)
    for p in (1.0, 1.5, 2.0, 3.0):
        model = TransportMapModel(
            beta_star=rng.random((4, 1)),
            source_points=np.array([[0.0]]),
            target_points=rng.normal(size=(4, 1)),
            kernel1=DELTA,
        )
        w, _ = point_weights(model, [0.0])

        def cost(y, yj, p=p):
            return float(np.abs(y - yj).sum() ** p)

        def f(y):
            return conditional_cost(w, model.target_points, cost, [y])

        for _ in range(20):
            a, b = rng.normal(size=2) * 3.0
            fa, fb, fm = f(a), f(b), f((a + b) / 2.0)
            assert fm <= 0.5 * (fa + fb) + 1e-9


class TestSerialization:
    def make_model(self):
        rng = np.random.default_rng(11)
        return TransportMapModel(
            beta_star=rng.random((3, 4)),
            source_points=rng.normal(size=(4, 2)),
            target_points=rng.normal(size=(3, 2)),
            kernel1=KernelSpec(GAUSSIAN, sigma=0.8),
        )

    def test_round_trip_bit_identical_mappings(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.beta_star, model.beta_star)
        assert np.array_equal(loaded.source_points, model.source_points)
        assert loaded.kernel1 == model.kernel1
        P = np.array([[0.3, -0.4], [2.0, 1.0]])
        assert np.array_equal(
            map_points_closed_form(loaded, P)[0], map_points_closed_form(model, P)[0]
        )

    def test_dict_round_trip(self):
        model = self.make_model()
        again = model_from_dict(model_to_dict(model))
        assert np.array_equal(again.target_points, model.target_points)

    def test_written_file_is_json(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "beta_star",
            "source_points",
            "target_points",
            "kernel",
            "cost_kind",
        }
