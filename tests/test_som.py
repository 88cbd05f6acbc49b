import math
from dataclasses import replace

import numpy as np
import pytest

from somkit.distances import estimate_inverse_covariance, feature_distance
from somkit.schedules import ScheduleSpec, learning_rate, neighborhood_radius
from somkit.som import (
    SomConfig,
    WeightGrid,
    _grid_distances,
    _neighbourhood,
    batch_update,
    bmu_histogram,
    find_bmu,
    fit_unsupervised,
    grid_distance_matrix,
    init_weights,
    kernel_matrix,
    online_update,
    quantization_error,
    transform,
)


def small_config(**kw):
    defaults = dict(n_row=4, n_column=5, n_iter_unsupervised=50, n_iter_supervised=50)
    defaults.update(kw)
    return SomConfig(**defaults)


def brute_force_bmu(grid, x, metric, cov_inv=None):
    best = None
    best_d = math.inf
    for r in range(grid.n_row):
        for c in range(grid.n_column):
            d = feature_distance(grid.weights[r, c], x, metric, cov_inv)
            if d < best_d:
                best_d = d
                best = (r, c)
    return best


class TestConfig:
    def test_defaults_derive_from_grid(self):
        cfg = SomConfig(n_row=8, n_column=20, n_iter_unsupervised=500)
        assert cfg.lr_schedule == ScheduleSpec("start-end", 0.5, 0.05, 500)
        assert cfg.radius_schedule.kind == "linear"
        assert cfg.radius_schedule.start == 10.0

    def test_paper_scale_configs_accepted(self):
        SomConfig(n_row=35, n_column=35, n_iter_unsupervised=2500, n_iter_supervised=2500)
        SomConfig(n_row=40, n_column=20, n_iter_unsupervised=5000, n_iter_supervised=20000)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SomConfig(n_row=0)
        with pytest.raises(ValueError):
            SomConfig(n_iter_unsupervised=0)
        with pytest.raises(ValueError):
            SomConfig(metric="cosine")
        with pytest.raises(ValueError):
            SomConfig(kernel="bubble")

    @pytest.mark.parametrize("values", [
        {"n_row": "ten"}, {"n_row": 2.5}, {"n_row": True}, {"seed": None}, {"seed": "7"},
        {"metric": 3}, {"class_weighting": "yes"}, {"class_weighting": 1},
        {"lr_schedule": "linear"},
        {"radius_schedule": ScheduleSpec("inverse", 2.0)},
    ])
    def test_rejects_mistyped_values(self, values):
        with pytest.raises(ValueError):
            SomConfig(**values)

    def test_schedule_rejects_mistyped_values(self):
        for args in (("linear", "0.5"), ("linear", True), ("linear", 0.5, None),
                     ("linear", 0.5, 0.0, 2.0), (1, 0.5)):
            with pytest.raises(ValueError):
                ScheduleSpec(*args)

    def test_numbers_of_any_kind_accepted(self):
        cfg = SomConfig(n_row=np.int64(3), lr_schedule=ScheduleSpec("linear", 1, np.float64(0.5)))
        assert cfg.n_row == 3 and cfg.lr_schedule.start == 1
        with pytest.raises(ValueError):
            SomConfig(update_mode="minibatch")

    def test_supervised_iterations_may_be_zero(self):
        assert SomConfig(n_iter_supervised=0).n_iter_supervised == 0


class TestWeightGrid:
    def test_rejects_non_finite(self):
        w = np.zeros((2, 2, 3))
        w[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            WeightGrid(w)

    def test_shape_properties(self):
        g = WeightGrid(np.zeros((3, 4, 5)))
        assert (g.n_row, g.n_column, g.feature_dim) == (3, 4, 5)


class TestInitWeights:
    def test_constant_dataset(self):
        X = np.tile([2.0, -1.0, 0.5], (10, 1))
        grid = init_weights(small_config(), X, np.random.default_rng(0))
        assert np.all(grid.weights == np.array([2.0, -1.0, 0.5]))

    def test_deterministic(self):
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        X = np.random.default_rng(5).normal(size=(30, 4))
        ga = init_weights(small_config(), X, rng_a)
        gb = init_weights(small_config(), X, rng_b)
        np.testing.assert_array_equal(ga.weights, gb.weights)

    def test_within_feature_ranges(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(-5, 5, 100)])
        grid = init_weights(small_config(), X, rng)
        for j in range(2):
            assert grid.weights[..., j].min() >= X[:, j].min()
            assert grid.weights[..., j].max() <= X[:, j].max()

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            init_weights(small_config(), np.empty((0, 3)), np.random.default_rng(0))


class TestFindBmu:
    def test_exact_hit(self):
        rng = np.random.default_rng(2)
        grid = WeightGrid(rng.normal(size=(4, 6, 3)))
        x = grid.weights[2, 3].copy()
        assert find_bmu(grid, x) == (2, 3)

    def test_two_by_two_hand_case(self):
        grid = WeightGrid(
            np.array([[[0.0, 0.0], [10.0, 0.0]], [[0.0, 10.0], [10.0, 10.0]]])
        )
        assert find_bmu(grid, (1.0, 1.0)) == (0, 0)

    def test_tie_break_row_major(self):
        grid = WeightGrid(np.ones((3, 3, 2)))
        assert find_bmu(grid, (5.0, 5.0)) == (0, 0)

    def test_dimension_mismatch(self):
        grid = WeightGrid(np.ones((2, 2, 3)))
        with pytest.raises(ValueError):
            find_bmu(grid, (1.0, 2.0))

    def test_matches_brute_force_all_metrics(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n_row = int(rng.integers(1, 7))
            n_col = int(rng.integers(1, 7))
            n = int(rng.integers(1, 6))
            for metric in ("euclidean", "manhattan", "tanimoto", "mahalanobis"):
                if metric == "tanimoto":
                    w = rng.integers(0, 2, size=(n_row, n_col, n)).astype(float)
                    x = rng.integers(0, 2, size=n).astype(float)
                    cov_inv = None
                else:
                    w = rng.normal(size=(n_row, n_col, n))
                    x = rng.normal(size=n)
                    cov_inv = None
                    if metric == "mahalanobis":
                        cov_inv = estimate_inverse_covariance(rng.normal(size=(20, n)))
                grid = WeightGrid(w)
                assert find_bmu(grid, x, metric, cov_inv) == brute_force_bmu(
                    grid, x, metric, cov_inv
                )


class TestKernelMatrix:
    def test_bmu_entry_is_one(self):
        for kind in ("gaussian", "mexican-hat"):
            h = kernel_matrix((1, 2), 1.5, kind, (4, 5))
            assert h[1, 2] == 1.0

    def test_gaussian_at_sigma(self):
        h = kernel_matrix((0, 0), 3.0, "gaussian", (1, 4))
        assert h[0, 3] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_mexican_hat_zero_at_sigma(self):
        h = kernel_matrix((0, 0), 3.0, "mexican-hat", (1, 4))
        assert h[0, 3] == pytest.approx(0.0, abs=1e-15)

    def test_mexican_hat_negative_lobe_at_two_sigma(self):
        h = kernel_matrix((0, 0), 3.0, "mexican-hat", (1, 7))
        assert h[0, 6] == pytest.approx(-3 * math.exp(-2), abs=1e-12)

    def test_gaussian_radially_non_increasing(self):
        h = kernel_matrix((2, 2), 1.7, "gaussian", (9, 9))
        from somkit.som import grid_distance_matrix

        d = grid_distance_matrix((2, 2), (9, 9))
        order = np.argsort(d.ravel())
        values = h.ravel()[order]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert np.all((h > 0) & (h <= 1))

    def test_rejects_tiny_sigma(self):
        with pytest.raises(ValueError):
            kernel_matrix((0, 0), 1e-9, "gaussian", (3, 3))


class TestNeighbourhoodStep:
    @pytest.mark.parametrize("shape", [(20, 20), (40, 20), (1, 7), (3, 5)])
    def test_distance_table_equals_grid_distance_matrix(self, shape):
        table = _grid_distances(shape)
        assert table.shape == (*shape, *shape)
        assert not table.flags.writeable
        for bmu in np.ndindex(shape):
            assert table[bmu].tobytes() == grid_distance_matrix(bmu, shape).tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "mexican-hat"])
    def test_step_equals_schedules_and_kernel_matrix(self, kind):
        lr, radius = ScheduleSpec("power", 0.7), ScheduleSpec("exponential", 2.5)
        cfg = SomConfig(n_row=6, n_column=4, kernel=kind, lr_schedule=lr, radius_schedule=radius)
        step = _neighbourhood(cfg, 30)
        lr, radius = replace(lr, t_max=30), replace(radius, t_max=30)
        for t, bmu in [(0, (0, 0)), (7, (3, 1)), (29, (5, 3)), (30, (1, 1))]:
            alpha, h = step(t, *bmu)
            expected = kernel_matrix(bmu, neighborhood_radius(t, radius), kind, (6, 4))
            assert alpha == learning_rate(t, lr)
            assert h.tobytes() == expected.tobytes() and h.shape == (6, 4)

    def test_zero_iterations_still_define_schedules(self):
        alpha, h = _neighbourhood(SomConfig(n_iter_supervised=0), 0)(0, 0, 0)
        assert alpha == 0.5 and h.shape == (10, 10)


class TestOnlineUpdate:
    def test_bitwise_equal_to_one_line_expression(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            weights = rng.normal(size=(40, 20, 204)) * 50
            x = rng.normal(size=204) * 50
            alpha = float(rng.uniform(0.01, 1.0))
            h = kernel_matrix((int(rng.integers(40)), int(rng.integers(20))),
                              float(rng.uniform(0.5, 20)), "mexican-hat", (40, 20))
            expected = weights.copy()
            expected += alpha * h[:, :, None] * (x - expected)
            grid = WeightGrid(weights)
            online_update(grid, x, alpha, h)
            assert grid.weights.tobytes() == expected.tobytes()

    def test_zero_alpha_leaves_grid(self):
        rng = np.random.default_rng(1)
        grid = WeightGrid(rng.normal(size=(3, 3, 2)))
        before = grid.weights.copy()
        h = kernel_matrix((1, 1), 1.0, "gaussian", (3, 3))
        online_update(grid, (0.0, 0.0), 0.0, h)
        np.testing.assert_array_equal(grid.weights, before)

    def test_full_step_moves_bmu_onto_x(self):
        grid = WeightGrid(np.zeros((3, 3, 2)))
        h = np.zeros((3, 3))
        h[1, 1] = 1.0
        online_update(grid, (2.0, 5.0), 1.0, h)
        np.testing.assert_array_equal(grid.weights[1, 1], [2.0, 5.0])

    def test_midpoint(self):
        grid = WeightGrid(np.zeros((1, 1, 2)))
        online_update(grid, (2.0, 2.0), 0.5, np.ones((1, 1)))
        np.testing.assert_array_equal(grid.weights[0, 0], [1.0, 1.0])

    def test_convexity_box(self):
        rng = np.random.default_rng(8)
        grid = WeightGrid(rng.uniform(-1, 1, size=(5, 5, 3)))
        for _ in range(100):
            x = rng.uniform(-1, 1, size=3)
            alpha = rng.uniform(0, 1)
            h = kernel_matrix(
                (int(rng.integers(5)), int(rng.integers(5))), 1.3, "gaussian", (5, 5)
            )
            online_update(grid, x, alpha, h)
        assert grid.weights.min() >= -1 and grid.weights.max() <= 1


class TestBatchUpdate:
    def test_single_datapoint_collapses_reached_nodes(self):
        grid = WeightGrid(np.random.default_rng(0).normal(size=(3, 3, 2)))
        X = np.array([[4.0, -2.0]])
        bmus = transform(grid, X)
        batch_update(grid, X, bmus, sigma=2.0, kind="gaussian")
        np.testing.assert_allclose(grid.weights, np.broadcast_to([4.0, -2.0], (3, 3, 2)))

    def test_near_delta_kernel_assigns_own_datapoint(self):
        grid = WeightGrid(np.array([[[0.0], [0.1]], [[9.9], [10.0]]]))
        X = np.array([[0.0], [10.0]])
        bmus = transform(grid, X)
        before = grid.weights.copy()
        batch_update(grid, X, bmus, sigma=1e-6, kind="gaussian")
        assert grid.weights[0, 0, 0] == 0.0
        assert grid.weights[1, 1, 0] == 10.0
        # nodes out of kernel reach keep their previous weights
        assert grid.weights[0, 1, 0] == before[0, 1, 0]
        assert grid.weights[1, 0, 0] == before[1, 0, 0]

    def test_fixed_point_when_bmus_stable(self):
        # two separated points, two nodes; kernel-weighted means stay in
        # their own halves, so the recomputed BMUs cannot change
        grid = WeightGrid(np.array([[[0.5]], [[9.5]]]))
        X = np.array([[0.0], [10.0]])
        bmus = transform(grid, X)
        batch_update(grid, X, bmus, sigma=0.5, kind="gaussian")
        once = grid.weights.copy()
        bmus2 = transform(grid, X)
        np.testing.assert_array_equal(bmus, bmus2)
        batch_update(grid, X, bmus2, sigma=0.5, kind="gaussian")
        np.testing.assert_allclose(grid.weights, once, atol=1e-12)


class TestFitUnsupervised:
    def test_deterministic(self):
        X = np.random.default_rng(7).normal(size=(50, 3))
        cfg = small_config()
        g1, _ = fit_unsupervised(X, cfg, np.random.default_rng(99))
        g2, _ = fit_unsupervised(X, cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(g1.weights, g2.weights)

    def test_constant_dataset_contracts(self):
        X = np.tile([1.0, 2.0], (20, 1))
        cfg = small_config(n_iter_unsupervised=200)
        rng = np.random.default_rng(3)
        # force a spread-out initial grid by training on wider data first
        init = np.vstack([X, [[0.0, 0.0], [2.0, 4.0]]])
        grid, _ = fit_unsupervised(X, cfg, rng)
        dev = np.abs(grid.weights - np.array([1.0, 2.0])).max()
        assert dev < 1e-3  # init deviation is 0 for constant data ranges

    def test_single_step_only_touches_neighborhood(self):
        from somkit.som import grid_distance_matrix

        rng = np.random.default_rng(21)
        X = rng.uniform(size=(2, 2)) * [[1, 1], [20, 20]]  # two distant points
        cfg = small_config(
            n_row=8,
            n_column=8,
            n_iter_unsupervised=1,
            lr_schedule=ScheduleSpec("start-end", 0.1, 0.05, 1),
            radius_schedule=ScheduleSpec("linear", 1.0, 1.0, 1),
        )
        init_grid = init_weights(cfg, X, np.random.default_rng(55))
        trained, _ = fit_unsupervised(X, cfg, np.random.default_rng(55))
        moves = np.abs(trained.weights - init_grid.weights).max(axis=2)
        assert moves.max() > 0
        # movement concentrates around the sampled point's BMU; with
        # sigma=1 a cell at grid distance >= 3 moves at most
        # alpha * exp(-4.5) * |x - w| <= 0.1 * exp(-4.5) * 21
        far_bound = 0.1 * np.exp(-4.5) * 21
        candidates = [find_bmu(init_grid, x) for x in X]
        assert any(
            moves[grid_distance_matrix(bmu, (8, 8)) >= 3.0].max() <= far_bound
            for bmu in candidates
        )

    def test_batch_mode_runs_and_is_deterministic(self):
        X = np.random.default_rng(17).normal(size=(40, 2))
        cfg = small_config(update_mode="batch", n_iter_unsupervised=5)
        g1, _ = fit_unsupervised(X, cfg, np.random.default_rng(1))
        g2, _ = fit_unsupervised(X, cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(g1.weights, g2.weights)

    def test_quantization_error_improves_on_blobs(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            centers = np.array([[0.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
            X = np.vstack([c + rng.normal(size=(30, 2)) for c in centers])
            cfg = small_config(n_row=6, n_column=6, n_iter_unsupervised=400)
            init = init_weights(cfg, X, np.random.default_rng(1000 + seed))
            trained, _ = fit_unsupervised(X, cfg, np.random.default_rng(1000 + seed))
            if quantization_error(trained, X) < quantization_error(init, X):
                wins += 1
        assert wins >= 9

    def test_quantization_error_matches_row_loop(self):
        rng = np.random.default_rng(6)
        for metric in ("euclidean", "manhattan", "tanimoto", "mahalanobis"):
            if metric == "tanimoto":
                grid = WeightGrid(rng.integers(0, 2, size=(3, 4, 5)).astype(float))
                X = rng.integers(0, 2, size=(40, 5)).astype(float)
            else:
                grid = WeightGrid(rng.normal(size=(3, 4, 5)))
                X = rng.normal(size=(40, 5))
            cov_inv = estimate_inverse_covariance(X) if metric == "mahalanobis" else None
            loop = np.mean([
                feature_distance(x, grid.weights[r, c], metric, cov_inv)
                for x, (r, c) in zip(X, transform(grid, X, metric, cov_inv))
            ])
            assert quantization_error(grid, X, metric, cov_inv) == pytest.approx(loop, rel=1e-12)

    def test_seed_robustness_of_quantization_error(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(80, 2))
        cfg = small_config(n_row=5, n_column=5, n_iter_unsupervised=500)
        qes = [
            quantization_error(fit_unsupervised(X, cfg, np.random.default_rng(s))[0], X)
            for s in range(4)
        ]
        assert max(qes) <= 2 * min(qes)

    def test_mahalanobis_training_returns_cov_inv(self):
        X = np.random.default_rng(2).normal(size=(40, 3))
        cfg = small_config(metric="mahalanobis", n_iter_unsupervised=20)
        grid, cov_inv = fit_unsupervised(X, cfg, np.random.default_rng(0))
        assert cov_inv is not None and cov_inv.shape == (3, 3)
        transform(grid, X, "mahalanobis", cov_inv)


class TestTransformAndHistogram:
    def test_exact_node_hits(self):
        rng = np.random.default_rng(31)
        grid = WeightGrid(rng.normal(size=(4, 4, 3)))
        picks = [(0, 0), (2, 3), (3, 1)]
        X = np.array([grid.weights[r, c] for r, c in picks])
        np.testing.assert_array_equal(transform(grid, X), picks)

    def test_empty_dataset(self):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        assert transform(grid, np.empty((0, 2))).shape == (0, 2)

    def test_matches_find_bmu(self):
        rng = np.random.default_rng(32)
        grid = WeightGrid(rng.normal(size=(5, 7, 4)))
        X = rng.normal(size=(25, 4))
        expected = [find_bmu(grid, x) for x in X]
        np.testing.assert_array_equal(transform(grid, X), expected)

    def test_histogram_counts_sum_to_n(self):
        rng = np.random.default_rng(33)
        grid = WeightGrid(rng.normal(size=(3, 3, 2)))
        X = rng.normal(size=(57, 2))
        counts = bmu_histogram(grid, X)
        assert counts.sum() == 57

    def test_histogram_empty_and_identical(self):
        grid = WeightGrid(np.random.default_rng(0).normal(size=(3, 3, 2)))
        assert bmu_histogram(grid, np.empty((0, 2))).sum() == 0
        X = np.tile([0.4, 0.2], (12, 1))
        counts = bmu_histogram(grid, X)
        assert counts.max() == 12 and (counts > 0).sum() == 1

    def test_pigeonhole_many_nodes(self):
        rng = np.random.default_rng(34)
        grid = WeightGrid(rng.normal(size=(35, 35, 3)))
        X = rng.normal(size=(340, 3))
        counts = bmu_histogram(grid, X)
        assert (counts > 0).sum() <= 340
