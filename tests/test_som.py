import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from somkit.distances import _block_rows, estimate_inverse_covariance, feature_distance
from somkit.schedules import (
    LEARNING_RATE_KINDS,
    RADIUS_KINDS,
    ScheduleSpec,
    learning_rate,
    neighborhood_radius,
)
from somkit import distances, som
from somkit.som import (
    KERNELS,
    SomConfig,
    WeightGrid,
    _neg_squared_distances,
    _neighbourhood,
    batch_update,
    bmu_histogram,
    find_bmu,
    fit_unsupervised,
    init_weights,
    kernel_values,
    online_update,
    quantization_error,
    transform,
)
from somkit.seeding import phase_rng
from somkit.supervised import fit_classifier, fit_regressor

import oracles
from oracles import add_at_batch_update, grid_distance_matrix, kernel_matrix


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

    def test_tanimoto_checks_x_as_row_0_of_the_data_then_the_weights(self):
        grid = WeightGrid(np.full((2, 2, 3), 0.5))
        with pytest.raises(ValueError, match=r"data row index 0 holds 0\.25$"):
            find_bmu(grid, (1.0, 0.25, 0.0), "tanimoto")
        with pytest.raises(ValueError, match=r"weights row index 0 holds 0\.5$"):
            find_bmu(grid, (1.0, 0.0, 0.0), "tanimoto")

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
        d = grid_distance_matrix((2, 2), (9, 9))
        order = np.argsort(d.ravel())
        values = h.ravel()[order]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert np.all((h > 0) & (h <= 1))

    def test_rejects_tiny_sigma(self):
        with pytest.raises(ValueError):
            kernel_matrix((0, 0), 1e-9, "gaussian", (3, 3))


def whole_schedules(cfg, t_max, chunk=7):
    """Every iteration's learning rate and radius, as float arrays, and the
    kernel, from :func:`somkit.som._neighbourhood`'s chunks of ``chunk``
    iterations, all of them full but the last."""
    kernel, schedules = _neighbourhood(cfg, t_max, chunk)
    chunks = list(schedules)
    sizes = [min(chunk, t_max - start) for start in range(0, t_max, chunk)]
    assert [len(a) for a, _ in chunks] == [len(s) for _, s in chunks] == sizes
    alphas = np.concatenate([np.empty(0), *(a for a, _ in chunks)])
    sigmas = np.concatenate([np.empty(0), *(s for _, s in chunks)])
    return alphas, sigmas, kernel


def run_loop(cfg, t_max, bmus):
    """(alpha, h) of each iteration on a stack of one, whose BMU at iteration
    t is the node index ``bmus[t]``, as the training loops take them from
    :func:`somkit.som._neighbourhood`."""
    alphas, sigmas, kernel = whole_schedules(cfg, t_max)
    assert len(alphas) == len(sigmas) == t_max
    return [(alpha, kernel([node], sigma)[0])
            for node, alpha, sigma in zip(bmus, alphas.tolist(), sigmas.tolist())]


class TestNeighbourhoodStep:
    @pytest.mark.parametrize("shape", [(20, 20), (40, 20), (1, 7), (3, 5)])
    def test_distance_table_equals_grid_distance_matrix(self, shape):
        table = _neg_squared_distances(shape)
        assert table.shape == (*shape, *shape)
        assert not table.flags.writeable
        for bmu in np.ndindex(shape):
            assert table[bmu].tobytes() == (-(grid_distance_matrix(bmu, shape) ** 2)).tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "mexican-hat"])
    def test_step_equals_schedules_and_kernel_matrix(self, kind):
        lr, radius = ScheduleSpec("power", 0.7), ScheduleSpec("exponential", 2.5)
        cfg = SomConfig(n_row=6, n_column=4, kernel=kind, lr_schedule=lr, radius_schedule=radius)
        picks = np.random.default_rng(1).integers(24, size=28)
        bmus = [0, 23, *picks.tolist()]  # (0, 0), (5, 3) and the picks, row-major
        steps = run_loop(cfg, 30, bmus)
        lr, radius = replace(lr, t_max=30), replace(radius, t_max=30)
        assert len(steps) == 30
        for t, (bmu, (alpha, h)) in enumerate(zip(bmus, steps)):
            expected = kernel_matrix(divmod(bmu, 4), neighborhood_radius(t, radius), kind, (6, 4))
            assert alpha == learning_rate(t, lr)
            assert h.tobytes() == expected.tobytes() and h.shape == (6, 4)

    @pytest.mark.parametrize("kind", ["gaussian", "mexican-hat"])
    def test_stacked_runs_step_as_separate_runs(self, kind):
        cfg = SomConfig(n_row=5, n_column=3, kernel=kind)
        bmus = np.random.default_rng(2).integers(15, size=(3, 40))
        separate = [run_loop(cfg, 40, run) for run in bmus]
        _, sigmas, kernel = whole_schedules(cfg, 40)
        for t, bmu in enumerate(bmus.T):
            h = kernel(bmu, sigmas[t])
            assert h.shape == (3, 5, 3)
            for f, run in enumerate(separate):
                assert h[f].tobytes() == run[t][1].tobytes()

    def test_zero_iterations_still_define_schedules(self):
        cfg = SomConfig(n_iter_supervised=0)
        assert run_loop(cfg, 0, []) == []
        ((alpha, h),) = run_loop(cfg, 1, [0])
        assert alpha == 0.5 and h.shape == (10, 10)

    # chunks of 7: no iteration, one, a chunk but one, a chunk and one more
    @pytest.mark.parametrize("t_max", [0, 1, 6, 7, 8])
    @pytest.mark.parametrize("radius_kind", RADIUS_KINDS)
    @pytest.mark.parametrize("lr_kind", LEARNING_RATE_KINDS)
    def test_chunks_hold_the_bits_of_the_schedules(self, lr_kind, radius_kind, t_max):
        lr, radius = ScheduleSpec(lr_kind, 0.8, 0.05), ScheduleSpec(radius_kind, 3.5, 0.5)
        cfg = SomConfig(n_row=3, n_column=2, lr_schedule=lr, radius_schedule=radius)
        alphas, sigmas, _ = whole_schedules(cfg, t_max, 7)
        lr, radius = (replace(spec, t_max=max(t_max, 1)) for spec in (lr, radius))
        assert alphas.tobytes() == np.array([learning_rate(t, lr) for t in range(t_max)]).tobytes()
        assert sigmas.tobytes() == np.array(
            [neighborhood_radius(t, radius) for t in range(t_max)]).tobytes()

    def test_first_chunk_of_a_long_fit_comes_back_at_once(self):
        cfg, t_max = SomConfig(n_row=3, n_column=2), 10**12
        tracemalloc.start()
        try:
            _, schedules = _neighbourhood(cfg, t_max, 7)
            alphas, sigmas = next(schedules)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lr, radius = (replace(spec, t_max=t_max) for spec in (cfg.lr_schedule, cfg.radius_schedule))
        assert alphas.tolist() == [learning_rate(t, lr) for t in range(7)]
        assert sigmas.tolist() == [neighborhood_radius(t, radius) for t in range(7)]
        assert peak < 2**16


class TestDrawsBeforeTheLoop:
    """One ``integers(n, size=T)`` call gives the values and the final
    generator state of T scalar ``integers(n)`` calls. The online map and the
    regression head draw the datapoints of each chunk of iterations that way
    before its steps, so a numpy release that broke this would change their
    outputs."""

    @pytest.mark.parametrize("n", [1, 2, 3, 600, 2**20, 2**31 + 5, 3 * 10**9])
    @pytest.mark.parametrize("T", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("before", ["nothing", "doubles", "one integer"])
    def test_one_call_equals_scalar_calls(self, n, T, before):
        one, scalar = np.random.default_rng(8), np.random.default_rng(8)
        for rng in (one, scalar):
            if before == "doubles":
                rng.random(3)
            elif before == "one integer":
                rng.integers(5)  # leaves half of a 64-bit draw buffered
        values = one.integers(n, size=T)
        assert values.tolist() == [int(scalar.integers(n)) for _ in range(T)]
        assert one.bit_generator.state == scalar.bit_generator.state


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


def dense_batch_update(weights, X, bmus, sigma, kind):
    """The batch update through the (N, nodes) kernel matrix: the oracle.

    Returns the new weights, each node's kernel mass and rounding bounds on
    the weights and on the mass within which any order of the sums agrees.
    """
    shape, n = weights.shape[:2], weights.shape[2]
    nodes = shape[0] * shape[1]
    d = oracles._grid_distances(shape)[bmus[:, 0], bmus[:, 1]]
    h = kernel_values(d.reshape(len(X), -1), sigma, kind)
    mass = h.sum(axis=0)
    new = weights.reshape(nodes, n).copy()
    ok = mass > 0
    new[ok] = (h.T @ X)[ok] / mass[ok, None]

    # Either formula sums at most N + nodes products for a numerator or a
    # mass (the batch map N into per-node sums and then nodes through the
    # kernel), so each errs by at most gamma = (N + nodes) eps times the sum
    # of the absolute products, plus an underflow of up to half the smallest
    # subnormal per product. For W = U / m that gives
    # (err U + |W| err m) / |m|, and the two formulas differ by twice it
    # plus a rounded division each. The mexican-hat mass cancels, so its
    # sum_i |h| exceeds |m|: a blanket relative tolerance does not hold.
    # Where every h of a node is 0, both masses are exactly 0.
    terms = len(X) + nodes
    tiny = terms * np.finfo(float).smallest_subnormal
    eps = np.finfo(float).eps
    abs_h = np.abs(h)
    mass_err = terms * eps * abs_h.sum(axis=0) + tiny * abs_h.any(axis=0)
    numerator_err = terms * eps * (abs_h.T @ np.abs(X)) + tiny
    with np.errstate(divide="ignore"):
        tol = 2 * (numerator_err + np.abs(new) * mass_err[:, None]) / np.abs(mass)[:, None]
    tol += 2 * eps * np.abs(new)
    return new.reshape(weights.shape), mass, tol.reshape(weights.shape), 2 * mass_err


BATCH_CASES = {
    # shape, N, n, number of nodes that win data
    "4x5": ((4, 5), 300, 3, 20),
    "nodes-without-data": ((6, 7), 200, 4, 5),
    "one-datapoint": ((5, 3), 1, 2, 1),
    "1x1-grid": ((1, 1), 50, 3, 1),
    "40x20-n204": ((40, 20), 400, 204, 300),
}


class TestBatchMapEquivalence:
    @pytest.mark.parametrize("kind", ["gaussian", "mexican-hat"])
    @pytest.mark.parametrize("sigma", [0.5, 1.3, 3.0, 10.0])
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_matches_dense_formula(self, case, sigma, kind):
        shape, N, n, winners = BATCH_CASES[case]
        rng = np.random.default_rng([N, n, winners])
        weights = rng.normal(size=(*shape, n))
        X = 5.0 + rng.normal(size=(N, n)) * rng.uniform(0.1, 10.0, size=n)
        nodes = rng.permutation(shape[0] * shape[1])[:winners]
        bmus = np.column_stack(np.unravel_index(rng.choice(nodes, size=N), shape))
        expected, mass, tol, mass_tol = dense_batch_update(weights, X, bmus, sigma, kind)

        grid = WeightGrid(weights.copy())
        assert batch_update(grid, X, bmus, sigma, kind) is grid
        # Where the mass is within its rounding bound of 0 the two formulas
        # may take different branches; elsewhere they must agree.
        decided = (np.abs(mass) > mass_tol) | (mass_tol == 0)
        kept = (decided & (mass <= 0)).reshape(shape)
        moved = (decided & (mass > 0)).reshape(shape)
        assert grid.weights[kept].tobytes() == weights[kept].tobytes()
        assert np.all(np.abs(grid.weights[moved] - expected[moved]) <= tol[moved])
        assert decided.all()

    def test_nonpositive_mass_keeps_weight_bit_for_bit(self):
        # every datapoint sits at node (0, 0) of a 1x5 grid; at sigma 1 the
        # mexican hat is 0 at grid distance 1 and negative beyond
        rng = np.random.default_rng(12)
        weights = rng.normal(size=(1, 5, 3))
        X = rng.normal(size=(30, 3))
        bmus = np.zeros((30, 2), dtype=int)
        _, mass, _, _ = dense_batch_update(weights, X, bmus, 1.0, "mexican-hat")
        assert mass[1] == 0 and np.all(mass[2:] < 0)

        grid = WeightGrid(weights.copy())
        batch_update(grid, X, bmus, 1.0, "mexican-hat")
        assert grid.weights[0, 1:].tobytes() == weights[0, 1:].tobytes()
        np.testing.assert_allclose(grid.weights[0, 0], X.mean(axis=0), rtol=1e-13)

    def test_memory_does_not_grow_with_the_dataset(self):
        # aim: bounded memory as N grows. Only the flat BMU index array
        # (one index per datapoint) may grow with N; the kernel is
        # (nodes, nodes), the per-node sums (nodes, n).
        rng = np.random.default_rng(13)
        grid = WeightGrid(rng.normal(size=(40, 20, 3)))
        peaks = {}
        for N in (2000, 20000):
            X = rng.normal(size=(N, 3))
            bmus = transform(grid, X)
            batch_update(grid, X, bmus, 3.0)  # warm caches and lazy imports
            tracemalloc.start()
            try:
                batch_update(grid, X, bmus, 3.0)
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        index_bytes = np.dtype(np.intp).itemsize
        # the flat index array and the count pass over it
        assert peaks[20000] - peaks[2000] <= 2 * (20000 - 2000) * index_bytes


def _loop_data(kind):
    """60 rows of 3 features, continuous targets and imbalanced class labels.

    "ties" holds two distinct rows only. Online training at a learning rate
    of 1 collapses nodes onto them, so BMU search re-ranks tied nodes: 14
    and 43 times in the gaussian euclidean and mahalanobis maps of the power
    schedule with the linear radius.
    """
    rng = np.random.default_rng(31)
    labels = rng.choice(3, size=60, p=[0.6, 0.3, 0.1])
    if kind == "ties":
        X = rng.uniform(size=(2, 3))[labels % 2]
    else:
        X = rng.normal(size=(60, 3)) + 4.0 * np.eye(3)[labels]
    return X, X.sum(axis=1), np.array(["a", "b", "c"])[labels]


class TestFitsMatchReplacedLoops:
    """The online map and both heads give the bits and the generator states
    of the three loops one iteration at a time that they replaced, kept in
    ``oracles``."""

    @staticmethod
    def fits(fit_map, fit_reg, fit_cls, X, y, labels, cfg, cov_inv):
        rngs = [np.random.default_rng(s) for s in (1, 2, 3, 4)]
        grid, cov = fit_map(X, cfg, rngs[0], cov_inv)
        unsup = WeightGrid(grid.weights.copy())
        values = fit_reg(unsup, X, y, cfg, rngs[1], cov).values
        codes = fit_cls(unsup, X, labels, cfg, rngs[2], cov).codes
        weighted = fit_cls(unsup, X, labels, replace(cfg, class_weighting=True), rngs[3], cov)
        return ([grid.weights.tobytes(), values.tobytes(), codes.tobytes(),
                 weighted.codes.tobytes()], [r.bit_generator.state for r in rngs])

    @pytest.mark.parametrize("iterations", [(60, 30), (1, 1), (1, 0)])
    @pytest.mark.parametrize("data", ["blobs", "ties"])
    @pytest.mark.parametrize("kernel", ["gaussian", "mexican-hat"])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "mahalanobis"])
    def test_fits_are_bit_equal(self, metric, kernel, data, iterations):
        X, y, labels = _loop_data(data)
        cov_inv = estimate_inverse_covariance(_loop_data("blobs")[0]) if metric == "mahalanobis" else None
        lr_start = 1.0 if data == "ties" else 0.6
        for lr_kind in LEARNING_RATE_KINDS:
            for radius_kind in RADIUS_KINDS:
                cfg = SomConfig(
                    n_row=4, n_column=5, n_iter_unsupervised=iterations[0],
                    n_iter_supervised=iterations[1], metric=metric, kernel=kernel,
                    lr_schedule=ScheduleSpec(lr_kind, lr_start, 0.05),
                    radius_schedule=ScheduleSpec(radius_kind, 2.5, 0.5))
                new = self.fits(fit_unsupervised, fit_regressor, fit_classifier,
                                X, y, labels, cfg, cov_inv)
                old = self.fits(oracles.fit_unsupervised, oracles.fit_regressor,
                                oracles.fit_classifier, X, y, labels, cfg, cov_inv)
                assert new == old, (lr_kind, radius_kind)


def force_two_parts(monkeypatch):
    """Every euclidean and manhattan online fit steps on two parts, whatever
    the machine and the size; returns the number of parts of each fit."""
    parts, feature_parts = [], som._feature_parts

    def recorded(metric, shape):
        parts.append(len(got := feature_parts(metric, shape)))
        return got
    monkeypatch.setattr(som, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(som, "_TWO_PART_ELEMENTS", 0)
    monkeypatch.setattr(som, "_feature_parts", recorded)
    return parts


def fit_stack(k, cfg, data="blobs"):
    """The weights of a stack of k maps, trained together on shifted copies
    of the loop data, and their generators' states."""
    X = _loop_data(data)[0]
    rngs = [np.random.default_rng(f) for f in range(k)]
    fitted = som._fit_maps([X + f for f in range(k)], cfg, rngs, [None] * k)
    return [grid.weights.tobytes() for grid, _ in fitted], [r.bit_generator.state for r in rngs]


class TestTwoPartFit:
    """A large euclidean or manhattan online fit steps on two feature halves,
    the second in a worker thread; every output is the one-part fit's."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_two_parts_give_the_bits_of_one(self, monkeypatch, metric, kernel, k):
        for data in ("blobs", "ties"):
            cfg = small_config(metric=metric, kernel=kernel, n_iter_unsupervised=300,
                               lr_schedule=ScheduleSpec("start-end", 1.0, 0.05))
            one = fit_stack(k, cfg, data)
            with monkeypatch.context() as patch:
                parts = force_two_parts(patch)
                two = fit_stack(k, cfg, data)
            assert parts == [2]
            assert two == one

    @pytest.mark.parametrize("diverges", [False, True])
    def test_the_worker_stops_and_the_switch_interval_is_restored(self, monkeypatch, diverges):
        parts = force_two_parts(monkeypatch)
        threads, default = threading.enumerate(), sys.getswitchinterval()
        # a learning rate of 1e308 overflows the weights at the first steps
        lr = ScheduleSpec("inverse", 1e308, 0.05) if diverges else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sys.setswitchinterval(0.003)  # one that no earlier fit could leave
            interval = sys.getswitchinterval()
            try:
                fit_stack(1, small_config(lr_schedule=lr))
            except ValueError as error:
                assert diverges and "diverged" in str(error)
            else:
                assert not diverges
            finally:
                after = sys.getswitchinterval()
                sys.setswitchinterval(default)
        assert parts == [2]
        assert threading.enumerate() == threads
        assert after == interval
        # the worker ignores overflow under its own error state
        assert [str(w.message) for w in caught] == []

    def test_fits_at_once_in_several_threads(self, monkeypatch):
        """Three two-part fits at once run six threads on the machine's CPUs;
        each gives the one-part bits. The later two start once the first has
        lowered the switch interval and run longer, and whichever finishes
        last restores the interval set before the first."""
        cfgs = [small_config(metric=metric, n_iter_unsupervised=n_iter) for metric, n_iter
                in (("euclidean", 1000), ("manhattan", 4000), ("euclidean", 4000))]
        expected = [fit_stack(k, cfg) for k, cfg in zip((1, 2, 3), cfgs)]
        parts = force_two_parts(monkeypatch)
        default = sys.getswitchinterval()
        sys.setswitchinterval(0.003)
        interval, got = sys.getswitchinterval(), [None] * 3

        def fit(i):
            got[i] = fit_stack(i + 1, cfgs[i])
        threads = [threading.Thread(target=fit, args=(i,)) for i in range(3)]
        try:
            threads[0].start()
            deadline = time.monotonic() + 60
            while sys.getswitchinterval() == interval and time.monotonic() < deadline:
                time.sleep(0.001)
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            after = sys.getswitchinterval()
        finally:
            sys.setswitchinterval(default)
        assert parts == [2, 2, 2]
        assert got == expected
        assert after == interval

    def test_an_error_in_the_worker_is_raised_by_the_fit(self, monkeypatch):
        force_two_parts(monkeypatch)
        threads, row_scores = threading.enumerate(), som._row_scores

        def failing(D, search, out=None):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("in the worker")
            return row_scores(D, search, out)
        monkeypatch.setattr(som, "_row_scores", failing)
        with pytest.raises(FloatingPointError, match="in the worker"):
            fit_stack(1, small_config())
        assert threading.enumerate() == threads

    def test_parts_follow_the_metric_the_size_and_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        halves = [slice(0, 102), slice(102, 204)]
        # the benchmark's scene map steps on two parts; its desk maps, one or
        # a crossval stack of 5, and a correlated-sized map on one
        assert som._feature_parts("euclidean", (1, 204, 800)) == halves
        assert som._feature_parts("manhattan", (1, 204, 800)) == halves
        for shape in [(1, 2, 400), (5, 2, 400), (1, 32, 400)]:
            assert som._feature_parts("euclidean", shape) == [slice(0, shape[1])]
        # mahalanobis scores mix the features; one feature cannot be halved
        assert som._feature_parts("mahalanobis", (1, 204, 800)) == [slice(0, 204)]
        assert som._feature_parts("euclidean", (1, 1, 10**6)) == [slice(0, 1)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert som._usable_cpus() == 1
        assert som._feature_parts("euclidean", (1, 204, 800)) == [slice(0, 204)]


class TestPerNodeSums:
    """Per-node sums and counts by bincount equal np.add.at's, bit for bit."""

    @pytest.mark.parametrize("shape, N, n", [((4, 5), 300, 3), ((6, 7), 1, 2),
                                             ((40, 20), 2000, 204)])
    @pytest.mark.parametrize("kind", ["gaussian", "mexican-hat"])
    def test_batch_update_matches_add_at(self, shape, N, n, kind):
        rng = np.random.default_rng([N, n])
        weights = rng.normal(size=(*shape, n))
        X = rng.normal(size=(N, n)) * rng.uniform(0.1, 1e3, size=n)
        nodes = shape[0] * shape[1]
        # the last node wins no datapoint
        bmus = np.column_stack(np.unravel_index(rng.integers(0, nodes - 1, size=N), shape))
        expected = add_at_batch_update(weights, X, bmus, 1.5, kind)
        grid = WeightGrid(weights.copy())
        batch_update(grid, X, bmus, 1.5, kind)
        assert grid.weights.tobytes() == expected.tobytes()

    def test_histogram_matches_add_at(self):
        rng = np.random.default_rng(36)
        grid = WeightGrid(rng.normal(size=(6, 7, 3)))
        X = rng.normal(size=(30, 3))  # fewer rows than nodes, so some node gets none
        bmus = transform(grid, X)
        expected = np.zeros((6, 7), dtype=int)
        np.add.at(expected, (bmus[:, 0], bmus[:, 1]), 1)
        assert (expected == 0).any()
        counts = bmu_histogram(grid, X)
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)


@pytest.mark.parametrize("fit", ["map", "regression", "classification"])
def test_fit_memory_does_not_grow_with_the_iterations(fit):
    # aim: bounded memory. The online map and the heads hold one chunk of
    # iterations at a time, their rows, steps and schedules; at 64 features
    # the map's chunks are 128 iterations, the heads' 1310 on 5 x 5 nodes.
    # The heads release a chunk's targets and flip masks before drawing the
    # next, so theirs grow by a few hundred bytes, not by a chunk of those.
    rng = np.random.default_rng(22)
    X = rng.normal(size=(300, 64))
    grid = WeightGrid(rng.normal(size=(5, 5, 64)))
    labels = {"map": None, "regression": X.sum(axis=1),
              "classification": rng.choice(["a", "b", "c"], size=300)}[fit]
    fits = {"map": lambda cfg: fit_unsupervised(X, cfg, np.random.default_rng(0)),
            "regression": lambda cfg: fit_regressor(grid, X, labels, cfg, np.random.default_rng(0)),
            "classification": lambda cfg: fit_classifier(grid, X, labels, cfg,
                                                         np.random.default_rng(0))}
    configs = {n_iter: small_config(n_row=5, n_column=5, n_iter_unsupervised=n_iter,
                                    n_iter_supervised=n_iter) for n_iter in (2000, 20000)}
    fits[fit](configs[2000])  # warm caches
    peaks = {}
    for n_iter, cfg in configs.items():
        tracemalloc.start()
        try:
            fits[fit](cfg)
            peaks[n_iter] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20000] - peaks[2000] < (64 * 1024 if fit == "map" else 1024)


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

    @pytest.mark.parametrize("n_iter", [1, 2, 3])
    def test_diverging_batch_map_is_error(self, n_iter):
        # the rows and map of the CLI's DIVERGING_BATCH: the first mexican-hat
        # batch update carries the weights past the exact search's range, and
        # the map says so there, whether or not more iterations follow
        rng = np.random.default_rng(1804)
        rng.integers(2, 12)
        X = 1e150 * rng.normal(size=(10, 2))
        radius = ScheduleSpec("start-end", 1.4736537333670832, 1.4736537333670832)
        cfg = small_config(n_row=2, n_column=5, n_iter_unsupervised=n_iter,
                           update_mode="batch", kernel="mexican-hat", radius_schedule=radius,
                           seed=181)
        with pytest.raises(ValueError, match=(
                r"^batch training diverged with the mexican-hat kernel: the node weights left "
                r"the range where the BMU search is exact, as their squared distances to the "
                r"data overflow; the gaussian kernel keeps them bounded$")):
            fit_unsupervised(X, cfg, phase_rng(181, "unsupervised"))

    def test_batch_maps_search_with_the_fits_one_search(self, monkeypatch):
        # a mahalanobis batch fit of 2 maps for 5 iterations builds one search
        # per map and one neighbourhood for both, before training, and its
        # loop calls neither public function; each map keeps the bits of the
        # loop through them
        rng = np.random.default_rng(28)
        Xs = [rng.normal(size=(60, 3)) @ rng.normal(size=(3, 3)) for _ in range(2)]
        cfg = small_config(metric="mahalanobis", update_mode="batch", n_iter_unsupervised=5)
        expected = [oracles.fit_unsupervised(X, cfg, np.random.default_rng(f))[0].weights
                    for f, X in enumerate(Xs)]
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(distances, "_search", counted("_search", distances._search))
        for name in ("_search", "_neighbourhood", "transform", "batch_update"):
            monkeypatch.setattr(som, name, counted(name, getattr(som, name)))
        fitted = som._fit_maps(Xs, cfg, [np.random.default_rng(f) for f in range(2)],
                               [None, None])
        assert calls == ["_search", "_search", "_neighbourhood"]
        for (grid, _), weights in zip(fitted, expected):
            assert grid.weights.tobytes() == weights.tobytes()

    def test_tanimoto_is_rejected_before_initialising(self):
        X = np.random.default_rng(3).integers(0, 2, size=(50, 8)).astype(float)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="tanimoto maps cannot be trained"):
            fit_unsupervised(X, small_config(metric="tanimoto"), rng)
        assert rng.bit_generator.state == state

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

    def test_tanimoto_error_names_the_row_of_the_whole_data(self):
        rng = np.random.default_rng(35)
        grid = WeightGrid(rng.integers(0, 2, size=(40, 20, 6)).astype(float))
        X = rng.integers(0, 2, size=(1000, 6)).astype(float)
        X[700, 2] = 0.5
        assert _block_rows(800, 6, "tanimoto") < 700
        with pytest.raises(ValueError, match=r"data row index 700 holds 0\.5$"):
            transform(grid, X, "tanimoto")

    def test_pigeonhole_many_nodes(self):
        rng = np.random.default_rng(34)
        grid = WeightGrid(rng.normal(size=(35, 35, 3)))
        X = rng.normal(size=(340, 3))
        counts = bmu_histogram(grid, X)
        assert (counts > 0).sum() <= 340

    def test_transform_memory_does_not_grow_with_the_dataset(self):
        # aim: bounded memory as N grows. Only the (N, 2) output and one
        # index per datapoint may grow with N; a block of rows holds at most
        # BLOCK_BYTES of scores, whatever N is.
        rng = np.random.default_rng(14)
        grid = WeightGrid(rng.normal(size=(40, 20, 3)))
        peaks = {}
        for N in (2000, 20000):
            X = rng.normal(size=(N, 3))
            transform(grid, X)  # warm caches and lazy imports
            tracemalloc.start()
            try:
                transform(grid, X)
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        index_bytes = np.dtype(np.intp).itemsize
        assert peaks[20000] - peaks[2000] <= (2 + 1) * (20000 - 2000) * index_bytes

    def test_rescoring_ties_on_equal_weights_stays_within_block_bytes(self):
        # every node of an all-zero map is near every row's minimum, so every
        # (row, node) pair is re-scored exactly, a chunk of pairs at a time
        rng = np.random.default_rng(30)
        grid = WeightGrid(np.zeros((20, 20, 32)))
        X = rng.normal(size=(2000, 32))
        transform(grid, X)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            bmus = transform(grid, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * distances.BLOCK_BYTES
        assert not bmus.any()  # node 0, the lowest index of the ties

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_transform_blocks_of_many_features_stay_within_block_bytes(self, metric):
        # on 12 nodes of 204 features a block's rows, (rows, n + 1), are
        # wider than its scores; the blocks are sized by them
        rng = np.random.default_rng(29)
        grid = WeightGrid(rng.normal(size=(3, 4, 204)))
        X = rng.normal(size=(20000, 204))
        cov_inv = estimate_inverse_covariance(X[:1000]) if metric == "mahalanobis" else None
        transform(grid, X, metric, cov_inv)  # warm caches and lazy imports
        tracemalloc.start()
        try:
            transform(grid, X, metric, cov_inv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * distances.BLOCK_BYTES
