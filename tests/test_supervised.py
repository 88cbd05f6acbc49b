import tracemalloc

import numpy as np
import pytest

import oracles
from somkit import supervised
from somkit.schedules import ScheduleSpec
from somkit.som import (
    SomConfig,
    WeightGrid,
    _neighbourhood,
    fit_unsupervised,
    transform,
)
from somkit.supervised import (
    class_weights,
    fit_classifier,
    fit_regressor,
    init_classifier,
    predict_classification,
    predict_regression,
)
from somkit.supervised import ClassificationHead, RegressionHead


def two_blob_data(seed=0, n_per=40, sep=12.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2))
    b = np.array([sep, sep]) + rng.normal(size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    return X, y


def trained_grid(X, seed=1, **kw):
    params = dict(n_row=6, n_column=6, n_iter_unsupervised=400, n_iter_supervised=600)
    params.update(kw)
    cfg = SomConfig(**params)
    grid, cov = fit_unsupervised(X, cfg, np.random.default_rng(seed))
    return cfg, grid, cov


class TestFitRegressor:
    def test_constant_labels_converge(self):
        X, _ = two_blob_data()
        y = np.full(len(X), 3.25)
        cfg, grid, _ = trained_grid(X)
        head = fit_regressor(grid, X, y, cfg, np.random.default_rng(2))
        assert np.abs(head.values - 3.25).max() < 1e-12  # init range is degenerate

    def test_zero_iterations_equals_init(self):
        X, y = two_blob_data()
        cfg = SomConfig(n_row=4, n_column=4, n_iter_unsupervised=50, n_iter_supervised=0)
        grid, _ = fit_unsupervised(X, cfg, np.random.default_rng(1))
        head = fit_regressor(grid, X, y, cfg, np.random.default_rng(7))
        expected = np.random.default_rng(7).uniform(y.min(), y.max(), size=(4, 4))
        np.testing.assert_array_equal(head.values, expected)

    def test_separable_clusters_predict_their_labels(self):
        X, y = two_blob_data(seed=3)
        cfg, grid, _ = trained_grid(X, seed=4, n_iter_supervised=4000)
        head = fit_regressor(grid, X, y, cfg, np.random.default_rng(5))
        pred = predict_regression(grid, head, X)
        assert np.abs(pred[y == 0]).max() < 0.1
        assert np.abs(pred[y == 1] - 1.0).max() < 0.1

    def test_head_stays_in_label_range(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(60, 2))
        y = rng.uniform(-3, 7, size=60)
        cfg, grid, _ = trained_grid(X, seed=12)
        head = fit_regressor(grid, X, y, cfg, np.random.default_rng(13))
        assert head.values.min() >= y.min() - 1e-12
        assert head.values.max() <= y.max() + 1e-12

    def test_rejects_learning_rate_above_one(self):
        X, y = two_blob_data()
        cfg = SomConfig(
            n_row=3, n_column=3, n_iter_unsupervised=10,
            lr_schedule=ScheduleSpec("linear", 1.5, t_max=10),
        )
        grid, _ = fit_unsupervised(X, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            fit_regressor(grid, X, y, cfg, np.random.default_rng(0))

    def test_rejects_labels_past_the_float_range_before_drawing(self):
        X, _ = two_blob_data()
        y = np.resize([1e308, -1e308, 0.0, 1.0], len(X))
        cfg = SomConfig(n_row=3, n_column=3, n_iter_unsupervised=10)
        grid, _ = fit_unsupervised(X, cfg, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="regression labels from -1e"):
            fit_regressor(grid, X, y, cfg, rng)
        assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state

    def test_freezes_unsupervised_grid(self):
        X, y = two_blob_data(seed=8)
        cfg, grid, _ = trained_grid(X, seed=9)
        before = transform(grid, X)
        weights_before = grid.weights.copy()
        fit_regressor(grid, X, y, cfg, np.random.default_rng(10))
        np.testing.assert_array_equal(grid.weights, weights_before)
        np.testing.assert_array_equal(transform(grid, X), before)


class TestPredictRegression:
    def test_exact_node_hit(self):
        grid = WeightGrid(np.random.default_rng(1).normal(size=(3, 3, 2)))
        values = np.zeros((3, 3))
        values[1, 2] = 7.5
        head = RegressionHead(values)
        pred = predict_regression(grid, head, grid.weights[1, 2][None, :])
        assert pred[0] == 7.5

    def test_empty_input(self):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        head = RegressionHead(np.zeros((2, 2)))
        assert predict_regression(grid, head, np.empty((0, 2))).shape == (0,)

    def test_output_length(self):
        grid = WeightGrid(np.random.default_rng(2).normal(size=(3, 3, 2)))
        head = RegressionHead(np.arange(9.0).reshape(3, 3))
        X = np.random.default_rng(3).normal(size=(17, 2))
        assert predict_regression(grid, head, X).shape == (17,)


class TestHeadLabels:
    """Each head carries its kind tag and its node labels, which both
    predict functions read at the BMUs."""

    def test_kinds_and_labels(self):
        values = np.arange(6.0).reshape(2, 3)
        regression = RegressionHead(values)
        assert regression.kind == "regression"
        assert regression.labels is regression.values
        codes = np.array([[1, 0, 1], [2, 2, 0]])
        classification = ClassificationHead(codes, np.array(["a", "b", "c"]))
        assert classification.kind == "classification"
        assert classification.labels.tolist() == [["b", "a", "b"], ["c", "c", "a"]]
        np.testing.assert_array_equal(classification.classes, classification.labels)

    @pytest.mark.parametrize("class_set", [np.array(["x", "yy", "z"]), np.array([3, 7, 9]),
                                           np.array([0.5, 1.5, 2.5])])
    @pytest.mark.parametrize("rows", [0, 1, 25])
    def test_classes_at_the_bmus_as_the_codes_read_there(self, class_set, rows):
        rng = np.random.default_rng(rows)
        grid = WeightGrid(rng.normal(size=(3, 4, 2)))
        head = ClassificationHead(rng.integers(3, size=(3, 4)), class_set)
        X = rng.normal(size=(rows, 2))
        bmus = transform(grid, X)
        expected = head.class_set[head.codes[bmus[:, 0], bmus[:, 1]]]
        got = predict_classification(grid, head, X)
        assert (got.dtype, got.shape, got.tolist()) == (
            expected.dtype, expected.shape, expected.tolist())


class TestInitClassifier:
    def test_single_class(self):
        X, _ = two_blob_data()
        y = np.full(len(X), "A")
        cfg, grid, _ = trained_grid(X)
        head = init_classifier(grid, X, y, rng=np.random.default_rng(0))
        assert set(head.classes.ravel()) == {"A"}

    def test_strict_majority(self):
        grid = WeightGrid(np.array([[[0.0]], [[100.0]]]))
        X = np.array([[0.0], [0.1], [-0.1], [100.0]])
        y = np.array(["A", "A", "B", "C"])
        head = init_classifier(grid, X, y, rng=np.random.default_rng(0))
        assert head.classes[0, 0] == "A"
        assert head.classes[1, 0] == "C"

    def test_unmapped_nodes_get_global_mode(self):
        grid = WeightGrid(np.array([[[0.0]], [[1.0]], [[500.0]]]))
        X = np.array([[0.0]] * 6 + [[1.0]] * 4)
        y = np.array(["A"] * 6 + ["B"] * 4)
        head = init_classifier(grid, X, y, rng=np.random.default_rng(0))
        assert head.classes[2, 0] == "A"

    def test_tie_break_is_seeded_uniform(self):
        grid = WeightGrid(np.array([[[0.0]]]))
        X = np.array([[0.0], [0.0]])
        y = np.array(["A", "B"])
        picks = {
            str(init_classifier(grid, X, y, rng=np.random.default_rng(s)).classes[0, 0])
            for s in range(30)
        }
        assert picks == {"A", "B"}

    def test_empty_data(self):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            init_classifier(grid, np.empty((0, 2)), np.empty(0))

    @staticmethod
    def per_node_loop(votes, global_mode, rng):
        """The per-node reference: argmax, a draw among ties, global mode when empty."""
        codes = np.empty(votes.shape[:2], dtype=int)
        for r in range(votes.shape[0]):
            for c in range(votes.shape[1]):
                node_votes = votes[r, c]
                if node_votes.sum() == 0:
                    codes[r, c] = global_mode
                    continue
                tied = np.flatnonzero(node_votes == node_votes.max())
                codes[r, c] = tied[0] if tied.size == 1 else rng.choice(tied)
        return codes

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_node_loop_with_many_ties(self, seed):
        rng = np.random.default_rng(seed)
        shape, n_classes, n = (7, 6), 4, 90  # about two votes a node: many ties
        bmus = np.column_stack([rng.integers(shape[0], size=n), rng.integers(shape[1], size=n)])
        y = rng.integers(n_classes, size=n)
        y[:n_classes] = np.arange(n_classes)  # every class present: codes equal y
        votes = np.zeros((*shape, n_classes), dtype=int)
        np.add.at(votes, (bmus[:, 0], bmus[:, 1], y), 1)
        global_mode = int(np.argmax(np.bincount(y, minlength=n_classes)))
        loop_rng, draws = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        expected = self.per_node_loop(votes, global_mode, loop_rng)

        grid = WeightGrid(np.zeros((*shape, 1)))
        head = init_classifier(grid, np.zeros((n, 1)), y, rng=draws, bmus=bmus)
        np.testing.assert_array_equal(head.codes, expected)
        # the same draws were taken, so both streams continue alike
        assert draws.random() == loop_rng.random()
        tied_nodes = ((votes == votes.max(axis=2, keepdims=True)).sum(axis=2) > 1) & (
            votes.max(axis=2) > 0)
        assert tied_nodes.sum() >= 5


class TestClassWeights:
    def test_balanced_two_classes(self):
        y = np.array(["A"] * 50 + ["B"] * 50)
        w = class_weights(y, enabled=True)
        assert w == {"A": 1.0, "B": 1.0}

    def test_imbalanced_hand_value(self):
        y = np.array(["A"] * 25 + ["B"] * 75)
        w = class_weights(y, enabled=True)
        assert w["A"] == 2.0
        assert w["B"] == pytest.approx(100 / 150)

    def test_disabled_gives_ones(self):
        y = np.array([0, 0, 1, 2, 2, 2])
        assert class_weights(y, enabled=False) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_balance_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            y = rng.integers(0, k, size=int(rng.integers(k, 200)))
            y = np.concatenate([y, np.arange(k)])  # every class present
            w = class_weights(y, enabled=True)
            counts = {c: int((y == c).sum()) for c in w}
            total = sum(counts[c] * w[c] for c in w)
            assert total == pytest.approx(len(y), abs=1e-9)


class SampledRow:
    """A generator whose ``integers`` always draws row ``j``; its other draws are ``rng``'s."""

    def __init__(self, j, rng):
        self.j, self.rng = j, rng

    def integers(self, n):
        return self.j

    def __getattr__(self, name):
        return getattr(self.rng, name)


def flips_toward_sampled_class(shape, rng, **config):
    """Nodes that one classifier iteration moves from class "A" to the sampled "B".

    All three rows map to node (0, 0), where two "A" rows outvote the "B"
    row, so every node starts as "A"; the iteration samples the "B" row.
    """
    weights = np.ones((*shape, 1))
    weights[0, 0] = 0.0
    cfg = SomConfig(n_row=shape[0], n_column=shape[1], n_iter_supervised=1, **config)
    head = fit_classifier(WeightGrid(weights), np.zeros((3, 1)), np.array(["B", "A", "A"]),
                          cfg, SampledRow(0, rng))
    return head.classes == "B"


def constant_p(p):
    """Schedules of a flip probability of exactly ``p`` on every node at t = 0.

    At radius 1e13 the kernel rounds to exactly 1 on every node of the grids
    used here, up to 50000 x 5.
    """
    return dict(lr_schedule=ScheduleSpec("start-end", p, p),
                radius_schedule=ScheduleSpec("linear", 1e13))


class TestClassChangeProbability:
    def make_config(self, lr_start=0.5):
        return SomConfig(
            n_row=3,
            n_column=3,
            n_iter_unsupervised=10,
            n_iter_supervised=10,
            lr_schedule=ScheduleSpec("linear", lr_start, t_max=10),
            radius_schedule=ScheduleSpec("linear", 1.5, t_max=10),
        )

    @staticmethod
    def probability(cfg, bmu, t, w_y):
        """Raw flip probability w_y x alpha x h at iteration ``t`` of the heads'
        loop, run on a stack of one whose only datapoint has its BMU at node
        index ``bmu`` and weight ``w_y``."""
        per_run = [([bmu], [0], [w_y])]
        chunks = supervised._head_chunks(cfg, [np.random.default_rng(0)], per_run, uniforms=False)
        return np.concatenate([P[:, 0].copy() for _, P, _ in chunks])[t]

    def test_product_at_bmu(self):
        cfg = self.make_config(lr_start=0.5)
        P = self.probability(cfg, 4, 0, 1.0)  # node 4 is (1, 1)
        assert P[1, 1] == 0.5

    def test_clamped_to_one(self):
        cfg = self.make_config(lr_start=0.5)
        P = self.probability(cfg, 4, 0, 4.0)
        assert P[1, 1] == 2.0
        # a raw probability of 1 or more flips its node on every draw: the
        # "B" row's class weight is 1.5, so P is 1.2 at the BMU
        config = dict(class_weighting=True, lr_schedule=ScheduleSpec("start-end", 0.8, 0.8),
                      radius_schedule=ScheduleSpec("linear", 1.5))
        rng = np.random.default_rng(4)
        flips = [flips_toward_sampled_class((3, 3), rng, **config) for _ in range(200)]
        assert all(f[0, 0] for f in flips) and not all(f.all() for f in flips)

    def test_mexican_hat_negative_lobe_clamped_to_zero(self):
        cfg = SomConfig(
            n_row=1,
            n_column=9,
            n_iter_unsupervised=10,
            n_iter_supervised=10,
            kernel="mexican-hat",
            lr_schedule=ScheduleSpec("linear", 1.0, t_max=10),
            radius_schedule=ScheduleSpec("linear", 2.0, t_max=10),
        )
        P = self.probability(cfg, 0, 0, 1.0)
        assert P.min() < 0.0
        # nodes where P <= 0 never flip; P is positive within radius 2
        config = dict(kernel="mexican-hat", lr_schedule=ScheduleSpec("start-end", 1.0, 1.0),
                      radius_schedule=ScheduleSpec("linear", 2.0))
        rng = np.random.default_rng(5)
        flips = sum(flips_toward_sampled_class((1, 9), rng, **config) for _ in range(200))
        np.testing.assert_array_equal(flips[0, 2:], 0)
        assert flips[0, :2].min() > 0


class TestApplyClassUpdate:
    def test_zero_probability_leaves_head(self):
        # at the floor radius the kernel, and so P, is 0 off the BMU (0, 0)
        config = dict(lr_schedule=ScheduleSpec("start-end", 1.0, 1.0),
                      radius_schedule=ScheduleSpec("linear", 1e-6))
        flips = flips_toward_sampled_class((4, 4), np.random.default_rng(0), **config)
        assert flips[0, 0] and flips.sum() == 1

    def test_probability_one_flips_everything(self):
        flips = flips_toward_sampled_class((4, 4), np.random.default_rng(0), **constant_p(1.0))
        assert np.all(flips)

    def test_half_probability_on_large_grid(self):
        flips = flips_toward_sampled_class((100, 100), np.random.default_rng(1), **constant_p(0.5))
        frac = flips.mean()
        assert 0.48 <= frac <= 0.52

    def test_per_node_flip_frequency_matches_p(self):
        # 10000 trials on a 5x5 grid as one iteration on a (10000 * 5) x 5
        # grid: P is p on every node, and the draws fill the grid row by row
        rng = np.random.default_rng(7)
        for p in (0.1, 0.5, 0.9):
            flips = flips_toward_sampled_class((50_000, 5), rng, **constant_p(p))
            freq = flips.reshape(10_000, 5, 5).mean(axis=0)
            assert np.abs(freq - p).max() <= 0.02


class TestFitClassifier:
    def test_single_class_is_fixed_point(self):
        X, _ = two_blob_data(seed=5)
        y = np.full(len(X), "only")
        cfg, grid, _ = trained_grid(X, seed=6)
        head = fit_classifier(grid, X, y, cfg, np.random.default_rng(0))
        assert set(head.classes.ravel()) == {"only"}

    def test_deterministic(self):
        X, y = two_blob_data(seed=6)
        cfg, grid, _ = trained_grid(X, seed=7)
        h1 = fit_classifier(grid, X, y, cfg, np.random.default_rng(3))
        h2 = fit_classifier(grid, X, y, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(h1.codes, h2.codes)

    def test_separable_blobs_training_accuracy(self):
        X, y = two_blob_data(seed=9, n_per=60)
        cfg, grid, _ = trained_grid(X, seed=10)
        head = fit_classifier(grid, X, y, cfg, np.random.default_rng(11))
        pred = predict_classification(grid, head, X)
        assert (pred == y).mean() >= 0.95

    def test_classes_subset_of_training_classes(self):
        X, y = two_blob_data(seed=12)
        cfg, grid, _ = trained_grid(X, seed=13)
        head = fit_classifier(grid, X, y, cfg, np.random.default_rng(14))
        assert set(head.classes.ravel()) <= set(y)

    def test_freezes_unsupervised_grid(self):
        X, y = two_blob_data(seed=15)
        cfg, grid, _ = trained_grid(X, seed=16)
        before = transform(grid, X)
        fit_classifier(grid, X, y, cfg, np.random.default_rng(17))
        np.testing.assert_array_equal(transform(grid, X), before)

    def test_class_weighting_runs(self):
        X, y = two_blob_data(seed=18)
        y[: len(y) // 4] = 1.0  # imbalance
        cfg, grid, _ = trained_grid(X, seed=19, class_weighting=True)
        head = fit_classifier(grid, X, y, cfg, np.random.default_rng(20))
        assert set(np.unique(head.classes)) <= set(np.unique(y))


def stacked_head_data(k):
    """k runs' 6x5 grids, rows, labels of 3 imbalanced classes and targets,
    each row's feature sum; run f has 30 + 7f rows."""
    rng = np.random.default_rng(k)
    grids, Xs, ys = [], [], []
    for f in range(k):
        labels = rng.choice(3, size=30 + 7 * f, p=[0.6, 0.3, 0.1])
        Xs.append(rng.normal(size=(len(labels), 2)) + 3.0 * labels[:, None])
        ys.append(np.array(["a", "b", "c"])[labels])
        grids.append(WeightGrid(3.0 + 3.0 * rng.normal(size=(6, 5, 2))))
    return grids, Xs, ys, [X.sum(axis=1) for X in Xs]


def regressors_one_by_one(grids, Xs, ys, cfg, rngs, cov_invs):
    """``oracles.fit_regressor`` of each run on its own, one iteration at a time."""
    return [oracles.fit_regressor(*run, cfg, rng, cov_inv)
            for *run, rng, cov_inv in zip(grids, Xs, ys, rngs, cov_invs)]


class TestChunkedHeads:
    """Both heads train by one loop, a chunk of iterations at a time. The
    classifier draws iteration by iteration and flips a chunk at once; the
    regression head draws a chunk's indices at once and pulls iteration by
    iteration. They give the heads and the generator states of the loops
    that ran one iteration at a time, kept in ``oracles``."""

    @pytest.mark.parametrize("chunk", [1, 7, None])  # iterations a chunk; None: the default
    @pytest.mark.parametrize("n_iter", [0, 1, 37, 300])
    @pytest.mark.parametrize("class_weighting", [False, True])
    @pytest.mark.parametrize("kernel", ["gaussian", "mexican-hat"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("head", ["classification", "regression"])
    def test_equals_iteration_by_iteration(self, head, k, kernel, class_weighting, n_iter, chunk,
                                           monkeypatch):
        grids, Xs, ys, targets = stacked_head_data(k)
        if chunk is not None:
            monkeypatch.setattr(supervised, "_HEAD_CHUNK_BYTES", chunk * 8 * k * 30)
        cfg = SomConfig(n_row=6, n_column=5, n_iter_supervised=n_iter, kernel=kernel,
                        class_weighting=class_weighting, lr_schedule=ScheduleSpec("linear", 0.9),
                        radius_schedule=ScheduleSpec("exponential", 3.0))
        fits, labels = {
            "classification": ((supervised._fit_classifiers, oracles.fit_classifiers), ys),
            "regression": ((supervised._fit_regressors, regressors_one_by_one), targets),
        }[head]
        runs = []
        for fit in fits:
            rngs = [np.random.default_rng([k, f]) for f in range(k)]
            heads = fit(grids, Xs, labels, cfg, rngs, [None] * k)
            values = [(h.codes if head == "classification" else h.values).tobytes() for h in heads]
            runs.append((values, [r.bit_generator.state for r in rngs]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kernel", ["gaussian", "mexican-hat"])
    def test_chunk_kernel_and_probabilities_equal_per_iteration_ones(self, kernel):
        t_max, k = 64, 3
        cfg = SomConfig(n_row=40, n_column=20, n_iter_supervised=t_max, kernel=kernel)
        rng = np.random.default_rng(8)
        rows, columns = rng.integers(40, size=(t_max, k)), rng.integers(20, size=(t_max, k))
        weights = rng.uniform(0.2, 5.0, size=(t_max, k))
        kernel_of, schedules = _neighbourhood(cfg, t_max, 10)
        alphas, sigmas = map(np.concatenate, zip(*schedules))
        h = kernel_of(rows * 20 + columns, sigmas[:, None, None, None],
                      np.empty((t_max, k, 40, 20)))
        P = (weights * alphas[:, None])[:, :, None, None] * h
        steps = []
        oracles.sampled_loop(cfg, t_max, zip(rows, columns, weights),
                             lambda w, alpha, h_t: steps.append((w[:, None, None] * alpha * h_t, h_t)))
        assert len(steps) == t_max and len(set(sigmas.tolist())) == t_max
        for t, (P_t, h_t) in enumerate(steps):
            assert h[t].tobytes() == h_t.tobytes()
            assert P[t].tobytes() == P_t.tobytes()

    @pytest.mark.parametrize("fit", [fit_classifier, fit_regressor])
    def test_memory_does_not_grow_with_the_iterations(self, fit):
        # aim: bounded memory. The steps, the uniforms, the flips, the drawn
        # indices and the schedules are kept for one chunk of iterations.
        rng = np.random.default_rng(21)
        grid = WeightGrid(rng.normal(size=(40, 20, 2)))
        X = rng.normal(size=(20, 2))
        y = rng.choice(["a", "b", "c"], size=20) if fit is fit_classifier else X.sum(axis=1)
        peaks = {}
        for n_iter in (200, 4000):
            cfg = SomConfig(n_row=40, n_column=20, n_iter_supervised=n_iter)
            fit(grid, X, y, cfg, np.random.default_rng(0))  # warm caches
            tracemalloc.start()
            try:
                fit(grid, X, y, cfg, np.random.default_rng(0))
                peaks[n_iter] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a few bytes of small objects
        assert peaks[4000] - peaks[200] <= 256
        # the chunk's steps, kernel gather and uniforms, its flips and
        # schedules
        assert peaks[4000] <= 4 * supervised._HEAD_CHUNK_BYTES


class TestPredictClassification:
    def test_exact_node_hit(self):
        grid = WeightGrid(np.random.default_rng(4).normal(size=(2, 2, 2)))
        head = ClassificationHead(np.array([[0, 1], [1, 0]]), np.array(["A", "B"]))
        pred = predict_classification(grid, head, grid.weights[0, 1][None, :])
        assert pred[0] == "B"

    def test_empty_input(self):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        head = ClassificationHead(np.zeros((2, 2), dtype=int), np.array(["A"]))
        assert predict_classification(grid, head, np.empty((0, 2))).shape == (0,)

    def test_predictions_in_class_set(self):
        rng = np.random.default_rng(5)
        grid = WeightGrid(rng.normal(size=(4, 4, 3)))
        head = ClassificationHead(rng.integers(0, 3, size=(4, 4)), np.array(["x", "y", "z"]))
        pred = predict_classification(grid, head, rng.normal(size=(40, 3)))
        assert set(pred) <= {"x", "y", "z"}
