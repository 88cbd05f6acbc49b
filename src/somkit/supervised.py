"""Supervised head on top of a trained unsupervised map.

A second grid, aligned node-for-node with the unsupervised map, holds one
target value per node: a continuous scalar for regression or a class for
classification. The unsupervised grid stays frozen; it only selects BMUs.
Regression nodes move toward sampled labels exactly like unsupervised
weights move toward datapoints. Classification nodes flip to the sampled
label stochastically, with probability learning-rate x kernel x optional
class weight.

Both heads train by one loop, :func:`_head_chunks`, which evaluates the
kernels and steps of a chunk of iterations at once. The regression head
draws a chunk's indices in one call and pulls its values iteration by
iteration. The classification head draws each iteration's index and then
its uniforms, and flips the chunk's nodes at once: the flip probabilities do
not depend on the codes, so a node's last flip in a chunk sets its code.
Either way the heads and generator states are those of the loop one
iteration at a time.

Each datapoint's BMU is found once, by :func:`somkit.som._bmu_nodes`, and
stays the node index that the search returns through the heads' set-up,
their loop and prediction. Only :func:`init_classifier` takes (row, column)
pairs, as the public :func:`somkit.som.transform` gives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .som import SomConfig, WeightGrid, _bmu_nodes, _diverged, _neighbourhood, _pull


@dataclass
class RegressionHead:
    """Per-node continuous target values, shape (n_row, n_column), which are
    also its node ``labels``. ``kind`` tags the head in model files."""

    kind: ClassVar[str] = "regression"
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"head values must be 2-d, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("head values must be finite")

    @property
    def labels(self) -> np.ndarray:
        return self.values


@dataclass
class ClassificationHead:
    """Per-node class assignment.

    ``codes`` holds indices into ``class_set`` (the sorted distinct training
    classes), shape (n_row, n_column); the node ``labels``, also named
    ``classes``, are ``class_set[codes]``. ``kind`` tags the head in model files.
    """

    kind: ClassVar[str] = "classification"
    codes: np.ndarray
    class_set: np.ndarray

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=int)
        self.class_set = np.asarray(self.class_set)
        if self.codes.ndim != 2:
            raise ValueError(f"head codes must be 2-d, got shape {self.codes.shape}")
        if self.class_set.ndim != 1 or self.class_set.size == 0:
            raise ValueError("class_set must be a nonempty 1-d array")
        if self.codes.min() < 0 or self.codes.max() >= self.class_set.size:
            raise ValueError("node class codes must index into class_set")

    @property
    def labels(self) -> np.ndarray:
        return self.class_set[self.codes]

    classes = labels


def _check_labeled(unsup: WeightGrid, X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("supervised training needs a nonempty (N, n) data matrix")
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    if X.shape[1] != unsup.feature_dim:
        raise ValueError(
            f"data dimension {X.shape[1]} does not match grid dimension {unsup.feature_dim}"
        )
    return X, y


def fit_regressor(
    unsup: WeightGrid, X, y, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> RegressionHead:
    """Train a regression head against the frozen unsupervised grid.

    Node values start uniform in [min(y), max(y)] and are pulled toward
    sampled labels, so with a gaussian kernel and learning-rate start <= 1
    they stay inside the training label range.
    """
    (head,) = _fit_regressors([unsup], [X], [y], config, [rng], [cov_inv])
    return head


def _fit_regressors(grids, Xs, ys, config: SomConfig, rngs, cov_invs) -> list[RegressionHead]:
    """:func:`fit_regressor` on each grid with its own data, generator and
    cov_inv; the heads train together in one loop, with the outputs of
    separate runs."""
    labeled = [_check_labeled(grid, X, y) for grid, X, y in zip(grids, Xs, ys)]
    if config.lr_schedule.start > 1.0:
        raise ValueError(
            "regression head update needs a learning-rate start <= 1, "
            f"got {config.lr_schedule.start}"
        )
    heads, per_run = [], []
    for grid, (X, y), rng, cov_inv in zip(grids, labeled, rngs, cov_invs):
        y = y.astype(float)
        low, high = y.min().item(), y.max().item()
        if not np.isfinite(high - low):  # the range the initial values are drawn from
            raise ValueError(f"regression labels from {low:g} to {high:g} span more than "
                             "the float range; scale them down")
        heads.append(RegressionHead(rng.uniform(low, high, size=(grid.n_row, grid.n_column))))
        # The unsupervised grid is fully trained, so each datapoint's BMU is
        # fixed; compute them once.
        per_run.append((_bmu_nodes(grid, X, config.metric, cov_inv), y, np.ones(len(y))))
    values = np.stack([head.values for head in heads])
    delta = np.empty_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        for targets, steps, _ in _head_chunks(config, rngs, per_run, uniforms=False):
            for target, step in zip(targets, steps):
                np.subtract(target[:, None, None], values, out=delta)
                _pull(values, delta, step)
            # release the chunk's targets before the next one is drawn
            del targets, target
    if not np.isfinite(values).all():
        raise _diverged(config, "the head values overflowed")
    return [RegressionHead(v) for v in values]


def _predict(unsup: WeightGrid, head, X, metric: str, cov_inv) -> np.ndarray:
    """The head's node label at each row's BMU, for either head."""
    return head.labels.reshape(-1)[_bmu_nodes(unsup, X, metric, cov_inv)]


def predict_regression(
    unsup: WeightGrid, head: RegressionHead, X, metric: str = "euclidean", cov_inv=None
) -> np.ndarray:
    """Head value at each row's BMU: the head's ``labels`` there."""
    return _predict(unsup, head, X, metric, cov_inv)


def encode_classes(y) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct classes and the per-sample integer codes."""
    class_set, codes = np.unique(np.asarray(y), return_inverse=True)
    return class_set, codes


def init_classifier(
    unsup: WeightGrid,
    X,
    y,
    metric: str = "euclidean",
    rng: np.random.Generator | None = None,
    cov_inv=None,
    bmus: np.ndarray | None = None,
) -> ClassificationHead:
    """Majority-vote initialization of the classification head.

    Each node takes the modal class of the datapoints mapped to it; per-node
    ties are broken by a uniform draw among the tied classes, one draw per
    tied node in row-major order, and nodes with no mapped datapoints fall
    back to the global modal class. Precomputed ``bmus``, (row, column)
    pairs as :func:`somkit.som.transform` gives them, may be passed to skip
    the BMU scan.
    """
    X, y = _check_labeled(unsup, X, y)
    nodes = (_bmu_nodes(unsup, X, metric, cov_inv) if bmus is None
             else np.ravel_multi_index(tuple(np.asarray(bmus).T), unsup.weights.shape[:2]))
    return _vote(unsup, nodes, *encode_classes(y), rng or np.random.default_rng())


def _vote(unsup: WeightGrid, nodes: np.ndarray, class_set: np.ndarray, y_codes: np.ndarray,
          rng: np.random.Generator) -> ClassificationHead:
    """:func:`init_classifier` for datapoints of BMUs ``nodes`` and classes
    ``class_set[y_codes]``."""
    n_classes = class_set.size
    votes = np.zeros((len(unsup.flat), n_classes), dtype=int)
    np.add.at(votes, (nodes, y_codes), 1)

    global_mode = int(np.argmax(np.bincount(y_codes, minlength=n_classes)))
    top = votes.max(axis=1)
    tied = votes == top[:, None]
    codes = np.where(top == 0, global_mode, votes.argmax(axis=1))
    for node in np.flatnonzero((top > 0) & (tied.sum(axis=1) > 1)):
        codes[node] = rng.choice(np.flatnonzero(tied[node]))
    return ClassificationHead(codes.reshape(unsup.weights.shape[:2]), class_set)


def class_weights(y, enabled: bool) -> dict:
    """Per-class weight N / (n_classes * N_class) when enabled, else 1."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("class weights need a nonempty label vector")
    class_set, codes = encode_classes(y)
    if not enabled:
        return {cls: 1.0 for cls in class_set.tolist()}
    counts = np.bincount(codes, minlength=class_set.size)
    n = y.size
    return {
        cls: n / (class_set.size * cnt)
        for cls, cnt in zip(class_set.tolist(), counts.tolist())
    }


# Bytes of each (iterations, k, n_row, n_column) float64 buffer of a head's
# chunk: the step P, the kernel gather and the classifier's uniforms. The
# draws cost the same at any size; a larger chunk spreads the numpy calls of
# the rest over more iterations and adds to the peak RSS. In-process, 2
# cores, best of 9 interleaved classifier fits at 128 KB, 256 KB, 512 KB and
# 1 MB: 4000 iterations on 40x20 with k = 1 took 56.9, 52.5, 52.2 and 53.1 ms
# (81.3 ms one iteration at a time); 2500 on 20x20 with k = 5 took 99.6,
# 90.5, 84.5 and 84.5 ms (101.2 ms). The peak RSS of a CLI crossval of 5
# folds there, against 39.0-39.3 MB one iteration at a time: 39.2-39.3 MB at
# 256 KB, 39.8-39.9 at 512 KB and 40.6-40.8 at 1 MB.
_HEAD_CHUNK_BYTES = 2**18


def _head_chunks(config: SomConfig, rngs, per_run, uniforms: bool):
    """The training loop of both heads, for a stack of k runs that share
    ``config``, a chunk of m iterations at a time.

    ``per_run[f]`` holds run f's datapoints: their BMUs' node indices,
    their targets and their weights. Each chunk yields the picked targets,
    (m, k), the steps P = weight x alpha x h, (m, k, n_row, n_column), h the
    kernel around the picked BMU, and, with ``uniforms``, the uniforms each
    run draws after its index, iteration by iteration. Without, each run
    draws the chunk's indices in one ``integers(n, size=m)`` call, with the
    values and generator state of m scalar draws, and None comes third. Each
    buffer holds at most ``_HEAD_CHUNK_BYTES``; the next chunk overwrites it.
    The chunks are those of the learning rates and radii that
    :func:`somkit.som._neighbourhood` yields, so nothing grows with the
    iteration count.
    """
    sizes = [len(nodes) for nodes, *_ in per_run]
    # run f's rows follow those of the runs before it
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()
    nodes, targets, weights = map(np.concatenate, zip(*per_run))
    t_max = config.n_iter_supervised
    shape = (len(rngs), *config.grid_shape)
    chunk = max(1, min(t_max, _HEAD_CHUNK_BYTES // (8 * int(np.prod(shape)))))
    kernel, schedules = _neighbourhood(config, t_max, chunk)
    J = np.empty((chunk, len(rngs)), dtype=int)
    P = np.empty((chunk, *shape))
    U = np.empty_like(P) if uniforms else None
    for alphas, sigmas in schedules:
        m = len(alphas)
        j, p, u = J[:m], P[:m], U[:m] if uniforms else None
        if uniforms:
            # iteration by iteration, each run draws its index, then its uniforms
            for j_i, u_i in zip(j, u):
                j_i[:] = [rng.integers(n) + at for rng, n, at in zip(rngs, sizes, offsets)]
                for rng, u_f in zip(rngs, u_i):
                    rng.random(out=u_f)
        else:
            j[:] = np.column_stack([r.integers(n, size=m) for r, n in zip(rngs, sizes)]) + offsets
        kernel(nodes[j], sigmas[:, None, None, None], p)
        np.multiply((weights[j] * alphas[:, None])[:, :, None, None], p, out=p)
        yield targets[j], p, u


def fit_classifier(
    unsup: WeightGrid, X, y, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> ClassificationHead:
    """Train a classification head against the frozen unsupervised grid."""
    (head,) = _fit_classifiers([unsup], [X], [y], config, [rng], [cov_inv])
    return head


def _fit_classifiers(grids, Xs, ys, config: SomConfig, rngs, cov_invs) -> list[ClassificationHead]:
    """:func:`fit_classifier` on each grid with its own data, generator and
    cov_inv; the heads train together in one loop, with the outputs of
    separate runs."""
    heads, per_run = [], []
    for grid, X, y, rng, cov_inv in zip(grids, Xs, ys, rngs, cov_invs):
        X, y = _check_labeled(grid, X, y)
        nodes = _bmu_nodes(grid, X, config.metric, cov_inv)
        class_set, y_codes = encode_classes(y)
        heads.append(_vote(grid, nodes, class_set, y_codes, rng))
        weight_by_label = class_weights(y, config.class_weighting)
        code_weights = np.array([weight_by_label[cls] for cls in class_set.tolist()])
        per_run.append((nodes, y_codes, code_weights[y_codes]))
    codes = np.stack([head.codes for head in heads])
    for targets, P, U in _head_chunks(config, rngs, per_run, uniforms=True):
        # A node flips where a uniform draw u lands below P = class weight x
        # alpha x h. P leaves [0, 1] but needs no clamp: u in [0, 1) is below
        # P exactly when it is below clip(P, 0, 1).
        flip = U < P
        # P does not read the codes, so a node's last flip in the chunk sets
        # its code, as the iterations one by one would
        last = len(flip) - 1 - flip[::-1].argmax(axis=0)
        hit = np.nonzero(flip.any(axis=0))
        codes[hit] = targets[last[hit], hit[0]]
        # release the chunk's masks and targets before the next one is drawn
        del targets, flip, last, hit
    return [ClassificationHead(c, head.class_set) for c, head in zip(codes, heads)]


def predict_classification(
    unsup: WeightGrid, head: ClassificationHead, X, metric: str = "euclidean", cov_inv=None
) -> np.ndarray:
    """Head class at each row's BMU: the head's ``labels`` there, from the
    training class set."""
    return _predict(unsup, head, X, metric, cov_inv)
