"""Reference implementations that tests compare the library against.

Each function is a copy of library code that the library has since
replaced, with its body unchanged: the distance of one pair of vectors with
each metric's formula written out, the BMU search of one row as a block of
one, the grid distance and kernel matrices, the per-iteration
neighbourhood step, the three training loops one iteration at a time (the
online map and both heads, each with its own loop and its own step
function), the clamped class-change probability and the class update, the
stacked classifier head that ran one iteration at a time through a sampled
loop of callbacks, that loop, the batch update with per-node sums by
``np.add.at``, and min-max scaling through a boolean column mask. Seeded runs of the library must give the same bits as these:
its online map and its two heads, which share one loop of chunks of
iterations, give those of the three loops, run by run.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from somkit.distances import (
    _check_boolean,
    _bmu_block,
    _check_cov_inv,
    _prepare,
    _search,
    check_metric,
    estimate_inverse_covariance,
)
from somkit.schedules import _learning_rate_of, _radius_of, learning_rate, neighborhood_radius
from somkit.som import (
    SomConfig,
    WeightGrid,
    _check_kernel,
    _check_vector,
    _kernel,
    _neg_squared_distances,
    _node_pairs,
    _offset_distances,
    batch_update,
    init_weights,
    kernel_values,
    online_update,
    transform,
)
from somkit.supervised import (
    ClassificationHead,
    RegressionHead,
    _check_labeled,
    class_weights,
    encode_classes,
    init_classifier,
)


def feature_distance(a, b, metric: str = "euclidean", cov_inv=None) -> float:
    """Distance between two feature vectors under the chosen metric.

    Args:
        a, b: 1-d arrays of equal length.
        metric: one of :data:`METRICS`.
        cov_inv: inverse covariance matrix, required for "mahalanobis".

    Returns:
        Nonnegative distance; symmetric in ``a`` and ``b``.
    """
    check_metric(metric)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected equal-length 1-d vectors, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise ValueError("vectors must have dimension >= 1")

    if metric == "euclidean":
        return float(np.sqrt(((a - b) ** 2).sum()))
    if metric == "manhattan":
        return float(np.abs(a - b).sum())
    if metric == "tanimoto":
        _check_boolean(a, "a")
        _check_boolean(b, "b")
        ab, bb = a.astype(bool), b.astype(bool)
        n_tt = int((ab & bb).sum())
        n_ff = int((~ab & ~bb).sum())
        mismatches = 2 * (int((ab & ~bb).sum()) + int((~ab & bb).sum()))
        return mismatches / (n_tt + n_ff + mismatches)
    # mahalanobis
    v_inv = _check_cov_inv(cov_inv, a.size)
    d = a - b
    q = float(d @ v_inv @ d)
    return float(np.sqrt(max(q, 0.0)))


def find_bmu(grid: WeightGrid, x, metric: str = "euclidean", cov_inv=None) -> tuple[int, int]:
    """Index of the node closest to ``x``; ties go to the smallest row-major index."""
    x = _check_vector(grid, x)
    W = grid.flat
    search = _search(metric, cov_inv, x[None], W)
    flat_idx = int(_bmu_block(W, x[None], search, _prepare(search, W))[0])
    return divmod(flat_idx, grid.n_column)


def grid_distance_matrix(bmu: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
    """Euclidean grid distance from ``bmu`` to every node, shape ``shape``."""
    rows, cols = np.indices(shape, dtype=float)
    return np.sqrt((rows - bmu[0]) ** 2 + (cols - bmu[1]) ** 2)


def kernel_matrix(
    bmu: tuple[int, int], sigma: float, kind: str, shape: tuple[int, int]
) -> np.ndarray:
    """Kernel weight between the BMU and every node on a grid of ``shape``."""
    return kernel_values(grid_distance_matrix(bmu, shape), sigma, kind)


@lru_cache(maxsize=1)
def _grid_distances(shape: tuple[int, int]) -> np.ndarray:
    """Grid distance between every two nodes, shape (*shape, *shape), read-only.

    Entry ``[r, c]`` equals ``grid_distance_matrix((r, c), shape)`` bit for
    bit: both are the square root of a sum of squared whole-number offsets.
    The table is a view of the distances of all (2 n_row - 1) x
    (2 n_column - 1) offsets, so it takes O(nodes) memory, not O(nodes^2).
    Grid distance is fixed for a grid, so the last shape's table is kept.
    """
    return _node_pairs(_offset_distances(shape), shape)


def _neighbourhood(config: SomConfig, t_max: int):
    """The update step every trainer shares, over ``max(t_max, 1)`` iterations.

    Returns ``step(t, row, column)``: the learning rate alpha(t) and the
    kernel h, shaped like the grid, around BMU (row, column) at radius
    sigma(t).
    """
    t_max = max(t_max, 1)
    lr_spec = replace(config.lr_schedule, t_max=t_max)
    radius_spec = replace(config.radius_schedule, t_max=t_max)
    distances, kind = _grid_distances(config.grid_shape), config.kernel

    def step(t: int, row: int, column: int) -> tuple[float, np.ndarray]:
        h = kernel_values(distances[row, column], neighborhood_radius(t, radius_spec), kind)
        return learning_rate(t, lr_spec), h

    return step


def fit_unsupervised(
    X, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> tuple[WeightGrid, np.ndarray | None]:
    """Train the unsupervised map for ``config.n_iter_unsupervised`` iterations.

    Returns the trained grid together with the inverse covariance matrix
    used for BMU search (estimated from ``X`` for the mahalanobis metric,
    ``None`` otherwise); prediction needs the same matrix later.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training needs a nonempty (N, n) data matrix")
    if config.metric == "tanimoto":
        # initial and updated weights are not 0/1, which tanimoto needs
        raise ValueError(
            "tanimoto maps cannot be trained; tanimoto can only predict with 0/1 weights"
        )
    if cov_inv is None and config.metric == "mahalanobis":
        cov_inv = estimate_inverse_covariance(X)

    grid = init_weights(config, X, rng)
    t_max = config.n_iter_unsupervised
    if config.update_mode == "online":
        step = _neighbourhood(config, t_max)
        for t in range(t_max):
            x = X[rng.integers(X.shape[0])]
            row, column = find_bmu(grid, x, config.metric, cov_inv)
            online_update(grid, x, *step(t, row, column))
    else:
        radius_spec = replace(config.radius_schedule, t_max=t_max)
        for t in range(t_max):
            bmus = transform(grid, X, config.metric, cov_inv)
            sigma = neighborhood_radius(t, radius_spec)
            batch_update(grid, X, bmus, sigma, config.kernel)
    return grid, cov_inv


def fit_regressor(
    unsup: WeightGrid, X, y, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> RegressionHead:
    """Train a regression head against the frozen unsupervised grid.

    Node values start uniform in [min(y), max(y)] and are pulled toward
    sampled labels, so with a gaussian kernel and learning-rate start <= 1
    they stay inside the training label range.
    """
    X, y = _check_labeled(unsup, X, y)
    y = y.astype(float)
    if config.lr_schedule.start > 1.0:
        raise ValueError(
            "regression head update needs a learning-rate start <= 1, "
            f"got {config.lr_schedule.start}"
        )
    values = rng.uniform(y.min(), y.max(), size=(unsup.n_row, unsup.n_column))
    head = RegressionHead(values)

    # The unsupervised grid is fully trained, so each datapoint's BMU is
    # fixed; compute them once.
    bmus = transform(unsup, X, config.metric, cov_inv)
    step = _neighbourhood(config, config.n_iter_supervised)
    for t in range(config.n_iter_supervised):
        j = rng.integers(X.shape[0])
        alpha, h = step(t, *bmus[j])
        head.values += alpha * h * (y[j] - head.values)
    return head


def class_change_probability(w_y: float, alpha: float, h: np.ndarray) -> np.ndarray:
    """Per-node probability of adopting the current label.

    The raw product class-weight x learning-rate x kernel can leave [0, 1]
    (large class weights, or the mexican-hat negative lobe); it is clamped.
    """
    return np.clip(w_y * alpha * h, 0.0, 1.0)


def apply_class_update(
    head: ClassificationHead, P: np.ndarray, y_code: int, rng: np.random.Generator
) -> ClassificationHead:
    """Flip each node to class ``y_code`` where a uniform draw lands below P.

    Draws one uniform number per node; updates in place.
    """
    u = rng.random(head.codes.shape)
    head.codes[u < P] = y_code
    return head


def fit_classifier(
    unsup: WeightGrid, X, y, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> ClassificationHead:
    """Train a classification head against the frozen unsupervised grid."""
    X, y = _check_labeled(unsup, X, y)
    bmus = transform(unsup, X, config.metric, cov_inv)
    head = init_classifier(unsup, X, y, config.metric, rng, cov_inv, bmus=bmus)
    class_set, y_codes = encode_classes(y)

    weight_by_label = class_weights(y, config.class_weighting)
    code_weights = np.array([weight_by_label[cls] for cls in class_set.tolist()])

    step = _neighbourhood(config, config.n_iter_supervised)
    for t in range(config.n_iter_supervised):
        j = rng.integers(X.shape[0])
        code = y_codes[j]
        P = class_change_probability(code_weights[code], *step(t, *bmus[j]))
        apply_class_update(head, P, code, rng)
    return head


def sampled_loop(config: SomConfig, t_max: int, picks, update) -> None:
    """The sampled loop as the classifier head ran it: ``update(arg, alpha, h)``
    for each item (rows, columns, arg) of ``picks``, with the (k, n_row,
    n_column) kernel h around each run's BMU."""
    _check_kernel(config.kernel)
    mexican_hat = config.kernel == "mexican-hat"
    horizon = max(t_max, 1)
    alphas = map(_learning_rate_of(replace(config.lr_schedule, t_max=horizon)), range(t_max))
    sigmas = map(_radius_of(replace(config.radius_schedule, t_max=horizon)), range(t_max))
    neg_d2 = _neg_squared_distances(config.grid_shape)
    # picks come last, so that zip never takes an item past the t_max-th
    for alpha, sigma, (rows, columns, arg) in zip(alphas, sigmas, picks):
        update(arg, alpha, _kernel(neg_d2[rows, columns], sigma, mexican_hat))


def fit_classifiers(grids, Xs, ys, config: SomConfig, rngs, cov_invs) -> list[ClassificationHead]:
    """:func:`fit_classifier` on each grid with its own data, generator and
    cov_inv; the heads train together in one loop, with the outputs of
    separate runs."""
    heads, sizes, per_row = [], [], []
    for grid, X, y, rng, cov_inv in zip(grids, Xs, ys, rngs, cov_invs):
        X, y = _check_labeled(grid, X, y)
        bmus = transform(grid, X, config.metric, cov_inv)
        heads.append(init_classifier(grid, X, y, config.metric, rng, cov_inv, bmus=bmus))
        class_set, y_codes = encode_classes(y)
        weight_by_label = class_weights(y, config.class_weighting)
        code_weights = np.array([weight_by_label[cls] for cls in class_set.tolist()])
        sizes.append(X.shape[0])
        per_row.append((bmus[:, 0], bmus[:, 1], y_codes, code_weights[y_codes]))
    # run f's rows follow those of the runs before it
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()
    rows, columns, y_codes, row_weights = map(np.concatenate, zip(*per_row))
    codes = np.stack([head.codes for head in heads])
    u = np.empty(codes.shape)

    def picks():
        # update draws uniforms between the indices, so each index is drawn when picked
        for _ in range(config.n_iter_supervised):
            j = np.array([rng.integers(n) + at for rng, n, at in zip(rngs, sizes, offsets)])
            yield rows[j], columns[j], j

    def update(j, alpha, h):
        # A node flips where a uniform draw u lands below P = class weight x
        # alpha x h. P leaves [0, 1] but needs no clamp: u in [0, 1) is below
        # P exactly when it is below clip(P, 0, 1).
        for rng, u_f in zip(rngs, u):
            rng.random(out=u_f)
        flips = u < row_weights[j][:, None, None] * alpha * h
        np.copyto(codes, y_codes[j][:, None, None], where=flips)

    sampled_loop(config, config.n_iter_supervised, picks(), update)
    for head, c in zip(heads, codes):
        head.codes = c
    return heads


def add_at_batch_update(weights, X, bmus, sigma, kind):
    """The batch update with per-node sums by np.add.at: the oracle of the bincount sums."""
    shape, n = weights.shape[:2], weights.shape[2]
    nodes = shape[0] * shape[1]
    bmu_nodes = np.ravel_multi_index(tuple(bmus.T), shape)
    count = np.zeros(nodes, dtype=int)
    np.add.at(count, bmu_nodes, 1)
    sums = np.zeros((nodes, n))
    np.add.at(sums, bmu_nodes, X)
    K = _node_pairs(kernel_values(_offset_distances(shape), sigma, kind), shape)
    K = K.reshape(nodes, nodes)
    mass = count @ K
    updated = K.T @ sums
    new = weights.reshape(nodes, n).copy()
    ok = mass > 0
    new[ok] = updated[ok] / mass[ok, None]
    return new.reshape(weights.shape)


def minmax_apply(record, X):
    """``MinMaxRecord.apply_to_matrix`` that gathered and scattered the
    columns of positive range: the oracle of the elementwise form."""
    X = np.asarray(X, dtype=float)
    scaled = np.zeros_like(X)
    ok = record.ranges > 0
    scaled[:, ok] = (X[:, ok] - record.mins[ok]) / record.ranges[ok]
    return scaled
