"""Reference implementations that tests compare the library against.

Each function is a copy of library code that the library has since
replaced, with its body unchanged: the distance of one pair of vectors with
each metric's formula written out, the one-row BMU search through the block
search, the grid distance and kernel matrices, the per-iteration
neighbourhood step, the three sampled training loops
(the online map and both heads, each with its own loop and its own step
function), the clamped class-change probability and the class update, and
the batch update with per-node sums by ``np.add.at``. Seeded runs of the
library must give the same bits as these.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from somkit.distances import (
    _as_boolean,
    _bmu_block,
    _check_cov_inv,
    _search,
    check_metric,
    estimate_inverse_covariance,
)
from somkit.schedules import learning_rate, neighborhood_radius
from somkit.som import (
    SomConfig,
    WeightGrid,
    _check_vector,
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
        ab = _as_boolean(a, "a")
        bb = _as_boolean(b, "b")
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
    flat_idx = int(_bmu_block(grid.flat, x, _search(metric, cov_inv, grid.feature_dim)))
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
