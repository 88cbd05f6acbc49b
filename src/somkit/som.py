"""Unsupervised self-organizing map on a 2-d rectangular grid.

The map is an ``n_row x n_column`` grid of nodes, each holding a weight
vector in feature space. Training repeatedly picks a datapoint, finds its
best matching unit (BMU), and pulls all node weights toward the datapoint,
scaled by the learning rate and a neighborhood kernel centered on the BMU.
Online mode updates after every sampled datapoint; batch mode recomputes
every weight as a kernel-weighted mean over the whole dataset. Batch mode
is Kohonen's batch map: it sums and counts the datapoints per BMU node, then
weights those per-node sums and counts by the nodes x nodes kernel, so its
cost does not grow with the number of datapoints beyond one pass over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distances import (
    METRICS,
    _as_boolean,
    _block_rows,
    _bmu_block,
    estimate_inverse_covariance,
    paired_distances,
)
from .schedules import (
    LEARNING_RATE_KINDS,
    RADIUS_FLOOR,
    RADIUS_KINDS,
    ScheduleSpec,
    check_fields,
    learning_rate,
    neighborhood_radius,
)

KERNELS = ("gaussian", "mexican-hat")
UPDATE_MODES = ("online", "batch")


@dataclass
class SomConfig:
    """All hyperparameters of a SOM run, and the one place of their defaults.

    A text field's metadata lists its ``choices``, a schedule field's the
    ``kinds`` it accepts; the CLI derives its flags and config-file keys from
    these fields. Schedule specs keep their own ``t_max``; the fit functions
    rebind it to ``n_iter_unsupervised`` or ``n_iter_supervised`` as
    appropriate, so the iteration counts here are authoritative.
    """

    n_row: int = 10
    n_column: int = 10
    n_iter_unsupervised: int = 1000
    n_iter_supervised: int = 1000
    metric: str = field(default="euclidean", metadata={"choices": METRICS})
    lr_schedule: ScheduleSpec | None = field(default=None, metadata={"kinds": LEARNING_RATE_KINDS})
    radius_schedule: ScheduleSpec | None = field(default=None, metadata={"kinds": RADIUS_KINDS})
    kernel: str = field(default="gaussian", metadata={"choices": KERNELS})
    update_mode: str = field(default="online", metadata={"choices": UPDATE_MODES})
    seed: int = 42
    class_weighting: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.n_row < 1 or self.n_column < 1:
            raise ValueError("grid must have at least one node")
        if self.n_iter_unsupervised < 1:
            raise ValueError("n_iter_unsupervised must be >= 1")
        if self.n_iter_supervised < 0:
            raise ValueError("n_iter_supervised must be >= 0")
        if self.lr_schedule is None:
            self.lr_schedule = ScheduleSpec(
                "start-end", 0.5, 0.05, self.n_iter_unsupervised
            )
        if self.radius_schedule is None:
            self.radius_schedule = ScheduleSpec(
                "linear",
                max(self.n_row, self.n_column) / 2.0,
                1.0,
                self.n_iter_unsupervised,
            )
        for f in fields(self):
            kinds = f.metadata.get("kinds")
            if kinds and (kind := getattr(self, f.name).kind) not in kinds:
                raise ValueError(f"{f.name} kind must be one of {kinds}, got {kind!r}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return (self.n_row, self.n_column)


@dataclass
class WeightGrid:
    """Node weight vectors, shape (n_row, n_column, feature_dim)."""

    weights: np.ndarray

    def __post_init__(self):
        # contiguous so .flat below is a mutable view, never a copy
        self.weights = np.ascontiguousarray(self.weights, dtype=float)
        if self.weights.ndim != 3:
            raise ValueError(f"weights must be 3-d, got shape {self.weights.shape}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def n_row(self) -> int:
        return self.weights.shape[0]

    @property
    def n_column(self) -> int:
        return self.weights.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[2]

    @property
    def flat(self) -> np.ndarray:
        """View of the weights as (n_row * n_column, feature_dim), row-major."""
        return self.weights.reshape(-1, self.feature_dim)


def _check_vector(grid: WeightGrid, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != grid.feature_dim:
        raise ValueError(
            f"datapoint has shape {x.shape}, grid expects dimension {grid.feature_dim}"
        )
    return x


def init_weights(config: SomConfig, X, rng: np.random.Generator) -> WeightGrid:
    """Random grid with each weight component uniform in its feature's data range."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("initialization needs a nonempty (N, n) data matrix")
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    weights = rng.uniform(lo, hi, size=(config.n_row, config.n_column, X.shape[1]))
    return WeightGrid(weights)


def find_bmu(grid: WeightGrid, x, metric: str = "euclidean", cov_inv=None) -> tuple[int, int]:
    """Index of the node closest to ``x``; ties go to the smallest row-major index."""
    x = _check_vector(grid, x)
    flat_idx = int(_bmu_block(grid.flat, x, metric, cov_inv))
    return (flat_idx // grid.n_column, flat_idx % grid.n_column)


def grid_distance_matrix(bmu: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
    """Euclidean grid distance from ``bmu`` to every node, shape ``shape``."""
    rows, cols = np.indices(shape, dtype=float)
    return np.sqrt((rows - bmu[0]) ** 2 + (cols - bmu[1]) ** 2)


def _offset_distances(shape: tuple[int, int]) -> np.ndarray:
    """Grid distance of every node offset, shape (2 n_row - 1, 2 n_column - 1).

    Entry [i, j] is the length of offset (i - n_row + 1, j - n_column + 1).
    """
    rows = np.arange(1 - shape[0], shape[0], dtype=float)[:, None]
    cols = np.arange(1 - shape[1], shape[1], dtype=float)
    return np.sqrt(rows**2 + cols**2)


def _node_pairs(offset_table: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Read-only (*shape, *shape) view of a table indexed by node offset.

    Entry [r, c, i, j] is the offset table's entry for (i - r, j - c).
    """
    # window [i, j] holds node - (n_row - 1 - i, n_column - 1 - j) for every
    # node; reversing both window axes makes [r, c] hold node - (r, c)
    return sliding_window_view(offset_table, shape)[::-1, ::-1]


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


def kernel_values(d: np.ndarray, sigma: float, kind: str) -> np.ndarray:
    """Neighborhood distance weight h(d) for grid distances ``d``.

    "gaussian" is exp(-d^2 / (2 sigma^2)); "mexican-hat" multiplies that by
    (1 - d^2 / sigma^2) and goes negative beyond d = sigma.
    """
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel {kind!r}, expected one of {KERNELS}")
    if sigma < RADIUS_FLOOR:
        raise ValueError(f"sigma must be >= {RADIUS_FLOOR}, got {sigma}")
    d2 = np.asarray(d, dtype=float) ** 2
    gauss = np.exp(-d2 / (2.0 * sigma * sigma))
    if kind == "gaussian":
        return gauss
    return (1.0 - d2 / (sigma * sigma)) * gauss


def kernel_matrix(
    bmu: tuple[int, int], sigma: float, kind: str, shape: tuple[int, int]
) -> np.ndarray:
    """Kernel weight between the BMU and every node on a grid of ``shape``."""
    return kernel_values(grid_distance_matrix(bmu, shape), sigma, kind)


def online_update(grid: WeightGrid, x, alpha: float, h: np.ndarray) -> WeightGrid:
    """Pull every node weight toward ``x`` by ``alpha * h``; updates in place."""
    delta = np.subtract(_check_vector(grid, x), grid.weights)
    delta *= alpha * h[:, :, None]
    grid.weights += delta
    return grid


def batch_update(
    grid: WeightGrid,
    X,
    bmus: np.ndarray,
    sigma: float,
    kind: str = "gaussian",
) -> WeightGrid:
    """Replace each weight by the kernel-weighted mean of the whole dataset.

    ``bmus`` holds each datapoint's current BMU as (row, column) pairs.
    This is Kohonen's batch map: the datapoints are summed and counted per
    BMU node, then node j's new weight is sum_b K[b, j] S_b / sum_b K[b, j] c_b
    over the (nodes, nodes) kernel K, the per-node sums S and the counts c.
    That equals sum_i h(i, j) x_i / sum_i h(i, j) over datapoints i, in
    O(N n + nodes^2 n) time and O(nodes^2 + nodes n) memory, whatever N is.
    Nodes whose total kernel mass is not positive keep their previous
    weights. Updates in place.
    """
    X = np.asarray(X, dtype=float)
    shape = (grid.n_row, grid.n_column)
    nodes = grid.n_row * grid.n_column
    bmu_nodes = np.ravel_multi_index(tuple(np.asarray(bmus).T), shape)
    count = np.bincount(bmu_nodes, minlength=nodes)
    # bincount adds in row order, as np.add.at does, so the sums are the same bits
    sums = np.stack(
        [np.bincount(bmu_nodes, weights=column, minlength=nodes) for column in X.T], axis=1
    )
    # the kernel works elementwise, so evaluating it on the offset
    # distances and then windowing gives the same bits as on the full table
    offset_kernel = kernel_values(_offset_distances(shape), sigma, kind)
    K = _node_pairs(offset_kernel, shape).reshape(nodes, nodes)

    mass = count @ K
    updated = K.T @ sums
    flat = grid.flat
    ok = mass > 0
    flat[ok] = updated[ok] / mass[ok, None]
    return grid


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


def transform(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """BMU (row, column) of every row of ``X``; shape (N, 2), no grid mutation."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != grid.feature_dim):
        raise ValueError(
            f"data has shape {X.shape}, grid expects dimension {grid.feature_dim}"
        )
    if metric == "tanimoto":
        _as_boolean(X, "data")  # all rows at once, so an error names a row of X
    chunk = _block_rows(grid.n_row * grid.n_column, grid.feature_dim, metric)
    out = np.empty((X.shape[0], 2), dtype=int)
    for start in range(0, X.shape[0], chunk):
        flat_idx = _bmu_block(grid.flat, X[start : start + chunk], metric, cov_inv)
        out[start : start + chunk, 0] = flat_idx // grid.n_column
        out[start : start + chunk, 1] = flat_idx % grid.n_column
    return out


def bmu_histogram(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """Per-node count of datapoints whose BMU is that node."""
    shape = (grid.n_row, grid.n_column)
    bmus = transform(grid, X, metric, cov_inv)
    flat = np.ravel_multi_index(tuple(bmus.T), shape)
    return np.bincount(flat, minlength=grid.n_row * grid.n_column).reshape(shape)


def quantization_error(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> float:
    """Mean distance between datapoints and their BMU weight vectors."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("quantization error needs at least one datapoint")
    bmus = transform(grid, X, metric, cov_inv)
    nodes = grid.weights[bmus[:, 0], bmus[:, 1]]
    return float(np.mean(paired_distances(X, nodes, metric, cov_inv)))
