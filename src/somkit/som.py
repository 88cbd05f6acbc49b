"""Unsupervised self-organizing map on a 2-d rectangular grid.

The map is an ``n_row x n_column`` grid of nodes, each holding a weight
vector in feature space. Training repeatedly picks a datapoint, finds its
best matching unit (BMU), and pulls all node weights toward the datapoint,
scaled by the learning rate and a neighborhood kernel centered on the BMU.
Online mode updates after every sampled datapoint; batch mode recomputes
every weight as a kernel-weighted mean over the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .distances import (
    _block_rows,
    _bmu_block,
    check_metric,
    estimate_inverse_covariance,
    paired_distances,
)
from .schedules import (
    RADIUS_FLOOR,
    ScheduleSpec,
    learning_rate,
    neighborhood_radius,
)

KERNELS = ("gaussian", "mexican-hat")
UPDATE_MODES = ("online", "batch")


@dataclass
class SomConfig:
    """All hyperparameters of a SOM run.

    Schedule specs keep their own ``t_max``; the fit functions rebind it to
    ``n_iter_unsupervised`` or ``n_iter_supervised`` as appropriate, so the
    iteration counts here are authoritative.
    """

    n_row: int = 10
    n_column: int = 10
    n_iter_unsupervised: int = 1000
    n_iter_supervised: int = 1000
    metric: str = "euclidean"
    lr_schedule: ScheduleSpec | None = None
    radius_schedule: ScheduleSpec | None = None
    kernel: str = "gaussian"
    update_mode: str = "online"
    seed: int = 42
    class_weighting: bool = False

    def __post_init__(self):
        if self.n_row < 1 or self.n_column < 1:
            raise ValueError("grid must have at least one node")
        if self.n_iter_unsupervised < 1:
            raise ValueError("n_iter_unsupervised must be >= 1")
        if self.n_iter_supervised < 0:
            raise ValueError("n_iter_supervised must be >= 0")
        check_metric(self.metric)
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}, expected one of {KERNELS}")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(
                f"unknown update mode {self.update_mode!r}, expected one of {UPDATE_MODES}"
            )
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

    def copy(self) -> "WeightGrid":
        return WeightGrid(self.weights.copy())


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


def _grid_coordinates(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.meshgrid(
        np.arange(shape[0], dtype=float),
        np.arange(shape[1], dtype=float),
        indexing="ij",
    )
    return rows, cols


def grid_distance_matrix(bmu: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
    """Euclidean grid distance from ``bmu`` to every node, shape ``shape``."""
    rows, cols = _grid_coordinates(shape)
    return np.sqrt((rows - bmu[0]) ** 2 + (cols - bmu[1]) ** 2)


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
    x = _check_vector(grid, x)
    grid.weights += alpha * h[:, :, None] * (x - grid.weights)
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
    Nodes whose total kernel mass is not positive keep their previous
    weights. Updates in place.
    """
    X = np.asarray(X, dtype=float)
    bmus = np.asarray(bmus)
    n_nodes = grid.n_row * grid.n_column
    flat_bmus = bmus[:, 0] * grid.n_column + bmus[:, 1]

    # Pairwise grid distance between every node and every datapoint's BMU.
    rows = np.arange(n_nodes) // grid.n_column
    cols = np.arange(n_nodes) % grid.n_column
    dr = rows[None, :] - rows[flat_bmus][:, None]
    dc = cols[None, :] - cols[flat_bmus][:, None]
    h = kernel_values(np.sqrt(dr.astype(float) ** 2 + dc.astype(float) ** 2), sigma, kind)

    mass = h.sum(axis=0)
    updated = h.T @ X
    flat = grid.flat
    ok = mass > 0
    flat[ok] = updated[ok] / mass[ok, None]
    return grid


def _metric_context(config: SomConfig, X: np.ndarray):
    if config.metric == "mahalanobis":
        return estimate_inverse_covariance(X)
    return None


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
    if cov_inv is None:
        cov_inv = _metric_context(config, X)

    grid = init_weights(config, X, rng)
    t_max = config.n_iter_unsupervised
    lr_spec = replace(config.lr_schedule, t_max=t_max)
    radius_spec = replace(config.radius_schedule, t_max=t_max)

    if config.update_mode == "online":
        for t in range(t_max):
            x = X[rng.integers(X.shape[0])]
            bmu = find_bmu(grid, x, config.metric, cov_inv)
            alpha = learning_rate(t, lr_spec)
            sigma = neighborhood_radius(t, radius_spec)
            h = kernel_matrix(bmu, sigma, config.kernel, config.grid_shape)
            online_update(grid, x, alpha, h)
    else:
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
    chunk = _block_rows(grid.n_row * grid.n_column, grid.feature_dim, metric)
    out = np.empty((X.shape[0], 2), dtype=int)
    for start in range(0, X.shape[0], chunk):
        flat_idx = _bmu_block(grid.flat, X[start : start + chunk], metric, cov_inv)
        out[start : start + chunk, 0] = flat_idx // grid.n_column
        out[start : start + chunk, 1] = flat_idx % grid.n_column
    return out


def bmu_histogram(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """Per-node count of datapoints whose BMU is that node."""
    counts = np.zeros((grid.n_row, grid.n_column), dtype=int)
    bmus = transform(grid, X, metric, cov_inv)
    np.add.at(counts, (bmus[:, 0], bmus[:, 1]), 1)
    return counts


def quantization_error(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> float:
    """Mean distance between datapoints and their BMU weight vectors."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("quantization error needs at least one datapoint")
    bmus = transform(grid, X, metric, cov_inv)
    nodes = grid.weights[bmus[:, 0], bmus[:, 1]]
    return float(np.mean(paired_distances(X, nodes, metric, cov_inv)))
