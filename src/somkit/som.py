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

Online training and both supervised heads share one sampled loop, which runs
a stack of k runs that share a :class:`SomConfig`: one run for
:func:`fit_unsupervised`, the k folds of cross-validation for
:func:`_fit_maps`. Each run keeps its own generator and draw order, and each
step does every run's own elementwise arithmetic, so every run's output is
bit for bit that of a run of its own. The online maps train node-major,
(k, n, nodes), and are written back to their grids once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distances import (
    METRICS,
    _as_boolean,
    _block_rows,
    _bmu_block,
    _bmu_row,
    _check_scale,
    _search,
    estimate_inverse_covariance,
    paired_distances,
)
from .schedules import (
    LEARNING_RATE_KINDS,
    RADIUS_FLOOR,
    RADIUS_KINDS,
    ScheduleSpec,
    _learning_rate_of,
    _radius_of,
    check_fields,
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
    x, W = _check_vector(grid, x)[None], grid.flat.T[None]
    search = _search(metric, cov_inv, grid.feature_dim)
    _check_scale(search, x, grid.flat)
    (flat_idx,) = _bmu_row(W, x, np.subtract(x[:, :, None], W), [search])
    return divmod(int(flat_idx), grid.n_column)


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


def _neg_squared_distances(shape: tuple[int, int]) -> np.ndarray:
    """-d^2 for grid distance d between every two nodes, shape (*shape, *shape):
    a read-only view of a table over node offsets, O(nodes) in memory. Like
    :func:`kernel_values` it squares d, not the offsets: sqrt(2) ** 2 is not 2."""
    return _node_pairs(-(_offset_distances(shape) ** 2), shape)


def kernel_values(d: np.ndarray, sigma: float, kind: str) -> np.ndarray:
    """Neighborhood distance weight h(d) for grid distances ``d``.

    "gaussian" is exp(-d^2 / (2 sigma^2)); "mexican-hat" multiplies that by
    (1 - d^2 / sigma^2) and goes negative beyond d = sigma.
    """
    _check_kernel(kind)
    if sigma < RADIUS_FLOOR:
        raise ValueError(f"sigma must be >= {RADIUS_FLOOR}, got {sigma}")
    return _kernel(-(np.asarray(d, dtype=float) ** 2), sigma, kind == "mexican-hat")


def _check_kernel(kind: str) -> None:
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel {kind!r}, expected one of {KERNELS}")


def _kernel(neg_d2: np.ndarray, sigma: float, mexican_hat: bool) -> np.ndarray:
    """:func:`kernel_values` from -d^2 and a checked sigma."""
    # negation is exact, so these are the bits of the formulas with d^2
    gauss = np.exp(neg_d2 / (2.0 * sigma * sigma))
    if not mexican_hat:
        return gauss
    return (1.0 + neg_d2 / (sigma * sigma)) * gauss


def online_update(grid: WeightGrid, x, alpha: float, h: np.ndarray) -> WeightGrid:
    """Pull every node weight toward ``x`` by ``alpha * h``; updates in place."""
    _pull(grid.weights, np.subtract(_check_vector(grid, x), grid.weights), alpha * h[:, :, None])
    return grid


def _pull(weights: np.ndarray, delta: np.ndarray, step: np.ndarray) -> None:
    """weights += step * delta, for the datapoint's differences delta = x - weights
    and the per-node step alpha * h, broadcast against them; overwrites delta."""
    delta *= step
    weights += delta


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


def _sampled_loop(config: SomConfig, t_max: int, picks, update) -> None:
    """The training loop of the online map and of both supervised heads, for
    a stack of k runs that share ``config``.

    Iteration t takes the next item (rows, columns, arg) of ``picks``: the
    BMU (rows[f], columns[f]) of that iteration's datapoint in each run f,
    and what ``update`` needs of them. It then calls ``update(arg, alpha, h)``
    with the learning rate alpha(t) and the (k, n_row, n_column) kernel h,
    whose entry f is run f's kernel around its BMU at radius sigma(t). The
    schedules run over ``max(t_max, 1)`` iterations. The loop draws nothing:
    callers draw each run's datapoints before it, by one
    ``rng.integers(n, size=t_max)`` call, which gives the values and the
    generator state of ``t_max`` scalar calls. The classifier draws uniforms
    between the indices, so its ``picks`` draw each run's index per item.
    """
    _check_kernel(config.kernel)
    mexican_hat = config.kernel == "mexican-hat"
    horizon = max(t_max, 1)
    alphas = map(_learning_rate_of(replace(config.lr_schedule, t_max=horizon)), range(t_max))
    sigmas = map(_radius_of(replace(config.radius_schedule, t_max=horizon)), range(t_max))
    neg_d2 = _neg_squared_distances(config.grid_shape)
    # picks come last, so that zip never takes an item past the t_max-th
    for alpha, sigma, (rows, columns, arg) in zip(alphas, sigmas, picks):
        update(arg, alpha, _kernel(neg_d2[rows, columns], sigma, mexican_hat))


def fit_unsupervised(
    X, config: SomConfig, rng: np.random.Generator, cov_inv=None
) -> tuple[WeightGrid, np.ndarray | None]:
    """Train the unsupervised map for ``config.n_iter_unsupervised`` iterations.

    Returns the trained grid together with the inverse covariance matrix
    used for BMU search (estimated from ``X`` for the mahalanobis metric,
    ``None`` otherwise); prediction needs the same matrix later.
    """
    (fitted,) = _fit_maps([X], config, [rng], [cov_inv])
    return fitted


def _fit_maps(Xs, config: SomConfig, rngs, cov_invs) -> list[tuple[WeightGrid, np.ndarray | None]]:
    """:func:`fit_unsupervised` of each dataset of ``Xs`` with its own generator
    and cov_inv; the online maps train together in one loop, with the outputs
    of separate runs."""
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    if any(X.ndim != 2 or X.shape[0] == 0 for X in Xs):
        raise ValueError("training needs a nonempty (N, n) data matrix")
    if config.metric == "tanimoto":
        # initial and updated weights are not 0/1, which tanimoto needs
        raise ValueError(
            "tanimoto maps cannot be trained; tanimoto can only predict with 0/1 weights"
        )
    if config.metric == "mahalanobis":
        cov_invs = [estimate_inverse_covariance(X) if c is None else c
                    for X, c in zip(Xs, cov_invs)]
    grids = [init_weights(config, X, rng) for X, rng in zip(Xs, rngs)]
    if config.update_mode == "online":
        _fit_online(grids, Xs, config, rngs, cov_invs)
    else:
        # batch maps have no sampled loop to share, so they train one by one
        t_max = config.n_iter_unsupervised
        radii = list(map(_radius_of(replace(config.radius_schedule, t_max=t_max)), range(t_max)))
        for grid, X, cov_inv in zip(grids, Xs, cov_invs):
            for sigma in radii:
                bmus = transform(grid, X, config.metric, cov_inv)
                batch_update(grid, X, bmus, sigma, config.kernel)
    return list(zip(grids, cov_invs))


# Bytes of the sampled rows the online fit gathers at once: a long fit
# never holds every sampled row.
_ROW_CHUNK_BYTES = 2**16


def _fit_online(grids, Xs, config: SomConfig, rngs, cov_invs) -> None:
    """Online training of a stack of maps, map f on rows of ``Xs[f]`` drawn
    by ``rngs[f]``; updates the grids in place.

    The maps train node-major, (k, n, nodes), and are written back once at
    the end. Every step is elementwise, and the BMU search re-ranks its
    scores exactly, so each map gets the bits of a run of its own.
    """
    k, n = len(grids), grids[0].feature_dim
    searches = [_search(config.metric, cov_inv, n) for cov_inv in cov_invs]
    for search, X, grid in zip(searches, Xs, grids):
        _check_scale(search, X, grid.flat)
    t_max = config.n_iter_unsupervised
    draws = [rng.integers(len(X), size=t_max) for X, rng in zip(Xs, rngs)]
    W = np.array([grid.flat.T for grid in grids], order="C")
    delta = np.empty_like(W)
    chunk = max(1, _ROW_CHUNK_BYTES // (8 * k * n))

    def rows():
        for start in range(0, t_max, chunk):
            yield from np.stack([X[d[start : start + chunk]] for X, d in zip(Xs, draws)], axis=1)

    def pick(x):
        # one difference array serves the BMU search and the pull
        np.subtract(x[:, :, None], W, out=delta)
        return (*np.divmod(_bmu_row(W, x, delta, searches), config.n_column), delta)

    def update(delta, alpha, h):
        _pull(W, delta, alpha * h.reshape(k, 1, -1))

    _sampled_loop(config, t_max, map(pick, rows()), update)
    for grid, weights in zip(grids, W):
        grid.flat[...] = weights.T


def transform(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """BMU (row, column) of every row of ``X``; shape (N, 2), no grid mutation."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != grid.feature_dim):
        raise ValueError(
            f"data has shape {X.shape}, grid expects dimension {grid.feature_dim}"
        )
    search, W = _search(metric, cov_inv, grid.feature_dim), grid.flat
    _check_scale(search, X, W)
    if metric == "tanimoto":
        # checked once, all rows at once, so an error names a row of X
        X, W = _as_boolean(X, "data"), _as_boolean(W, "weights")
    chunk = _block_rows(grid.n_row * grid.n_column, grid.feature_dim, metric)
    out = np.empty((X.shape[0], 2), dtype=int)
    for start in range(0, X.shape[0], chunk):
        flat_idx = _bmu_block(W, X[start : start + chunk], search)
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
