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

Online training and both supervised heads train a stack of k runs that
share a :class:`SomConfig`: one run for :func:`fit_unsupervised` and the
CLI's ``train``, the k folds of ``crossval``. The online map's loop is
:func:`_fit_online`; the heads share one loop in :mod:`somkit.supervised`.
All of them, and the batch map, take their kernel from one per-fit set-up,
:func:`_neighbourhood`, and their learning rates and radii from the
generator it returns, a chunk of iterations at a time, so no array of theirs
grows with the iteration count. The fits report divergence by
:func:`_diverged`. Each run keeps its own generator and draw order, and each
step does every run's own elementwise arithmetic, so every run's output is
bit for bit that of a run of its own. The online maps train node-major,
(k, n, nodes), and are written back to their grids once at the end.

:func:`_fit_maps` builds its maps' search once, in either mode, by
:func:`somkit.distances._row_search`, which checks each map's data and
initial weights, and checks the trained weights against the same bound after
either mode's loop. The online fit finds each step's BMUs from the
differences x - W that the pull needs too, by
:func:`somkit.distances._bmu_row`, for every trainable metric. Every other
BMU search, the batch map's included, is :func:`_bmu_nodes`, which checks
the shape of its rows and leaves the rest of the search to
:func:`somkit.distances._nearest`. Both searches give each BMU as its node's
row-major index, and the kernel, the heads, :func:`bmu_histogram`,
:func:`quantization_error` and prediction take it as it is. Only the public
signatures hold (row, column) pairs, each converting once: :func:`transform`
and :func:`find_bmu` return them, and :func:`batch_update` takes them. The
batch map trains through these two public functions.

A large euclidean or manhattan online fit on two usable CPUs steps on two
halves of the features at once, the second in a worker thread that
:func:`_handoffs` starts and stops; every pass over the weights is
elementwise and the scores of the halves are added before the exact
re-rank, so its outputs are those of one thread.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .datasets import feature_bounds
from .distances import (
    METRICS,
    _bmu_row,
    _nearest,
    _overflows,
    _row_scores,
    _row_search,
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
        # grids hold an entry per node, so their sides must fit an index; the
        # iteration counts keep that bound, which no fit comes near
        index = int(np.iinfo(np.intp).max)
        for name, least, most in (("n_row", 1, index), ("n_column", 1, index),
                                  ("n_iter_unsupervised", 1, index),
                                  ("n_iter_supervised", 0, index), ("seed", 0, None)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            if most is not None and value > most:
                raise ValueError(f"{name} must be <= {most}, got {value}")
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
        # every radius schedule decreases from its start
        if not np.isfinite(2.0 * (start := self.radius_schedule.start) * start):
            raise ValueError(f"radius_schedule: start {start} is too large, "
                             "as the kernel's 2 sigma^2 overflows")

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
    weights = rng.uniform(*feature_bounds(X), size=(config.n_row, config.n_column, X.shape[1]))
    return WeightGrid(weights)


def find_bmu(grid: WeightGrid, x, metric: str = "euclidean", cov_inv=None) -> tuple[int, int]:
    """Index of the node closest to ``x``; ties go to the smallest row-major index."""
    return divmod(int(_bmu_nodes(grid, _check_vector(grid, x)[None], metric, cov_inv)[0]),
                  grid.n_column)


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


def _kernel(neg_d2: np.ndarray, sigma, mexican_hat: bool, out=None) -> np.ndarray:
    """:func:`kernel_values` from -d^2 and checked radii that broadcast
    against it, into ``out`` if given."""
    # negation is exact, so these are the bits of the formulas with d^2
    gauss = np.exp(np.divide(neg_d2, 2.0 * sigma * sigma, out=out), out=out)
    if not mexican_hat:
        return gauss
    return np.multiply(1.0 + neg_d2 / (sigma * sigma), gauss, out=out)


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


def _neighbourhood(config: SomConfig, t_max: int, chunk: int):
    """The per-fit set-up of the online map, the batch map and both heads:
    ``kernel(nodes, sigma, out=None)``, the kernel around the BMUs ``nodes``
    at radius sigma, for index arrays and radii that broadcast together, and
    a generator of the learning rates and the radii of iterations
    0..t_max-1 as float arrays, ``chunk`` iterations at a time, the
    schedules running over ``max(t_max, 1)`` iterations. Each chunk is
    evaluated as it is drawn, so no array grows with ``t_max``. A BMU is
    the node index that the searches return, row-major, as everywhere
    inside the fits.
    """
    _check_kernel(config.kernel)
    mexican_hat = config.kernel == "mexican-hat"
    lr = _learning_rate_of(replace(config.lr_schedule, t_max=max(t_max, 1)))
    radius = _radius_of(replace(config.radius_schedule, t_max=max(t_max, 1)))
    neg_d2 = _neg_squared_distances(config.grid_shape)
    steps = range(t_max)

    def kernel(nodes, sigma, out=None):
        # the table is a view over node offsets, O(nodes), so it is indexed
        # by (row, column); reshaped to one node axis it would be a copy
        return _kernel(neg_d2[np.divmod(nodes, config.n_column)], sigma, mexican_hat, out)
    # Given its count, fromiter allocates a chunk once. Grown, the chunks left
    # 0.6 MB more peak RSS in a CLI crossval of 5 folds on 20x20 nodes.
    return kernel, ((np.fromiter(map(lr, t), float, len(t)),
                     np.fromiter(map(radius, t), float, len(t)))
                    for t in (steps[start:start + chunk] for start in steps[::chunk]))


def _diverged(config: SomConfig, what: str, batch: bool = False) -> ValueError:
    """The error of an online fit, or a ``batch`` map, in which ``what``
    happened. A kernel with a negative lobe, or a learning rate above 1, can
    push values away without bound; the fits check once, after their loop,
    not at every iteration. The batch map has no learning rate, and under the
    gaussian kernel each of its weights is a mean of data rows, so only sums
    of rows near the float range overflow."""
    if batch:
        remedy = ("the gaussian kernel keeps" if config.kernel == "mexican-hat"
                  else "smaller feature values keep")
        return ValueError(f"batch training diverged with the {config.kernel} kernel: {what}; "
                          f"{remedy} them bounded")
    lr = config.lr_schedule
    remedy = " or the gaussian kernel" if config.kernel == "mexican-hat" else ""
    return ValueError(
        f"online training diverged with the {config.kernel} kernel and the {lr.kind} "
        f"learning rate from {lr.start}: {what}; a smaller learning rate{remedy} keeps "
        "them bounded"
    )


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
    of separate runs. In either mode the maps' search is built, and so their
    data and initial weights checked, before training, and their trained
    weights are checked after it: finite, and within the range where the BMU
    search is exact."""
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
    search = _row_search(config.metric, cov_invs, Xs, [grid.flat for grid in grids])
    batch = config.update_mode == "batch"
    if batch:
        # batch maps have no sampled loop to share, so they train one by one;
        # like the online loop, they leave overflow to the checks below
        with np.errstate(over="ignore", invalid="ignore"):
            for grid, X, cov_inv in zip(grids, Xs, cov_invs):
                _, schedules = _neighbourhood(config, config.n_iter_unsupervised, 1)
                for _, (sigma,) in schedules:
                    bmus = transform(grid, X, config.metric, cov_inv)
                    batch_update(grid, X, bmus, sigma, config.kernel)
    else:
        _fit_online(grids, Xs, config, rngs, search)
    if not all(np.isfinite(grid.weights).all() for grid in grids):
        raise _diverged(config, "the node weights overflowed", batch)
    if any(_overflows(config.metric, kappa, X, grid.flat)
           for kappa, X, grid in zip(search[3][:, 0], Xs, grids)):
        raise _diverged(config, "the node weights left the range where the BMU search is "
                                "exact, as their squared distances to the data overflow", batch)
    return list(zip(grids, cov_invs))


# Bytes of the sampled rows the online fit draws and gathers at once: a long
# fit never holds every drawn index or sampled row. The heads' 256 KB raised a
# 5x5x64 fit's tracemalloc peak by 0.55 MiB and the CLI train RSS of 2 and 32
# features by 0.16-0.22 MB, and made no command faster (2 cores).
_ROW_CHUNK_BYTES = 2**16

# Elements of a stack's weights, k n nodes, from which an online fit with
# scores summed over the features splits every step across two threads. Each
# step's handoff costs 25-40 us. In-process sweep, two threads against one,
# k = 1, best of 9 fits of 500 steps, 4 passes on 2 cores: 800 elements
# 2.5-3.1x the time, 4000 (k = 5) 3.0-3.3x, 12800 2.1-2.2x, 40000 1.2-1.4x,
# 51200 1.03-1.09x, 80000 0.80-0.85x, 163200 0.57-0.60x.
_TWO_PART_ELEMENTS = 64_000

# Seconds between the interpreter's forced thread switches while the worker
# runs. In-process scene-shaped fits of 1000 steps on 2 cores, median of 5:
# 5 ms (the default) 277-288 ms, 1 ms 271-276, 0.2 ms 245-258, 20 us
# 224-236, against 345-465 ms on one thread.
_SWITCH_INTERVAL = 2e-5

# The switch interval is the process's, so two-part fits running at once in
# several threads share one lowering: each holds an entry here, the interval
# from before the first of them, and the last to finish restores it.
_saved_intervals: list[float] = []
_switching = threading.Lock()


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _feature_parts(metric: str, shape: tuple[int, int, int]) -> list[slice]:
    """The contiguous parts of the features of stacked weights (k, n, nodes)
    that :func:`_fit_online` steps on, one per thread: two halves when the
    scores are sums over the features, the weights hold at least
    ``_TWO_PART_ELEMENTS`` and two CPUs are usable, all of them otherwise."""
    n = shape[1]
    if (metric in ("euclidean", "manhattan") and n > 1
            and np.prod(shape) >= _TWO_PART_ELEMENTS and _usable_cpus() >= 2):
        return [slice(0, n // 2), slice(n // 2, n)]
    return [slice(0, n)]


def _part_step(part, search: tuple, step, x) -> np.ndarray:
    """One handoff of :func:`_fit_online` on one part of the features: the
    pull by the last ``step``, unless None, then the differences of row
    ``x`` (k, n) and their partial scores, unless x is None. ``part`` holds
    the features, their slices of the weights and the differences, and the
    part's (k, nodes) scores, which it returns."""
    features, W, delta, scores = part
    if step is not None:
        _pull(W, delta, step)
    if x is not None:
        # One difference array serves the BMU search and the pull. A copy and
        # then a subtraction beat one subtraction that broadcasts x along the
        # contiguous node axis: 116-147 against 182-187 us at 800 nodes x 204
        # features, 39-45 against 60-69 us at 5 maps of 400 x 32, and the same
        # at 400 x 2 (best of 7, 2 cores).
        np.copyto(delta, x[:, features, None])
        np.subtract(delta, W, out=delta)
        _row_scores(delta, search, scores)
    return scores


def _serve(jobs, done, part, search: tuple) -> None:
    """The worker of a two-part fit: :func:`_part_step` on ``part`` for each
    job of ``jobs`` until None, putting None or the error raised on
    ``done``. Error states are per thread, so it sets the fit's own."""
    with np.errstate(over="ignore", invalid="ignore"):
        for step, x in iter(jobs.get, None):
            try:
                _part_step(part, search, step, x)
            except Exception as error:  # the main thread raises it
                done.put(error)
            else:
                done.put(None)


@contextmanager
def _handoffs(parts, search: tuple):
    """``run(step, x)`` for :func:`_fit_online`: :func:`_part_step` on every
    part, returning the sum of the parts' scores. With one part it is
    :func:`_part_step` itself. With two, a worker thread takes the second
    part of each handoff while the caller takes the first, under a short
    switch interval; the worker stops on exit, whether the fit returns or
    raises, and the last two-part fit running restores the interval."""
    if len(parts) == 1:
        yield partial(_part_step, parts[0], search)
        return
    import queue  # only here: one-part processes do not pay for its import

    mine, theirs = parts
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()
    total = np.empty_like(mine[3])

    def run(step, x):
        jobs.put((step, x))
        _part_step(mine, search, step, x)
        if (error := done.get()) is not None:
            raise error
        return np.add(mine[3], theirs[3], out=total)

    worker = threading.Thread(target=_serve, args=(jobs, done, theirs, search), daemon=True)
    worker.start()
    try:
        with _switching:
            _saved_intervals.append(_saved_intervals[0] if _saved_intervals
                                    else sys.getswitchinterval())
            sys.setswitchinterval(_SWITCH_INTERVAL)
        yield run
    finally:
        jobs.put(None)
        worker.join()
        with _switching:
            interval = _saved_intervals.pop()
            if not _saved_intervals:
                sys.setswitchinterval(interval)


def _fit_online(grids, Xs, config: SomConfig, rngs, search: tuple) -> None:
    """Online training of a stack of maps, map f on rows of ``Xs[f]`` drawn
    by ``rngs[f]``, with the maps' :func:`somkit.distances._row_search`;
    updates the grids in place.

    The chunks are those of the schedules that :func:`_neighbourhood`
    yields, each within ``_ROW_CHUNK_BYTES`` of sampled rows. Each map draws
    a chunk's rows by one ``integers(n, size=m)`` call, with the values and
    generator state of m scalar draws. The maps train node-major, (k, n,
    nodes), and are written back once at the end. Every step is
    elementwise, and the BMU search re-ranks its scores exactly, so each map
    gets the bits of a run of its own.

    Each handoff pulls the weights by the last step and forms the next
    row's differences and their scores, on the parts of the features that
    :func:`_feature_parts` gives. A large euclidean or manhattan stack on two
    CPUs has two halves, the second stepped by a worker thread, and
    :func:`somkit.distances._bmu_row` gets the sum of their scores; every
    weight and BMU, and so every output, is the one of a single part.
    """
    k, n = len(grids), grids[0].feature_dim
    chunk = max(1, _ROW_CHUNK_BYTES // (8 * k * n))
    kernel, schedules = _neighbourhood(config, config.n_iter_unsupervised, chunk)
    W = np.array([grid.flat.T for grid in grids], order="C")
    delta = np.empty_like(W)
    parts = [(f, W[:, f], delta[:, f], np.empty((k, W.shape[2])))
             for f in _feature_parts(config.metric, W.shape)]
    rows = ((x, alpha, sigma) for alphas, sigmas in schedules
            for x, alpha, sigma in zip(
                np.stack([X[rng.integers(len(X), size=len(alphas))]
                          for X, rng in zip(Xs, rngs)], axis=1),
                alphas.tolist(), sigmas.tolist()))
    with np.errstate(over="ignore", invalid="ignore"), _handoffs(parts, search) as run:
        step = None
        for x, alpha, sigma in rows:
            scores = run(step, x)
            step = alpha * kernel(_bmu_row(delta, search, scores), sigma).reshape(k, 1, -1)
        run(step, None)
    for grid, weights in zip(grids, W):
        grid.flat[...] = weights.T


def _bmu_nodes(grid: WeightGrid, X, metric: str, cov_inv) -> np.ndarray:
    """BMU node index of every row of ``X``, (N,), row-major: the search of
    every caller but online training, behind the check of the rows' shape."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != grid.feature_dim):
        raise ValueError(
            f"data has shape {X.shape}, grid expects dimension {grid.feature_dim}"
        )
    return _nearest(grid.flat, X, metric, cov_inv)


def transform(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """BMU (row, column) of every row of ``X``; shape (N, 2), no grid mutation."""
    nodes = _bmu_nodes(grid, X, metric, cov_inv)
    out = np.empty((len(nodes), 2), dtype=int)
    np.divmod(nodes, grid.n_column, out=(out[:, 0], out[:, 1]))
    return out


def bmu_histogram(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """Per-node count of datapoints whose BMU is that node."""
    nodes = _bmu_nodes(grid, X, metric, cov_inv)
    return np.bincount(nodes, minlength=len(grid.flat)).reshape(grid.weights.shape[:2])


def quantization_error(grid: WeightGrid, X, metric: str = "euclidean", cov_inv=None) -> float:
    """Mean distance between datapoints and their BMU weight vectors."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("quantization error needs at least one datapoint")
    nodes = grid.flat[_bmu_nodes(grid, X, metric, cov_inv)]
    return float(np.mean(paired_distances(X, nodes, metric, cov_inv)))
