"""Feature-space distance metrics and BMU search.

All metrics are selected by string name ("euclidean", "manhattan",
"tanimoto", "mahalanobis"). Tanimoto is only defined on boolean
(0/1-valued) vectors; Mahalanobis needs an inverse covariance matrix,
typically estimated once from the training data via
:func:`estimate_inverse_covariance`.

Each metric's exact distance between two rows is written once, in
:func:`_exact`, as a function of their differences. :func:`feature_distance`
(one pair, the oracle of BMU search) and :func:`paired_distances` (row ``i``
with row ``i``) check their inputs and call it, so they agree bit for bit.
BMU search lives here whole: :mod:`somkit.som` calls :func:`_search`,
:func:`_nearest`, :func:`_row_search`, :func:`_row_scores`,
:func:`_bmu_row` and :func:`_overflows`. Every search is built by
:func:`_search`, which rejects rows and weights whose squared distances
could overflow, and checks tanimoto's 0/1 rows and searches them as
euclidean, which finds the same nodes. :func:`_nearest` runs a built search
on new weights too: a batch map passes its fit's search at every iteration,
and the fit keeps the weights within that search's range by
:func:`_overflows`, which takes the search, after every update. It prepares
the weights once per call by :func:`_prepare` and runs :func:`_bmu_block`
on blocks whose widest array, of scores or of rows, stays within
``BLOCK_BYTES``. :func:`_bmu_block` scores rows
against all nodes: euclidean and mahalanobis (on Cholesky-whitened
data) by one matrix product of the rows ``[-2 x_w | 1]`` with the weights
``[W_w | |w_w|^2]^T``, which gives each score whole, and an exact re-rank
for the rows whose runner-up score is near their minimum; manhattan exactly
from the differences. :func:`_bmu_row` serves only online training: one row
for each of a stack of maps, from the differences x - W, which the fit
computes once per iteration for the search and the pull. :func:`_row_scores`
scores every map's nodes, mahalanobis as |d L|^2 with each map's own Cholesky
factor, and euclidean and manhattan also on a part of the features, whose
scores online training adds up; :func:`_bmu_row` re-ranks the nodes within a
rounding bound of each minimum.
Tanimoto maps never train. Both searches re-rank by :func:`_rerank`, which
re-scores with :func:`_exact`. Distances between map nodes on their grid
live in :mod:`somkit.som`, next to the neighbourhood kernel.
"""

from __future__ import annotations

import numpy as np

METRICS = ("euclidean", "manhattan", "tanimoto", "mahalanobis")

DEFAULT_COV_RIDGE = 1e-8

# Largest float64 temporary of one BMU search block. At few features the
# search is bound by passes over a block's (rows, nodes) scores, and 1 MB of
# them stays in a 2 MB per-core L2 cache; a block's temporaries also add to
# the peak RSS (4 and 8 MB peaked 2-3 MB above 2 MB). Three alternating pairs
# of 30 s benchmark runs at 2 MB against 1 MB, on 2 cores: palette (6000
# rows, 800 nodes) train_s 0.385-0.416 against 0.354-0.374 s and peak RSS
# 46.0 against 45.0 MB; desk peak RSS 40.2-40.5 against 39.1-39.4 MB, its
# times within noise. In-process transform of 24000 x 3 rows on 800 nodes:
# 52-55 against 35-50 ms; of 2000 x 204 rows: 15 against 12-19 ms.
BLOCK_BYTES = 2**20

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def _check_boolean(v: np.ndarray, name: str) -> None:
    bad = (v != 0) & (v != 1)
    if bad.any():
        first = np.unravel_index(bad.argmax(), v.shape)
        where = f"{name} row index {first[0]}" if v.ndim == 2 else name
        raise ValueError(
            f"tanimoto requires boolean (0/1) vectors, but {where} holds {float(v[first])!r}"
        )


def _check_cov_inv(cov_inv, n: int) -> np.ndarray:
    if cov_inv is None:
        raise ValueError("mahalanobis requires an inverse covariance matrix")
    cov_inv = np.asarray(cov_inv, dtype=float)
    if cov_inv.shape != (n, n):
        raise ValueError(
            f"inverse covariance must have shape ({n}, {n}), got {cov_inv.shape}"
        )
    return cov_inv


def _differences(a, b, metric: str, cov_inv, ndim: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``(a - b, cov_inv)`` after the input checks of :func:`feature_distance`
    (``ndim`` 1) and :func:`paired_distances` (``ndim`` 2); cov_inv is checked
    for mahalanobis."""
    check_metric(metric)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != ndim or a.shape != b.shape:
        what = "equal-length 1-d vectors" if ndim == 1 else "two (N, n) matrices of one shape"
        raise ValueError(f"expected {what}, got {a.shape} and {b.shape}")
    if a.shape[-1] == 0:
        raise ValueError("vectors must have dimension >= 1")
    if metric == "tanimoto":
        _check_boolean(a, "a")
        _check_boolean(b, "b")
    if metric == "mahalanobis":
        cov_inv = _check_cov_inv(cov_inv, a.shape[-1])
    return a - b, cov_inv


def _exact(D: np.ndarray, metric: str, cov_inv=None) -> np.ndarray:
    """Distance of each pair of rows from their differences ``D`` (..., n).

    The one place each metric's formula is written. Tanimoto needs 0/1 rows
    and mahalanobis a checked ``cov_inv``; the callers see to both.
    The stacked matrix product gives each row the bits of the 1-d
    ``d @ cov_inv @ d``, whatever the number of rows.
    """
    if metric == "euclidean":
        return np.sqrt((D**2).sum(axis=-1))
    if metric == "manhattan":
        return np.abs(D).sum(axis=-1)
    if metric == "tanimoto":
        # m mismatches over n 0/1 features: 2m / (c_TT + c_FF + 2m), with
        # c_TT + c_FF = n - m
        m = np.count_nonzero(D, axis=-1)
        return 2 * m / (D.shape[-1] + m)
    q = ((D[..., None, :] @ cov_inv) @ D[..., :, None])[..., 0, 0]
    return np.sqrt(np.maximum(q, 0.0))


def feature_distance(a, b, metric: str = "euclidean", cov_inv=None) -> float:
    """Distance between two feature vectors under the chosen metric.

    Args:
        a, b: 1-d arrays of equal length.
        metric: one of :data:`METRICS`.
        cov_inv: inverse covariance matrix, required for "mahalanobis".

    Returns:
        Nonnegative distance; symmetric in ``a`` and ``b``.
    """
    D, cov_inv = _differences(a, b, metric, cov_inv, 1)
    return float(_exact(D, metric, cov_inv))


def paired_distances(A, B, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """Distance between row ``i`` of ``A`` and row ``i`` of ``B``, for every ``i``.

    Equal bit for bit to :func:`feature_distance` row by row.
    """
    D, cov_inv = _differences(A, B, metric, cov_inv, 2)
    return _exact(D, metric, cov_inv)


def _block_rows(n_nodes: int, n_features: int, metric: str) -> int:
    """Rows of X per :func:`_bmu_block` call, so its widest float64 array
    stays within ``BLOCK_BYTES``: max(nodes, n + 1) per row, of the (rows,
    nodes) scores and the rows' (rows, n + 1) product side, whitened rows
    and squares, or manhattan's (rows, nodes, n) differences."""
    per_row = n_nodes * n_features if metric == "manhattan" else max(n_nodes, n_features + 1)
    return max(1, BLOCK_BYTES // (8 * per_row))


def _search(metric: str, cov_inv, X: np.ndarray, W: np.ndarray) -> tuple:
    """(metric, cov_inv, L, kappa) for :func:`_nearest` and :func:`_bmu_block`,
    for rows ``X`` and weights ``W`` (nodes, n): built once per search call
    of :mod:`somkit.som`, and once per fit and map, where online training
    stacks the maps' searches by :func:`_row_search`. It checks itself by
    :func:`_overflows`, and stays exact on other weights while that check
    passes for them.

    For mahalanobis cov_inv is checked, L is the Cholesky factor of
    cov_inv = L L^T and kappa is sum |cov_inv_ij|; for the other metrics
    they are None and 1. Tanimoto checks the rows, then the weights, for 0/1
    values and is then searched as euclidean.

    Euclidean and mahalanobis reject rows and weights whose squared
    distances could overflow. In the notation of :func:`_bmu_block`'s
    rounding bound, every partial sum of a score's product (at most
    |x_w|^2 + 2 |w_w|^2 in absolute value), every oracle value before its
    sqrt and the slack stay below 2.05 kappa M, with
    M = max |x|^2 + max |w|^2; so a finite 4 kappa M keeps them all finite.
    """
    check_metric(metric)
    if metric == "tanimoto":
        _check_boolean(X, "data")
        _check_boolean(W, "weights")
        # Each difference is -1, 0 or 1, so |x - w|^2 counts the m mismatches and
        # the score |w|^2 - 2 x . w = m - |x|^2 is an exact integer (below 2^53).
        # The oracles' sqrt(m) and 2m / (n + m) strictly increase with m in floating
        # point (steps of at least 1 / (2n + 1) relative); ties go low in both.
        metric = "euclidean"
    L = None
    if metric == "mahalanobis":
        n = W.shape[1]
        cov_inv = _check_cov_inv(cov_inv, n)
        with np.errstate(over="ignore", invalid="ignore"):
            # x^T V x only sees the symmetric part of V
            V_s = 0.5 * (cov_inv + cov_inv.T)
        if not np.isfinite(V_s).all():
            # Cholesky does not raise on NaN or inf; the search would then fail unworded
            raise ValueError("inverse covariance must be finite, and so must V + V^T")
        try:
            L = np.linalg.cholesky(V_s)
        except np.linalg.LinAlgError:
            raise ValueError(
                "mahalanobis needs a symmetric positive definite inverse covariance"
            ) from None
    search = metric, cov_inv, L, 1.0 if L is None else float(np.abs(cov_inv).sum())
    if _overflows(search, X, W):
        raise ValueError(
            f"the data or node weights are too large for {metric} search: "
            "their squared distances overflow"
        )
    return search


def _overflows(search: tuple, X: np.ndarray, W: np.ndarray) -> bool:
    """Whether the squared distances between rows of ``X`` and of ``W`` could
    overflow under ``search``, a :func:`_search`: the bound that
    :func:`_search` checks on its own rows and weights, and a map fit on its
    updated weights. Only euclidean and mahalanobis need it."""
    metric, _, _, kappa = search
    if metric not in ("euclidean", "mahalanobis"):
        return False
    with np.errstate(over="ignore"):
        M = sum(np.einsum("ij,ij->i", A, A).max(initial=0.0) for A in (X, W))
        return not np.isfinite(4.0 * kappa * M)


def _prepare(search: tuple, W: np.ndarray):
    """The weights side of :func:`_bmu_block`'s product for ``W`` (nodes, n),
    prepared once per :func:`_nearest` call: ``(A, w_bound)``.

    For euclidean and mahalanobis A is ``[W_w | |w_w|^2]^T``, shape
    (n + 1, nodes), with W_w = W L for mahalanobis and W otherwise, and
    w_bound is max |w|^2 of the unwhitened rows, for the slack. Manhattan
    needs nothing, so it gets None.
    """
    metric, _, L, _ = search
    if metric not in ("euclidean", "mahalanobis"):
        return None
    n = W.shape[1]
    A = np.empty((n + 1, W.shape[0]))
    W_w, norms = A[:n], A[n]
    if L is None:
        W_w[...] = W.T
    else:
        np.matmul(L.T, W.T, out=W_w)
    np.einsum("ij,ij->j", W_w, W_w, out=norms)
    return A, norms.max() if L is None else np.einsum("ij,ij->i", W, W).max()


def _nearest(W: np.ndarray, X: np.ndarray, search: tuple) -> np.ndarray:
    """Flat index of the nearest row of ``W`` (nodes, n) to each row of ``X``
    (N, n), by :func:`_bmu_block`, block by block, under ``search``: a
    :func:`_search` whose range check holds for these rows and weights.
    """
    # the weights side of the search, once per call: the batch map calls
    # with new weights at every iteration
    prepared = _prepare(search, W)
    chunk = _block_rows(*W.shape, search[0])
    out = np.empty(len(X), dtype=int)
    for start in range(0, len(X), chunk):
        out[start : start + chunk] = _bmu_block(W, X[start : start + chunk], search, prepared)
    return out


def _bmu_block(W: np.ndarray, X: np.ndarray, search: tuple, prepared):
    """Flat index of the nearest row of ``W`` (nodes, n) to each row of the
    block ``X`` (rows, n); :func:`_nearest` bounds the rows by
    :func:`_block_rows`. The result is what :func:`feature_distance` gives
    row by row under the metric of ``search`` (a :func:`_search` whose range
    check holds for the block and ``W``), ties going to the lowest index.
    ``prepared`` is :func:`_prepare` of ``search`` and ``W``.

    The product metrics make three passes over the (rows, nodes) scores: one
    matrix product of the rows ``[-2 x_w | 1]`` with the prepared weights,
    which writes each score |w_w|^2 - 2 x_w . w_w whole, the argmin, and the
    min of the scores with each row's minimum hidden, which gives its
    runner-up. Only if some runner-up lies within the rounding slack of its
    row's minimum does a block build the mask of near nodes and re-score
    them exactly.
    """
    metric, cov_inv, L, kappa = search
    if metric == "manhattan":
        return _exact(X[:, None] - W, metric).argmin(axis=1)

    A, w_bound = prepared
    n = X.shape[1]
    # |x_w - w_w|^2 - |x_w|^2; the row constant |x_w|^2 does not move the
    # argmin. Scaling by -2 is exact, and cheaper on the X side. Mahalanobis
    # is the euclidean search on whitened rows: (x - w) V (x - w)^T = |x L - w L|^2.
    X_a = np.empty((len(X), n + 1))
    np.multiply(X if L is None else X @ L, -2.0, out=X_a[:, :n])
    X_a[:, n] = 1.0
    scores = X_a @ A
    best = scores.argmin(axis=1)

    # Rounding bound. For one row x and node w let T be the exact
    # (x - w) V (x - w)^T (V = I for euclidean), O the oracle's rounded value
    # before its sqrt, S the score above, P = |x|^2 + |w|^2,
    # M = |x|^2 + max_w |w|^2 >= P, u = eps / 2 and kappa = sum |V_ij| (1 for
    # euclidean). kappa bounds |d| |V| |d|^T <= kappa |d|^2 <= 2 kappa P, the
    # squared Frobenius norm of L, and so the whitened norms. A sum of n
    # products in any order, GEMM included, errs by at most
    # gamma_n = n u / (1 - n u) times the sum of the absolute products.
    #  - O rounds d = w - x and then takes two length-n sums:
    #    |O - T| <= (4n + 4.1) u kappa P.
    #  - S + |x_w|^2 vs T: the rounded |w_w|^2 errs by gamma_n kappa P. S is
    #    one sum of n + 1 products, the last of them 1 times that rounded
    #    |w_w|^2, which is exact; their absolute values sum to at most
    #    |x_w|^2 + 2 |w_w|^2 (1 + gamma_n) <= 2.01 kappa P, so the sum errs by
    #    gamma_{n+1} 2.01 kappa P: (3.1n + 2.1) u kappa P together. Mahalanobis
    #    adds the whitening products (4.1n u kappa P), Cholesky's backward
    #    error |L L^T - V| <= gamma_{n+1} |L| |L^T| (2.05 (n + 1) u kappa P)
    #    and the symmetrising (2 u kappa P): (9.3n + 6.2) u kappa P at most.
    #  - fl(sqrt(a)) <= fl(sqrt(b)) implies a <= b (1 + 4.01 u), and
    #    O <= 2.05 kappa M.
    # So for the oracle's node j and the argmin k of S,
    #   S_j <= S_k + (err_S + err_O)(j) + (err_S + err_O)(k) + 8.3 u kappa M
    #       <= S_k + (26.6n + 29.0) u kappa M  <  S_k + 16 (n + 4) eps kappa M.
    # The slack doubles that, which covers rounding the slack and the sum
    # below and blocked Cholesky's larger constant. A product that underflows
    # errs by up to tau / 2 more (tau the smallest subnormal); sums of
    # subnormals are exact.
    #  - Euclidean: at most 2n tau over S and O per node, 4n tau for j and k,
    #    which the slack's 8 (n + 4) tau doubles.
    #  - Mahalanobis: these errors grow with |d| however small V is, as in
    #    _bmu_row's bound. The oracle multiplies the errors of y = d V, n tau / 2
    #    an entry, by d; those of L L^T, at most (n + 1.01 sqrt kappa) tau / 2
    #    an entry, enter T as d E d^T. By sum |d_i| <= sqrt(n) |d|,
    #    |d|^2 <= 2P and 2ab <= a^2 + b^2 they come to 0.5 n^2 tau P + 0.75 n tau
    #    in O and (n^2 + 1.01 n) tau P in S. The score's 2n products add n tau.
    #    Each whitened entry errs by up to n tau / 2, which moves the score by
    #    at most 2 |d L| n^1.5 tau <= eps kappa |d|^2 + n^3 tau^2 / eps: the
    #    first part the eps term's margin covers, the second is below
    #    1e-300 tau. So j and k need at most 3 (n + 1)^2 tau M + 3.5 n tau,
    #    which the slack's 8 (n + 4)^2 tau M and 8 (n + 4) tau double.
    # Too loose only re-ranks more.
    M = (X * X).sum(axis=1) + w_bound
    slack = (32.0 * (n + 4) * _EPS * kappa) * M
    if L is not None:
        slack += (8.0 * (n + 4) ** 2 * _TINY) * M
    slack += 8.0 * (n + 4) * _TINY
    # The score at the argmin is the row's min, so the threshold has the
    # bits of min + slack.
    at = (np.arange(len(best)), best)
    lowest = scores[at]
    threshold = lowest + slack
    scores[at] = np.inf
    if not (scores.min(axis=1) <= threshold).any():
        return best
    # Some row has more than one node near its minimum: re-score those nodes
    # with the oracle's own arithmetic, in chunks of pairs whose differences
    # stay near BLOCK_BYTES: on a map of equal weights every node is near.
    scores[at] = lowest
    near = scores <= threshold[:, None]
    pairs = max(1, BLOCK_BYTES // (8 * n))
    return _rerank(best, near, lambda r, c: _exact(W[c] - X[r], metric, cov_inv), pairs)


def _rerank(best: np.ndarray, near: np.ndarray, exact, pairs: int) -> np.ndarray:
    """``best`` (rows,), updated in place: each row for which ``near``
    (rows, nodes) marks more than one node takes the marked node of least
    ``exact(r, c)``, the exact distance of row r to node c for index arrays
    r and c, lowest index on ties. Each call of ``exact`` takes whole rows
    and fewer than ``pairs`` + nodes pairs; a pair's distance does not
    depend on its chunk."""
    marked = np.count_nonzero(near, axis=1)
    ties = np.flatnonzero(marked > 1)
    # a chunk is the rows whose last pair falls in one run of ``pairs``
    for t in np.split(ties, np.flatnonzero(np.diff((np.cumsum(marked[ties]) - 1) // pairs)) + 1):
        r, c = np.nonzero(near[t])
        order = np.lexsort((c, exact(t[r], c), r))
        best[t] = c[order][np.diff(r[order], prepend=-1) != 0]
    return best


def _row_search(searches) -> tuple:
    """:func:`_bmu_row`'s search for a stack of maps, stacked once per fit
    from map f's :func:`_search` ``searches[f]``: (metric, each map's
    cov_inv, the stacked transposes of their Cholesky factors (maps, n, n)
    or None, and their kappas (maps, 1)).
    """
    metric, cov_inv, L, kappa = zip(*searches)
    L_t = None if L[0] is None else np.array(L).transpose(0, 2, 1)
    return metric[0], cov_inv, L_t, np.array(kappa)[:, None]


def _row_scores(D: np.ndarray, search: tuple, out=None) -> np.ndarray:
    """Every map's node scores, (maps, nodes), from differences ``D`` (maps,
    n', nodes) node-major, into ``out`` if given: euclidean |d|^2, manhattan
    |d|_1 and mahalanobis |d L|^2, L the map's Cholesky factor, for the
    maps' :func:`_row_search`. Euclidean and manhattan scores are sums over
    the features, so ``D`` may hold a contiguous part of them and the parts'
    scores add up to the whole's, in another summation order; mahalanobis
    mixes the features and needs all n.
    """
    metric, _, L_t, _ = search
    if metric == "manhattan":
        return np.abs(D).sum(axis=1, out=out)
    Z = D if L_t is None else L_t @ D  # d V d^T = |d L|^2
    return np.einsum("fin,fin->fn", Z, Z, out=out)


def _bmu_row(D: np.ndarray, search: tuple, scores: np.ndarray) -> np.ndarray:
    """Flat index of the nearest node to row x_f in map f, for each map of a
    stack; the contract of :func:`_bmu_block`. Online training passes these
    node indices to its kernel as they are.

    ``D`` holds each map's differences x_f - W_f node-major, (maps, n,
    nodes), which online training computes once per iteration for the
    search and the pull; ``search`` is the maps' :func:`_row_search`.
    ``scores`` are the maps' :func:`_row_scores` of ``D``, summed in any
    order: online training may add the scores of two feature halves.
    Tanimoto maps never train. The nodes within a rounding bound of each
    map's minimum are re-ranked by :func:`_rerank` on the whole of ``D``.
    """
    metric, cov_inv, _, kappa = search
    n = D.shape[1]
    best = scores.argmin(axis=1)
    lowest = scores.min(axis=1, keepdims=True)
    if metric == "mahalanobis":
        # Rounding bound. For one map and node let d be the node's column of
        # D, the rounded differences that the oracle multiplies too, V the
        # map's cov_inv, T = d V d^T exact, O the oracle's rounded value
        # before its sqrt and S the score; u = eps / 2,
        # gamma_n = n u / (1 - n u), kappa = sum |V_ik| and
        # K = kappa |d|^2 >= |d| |V| |d|^T. For n < 1e12:
        #  - O takes two length-n sums, y = d V and then y d^T:
        #    |O - T| <= gamma_2n K.
        #  - The symmetrising rounds each V_ik + V_ki once and halves it
        #    exactly (V_ii is kept), which moves T by at most u K. Cholesky's
        #    backward error |L L^T - V_s| <= gamma_{n+1} |L| |L^T| gives each
        #    row of L |L_i|^2 <= V_ii / (1 - gamma_{n+1}), so by
        #    Cauchy-Schwarz |d| |L| |L^T| |d|^T <= 1.001 |d|^2 trace V
        #    <= 1.001 K, and L L^T moves T by gamma_{n+1} 1.001 K. Each entry
        #    of the whitened Z = d L errs by gamma_n (|d| |L|)_i, which moves
        #    |Z|^2 by gamma_2n 1.001 K, and the sum of squares errs by
        #    gamma_n |Z|^2: |S - T| <= (4.01 n + 2.01) u K.
        #  - fl(sqrt(a)) <= fl(sqrt(b)) implies a <= b (1 + 4.01 u), also
        #    after the oracle's max(O, 0).
        # So for the oracle's node j and the argmin k of S, with
        # M = max |d|^2 over the map's nodes,
        #   S_j <= S_k + (err_S + err_O)(j) + (err_S + err_O)(k) + 4.02 u kappa M
        #       <= S_k + (12.03 n + 8.04) u kappa M  <  S_k + 6.02 (n + 4) eps kappa M.
        # A product or quotient that underflows errs by up to tau / 2 more
        # (tau the smallest subnormal); sums of subnormals are exact. These
        # errors grow with |d| whatever kappa is: the oracle multiplies the
        # errors of y by d, and those of L L^T, at most (n + 1.01 sqrt kappa)
        # tau / 2 an entry since L_kk^2 <= 1.001 V_kk, enter T as d E d^T.
        # By sum |d_i| <= sqrt(n) |d| and 2ab <= a^2 + b^2 they come to at
        # most 0.51 (n + 4)^2 tau |d|^2 + 0.76 (n + 4)^2 tau over S and O
        # per node, besides terms in n tau kappa |d|^2 below 1e-300 of the
        # ones above. The computed max |d|^2 lies at most gamma_n M + n tau / 2
        # below M, which adding n tau covers. The slack doubles each term,
        # which covers rounding it and its sum with the minimum. No value
        # here overflows while the weights keep within the bound that
        # _search checks. Too loose only re-ranks more.
        M = np.einsum("fin,fin->fn", D, D).max(axis=1, keepdims=True) + n * _TINY
        threshold = (lowest + (n + 4) * (16.0 * _EPS * kappa + 4.0 * (n + 4) * _TINY) * M
                     + 4.0 * (n + 4) ** 2 * _TINY)
    else:
        # Rounding bound. D holds the rounded differences d that the oracle
        # squares (fl(w - x) = -fl(x - w)), so for node j the score S_j and the
        # oracle's value O_j before its sqrt are both sums of the n products
        # d_i^2, in some order and fused or not, for the exact T_j = sum d_i^2.
        # Two partial sums over the feature halves, added together, are one
        # such order, so the bound below covers scores summed that way too.
        # Every term is non-negative, so with u = eps / 2,
        # gamma_n = n u / (1 - n u) and tau the smallest subnormal, each errs by
        # at most gamma_n T_j + 0.51 n tau: a product that underflows errs by up
        # to tau / 2, and sums of subnormals are exact.
        #  - fl(sqrt(a)) <= fl(sqrt(b)) implies a <= b (1 + 4.01 u): sqrt rounds
        #    correctly and never returns a subnormal.
        # So for the oracle's node j and the argmin k of S, with
        # r = (1 + gamma_n) / (1 - gamma_n),
        #   S_j <= S_k (1 + 4.01 u) r^2 + 2.04 n tau
        #       <  S_k (1 + 2.1 (n + 4) eps) + 2.1 (n + 4) tau.
        # Manhattan's S_j and O_j are sums of the n exact terms |d_i|, which the
        # same bound covers without the sqrt and the products. The slack doubles
        # both terms, which covers rounding the slack itself. Too loose only
        # re-scores more.
        slack = 4.2 * (n + 4)
        threshold = lowest * (1.0 + slack * _EPS) + slack * _TINY
    near = scores <= threshold
    if np.count_nonzero(near) == len(best):
        return best

    def exact(f, c):
        # the oracle's own arithmetic on row-major differences, map by map
        d, out = np.ascontiguousarray(D[f, :, c]), np.empty(len(f))
        for g in np.flatnonzero(np.bincount(f)):  # the maps in f, not importing numpy.ma
            out[f == g] = _exact(d[f == g], metric, cov_inv[g])
        return out

    # Some map has several nodes near its minimum: re-score them.
    return _rerank(best, near, exact, near.size)


def estimate_inverse_covariance(X, ridge: float = DEFAULT_COV_RIDGE) -> np.ndarray:
    """Inverse of the sample covariance of ``X`` with a small ridge term.

    The ridge keeps the inversion well-posed for degenerate data. Needs at
    least two rows, and a covariance and inverse that are finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, n) matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("covariance estimation needs at least 2 datapoints")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.atleast_2d(np.cov(X, rowvar=False)) + ridge * np.eye(X.shape[1])
        cov_inv = np.linalg.inv(cov) if np.isfinite(cov).all() else cov
    if not np.isfinite(cov_inv).all():
        raise ValueError("the covariance of the data or its inverse is not finite")
    return cov_inv
