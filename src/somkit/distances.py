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
:func:`_bmu_block` scores a block of rows against all nodes: euclidean and
mahalanobis (on Cholesky-whitened data) by one matrix product, then an exact
re-rank of the nodes near each row's minimum; manhattan exactly from the
differences, tanimoto from the rows' boolean mismatches. A block's
temporaries stay within ``BLOCK_BYTES``. :func:`_bmu_row` searches for one
row of each of a stack of maps, from node-major weights and the differences
x - W, which online training computes once per iteration for the search and
the pull: euclidean and manhattan score every map's nodes in one pass, in
any summation order, and re-rank the nodes within a relative rounding bound
of each minimum; the other metrics go to :func:`_bmu_block`, one map at a
time. Both re-ranks re-score with :func:`_exact`. Distances
between map nodes on their grid live in :mod:`somkit.som`, next to the
neighbourhood kernel.
"""

from __future__ import annotations

import numpy as np

METRICS = ("euclidean", "manhattan", "tanimoto", "mahalanobis")

DEFAULT_COV_RIDGE = 1e-8

# Largest float64 temporary of one BMU search block. Larger blocks are no
# faster, and a block's temporaries add to the peak RSS: at 1/2/4/8 MB the
# benchmark's desk run peaked at 39.3/40.3/42.6/43.6 MB and its palette run
# (6000 rows, 800 nodes) at 45.8/47.0/49.2/49.0 MB. 1 MB saves another MB,
# but one run per size cannot show that it costs no time.
BLOCK_BYTES = 2 * 2**20

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def _as_boolean(v: np.ndarray, name: str) -> np.ndarray:
    if v.dtype == bool:
        return v  # checked before, or 0/1 by its type
    bad = (v != 0) & (v != 1)
    if bad.any():
        first = np.unravel_index(bad.argmax(), v.shape)
        where = f"{name} row index {first[0]}" if v.ndim == 2 else name
        raise ValueError(
            f"tanimoto requires boolean (0/1) vectors, but {where} holds {float(v[first])!r}"
        )
    return v.astype(bool)


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
        _as_boolean(a, "a")
        _as_boolean(b, "b")
    if metric == "mahalanobis":
        cov_inv = _check_cov_inv(cov_inv, a.shape[-1])
    return a - b, cov_inv


def _exact(D: np.ndarray, metric: str, cov_inv=None) -> np.ndarray:
    """Distance of each pair of rows from their differences ``D`` (..., n).

    The one place each metric's formula is written. Tanimoto needs 0/1 rows,
    whose mismatches ``a != b`` may stand for ``D``, and mahalanobis a checked
    ``cov_inv``; the callers see to both.
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
    """Rows of X per :func:`_bmu_block` call, so its largest temporary stays
    within ``BLOCK_BYTES``: the float64 (rows, nodes) scores, manhattan's
    float64 (rows, nodes, n) differences, or tanimoto's 1-byte (rows, nodes, n)
    mismatches and 8-byte (rows, nodes) counts."""
    per_node = {"manhattan": 8 * n_features, "tanimoto": max(n_features, 8)}.get(metric, 8)
    return max(1, BLOCK_BYTES // (n_nodes * per_node))


def _search(metric: str, cov_inv, n: int) -> tuple:
    """(metric, cov_inv, L, kappa) for :func:`_bmu_block`, prepared once per fit or call.

    For mahalanobis cov_inv is checked, L is the Cholesky factor of
    cov_inv = L L^T and kappa is sum |cov_inv_ij|; for the other metrics
    they are None and 1.
    """
    check_metric(metric)
    if metric != "mahalanobis":
        return metric, cov_inv, None, 1.0
    v_inv = _check_cov_inv(cov_inv, n)
    if not np.isfinite(v_inv).all():
        # Cholesky does not raise on NaN; the search would then fail unworded
        raise ValueError("inverse covariance must be finite")
    try:
        # x^T V x only sees the symmetric part of V
        L = np.linalg.cholesky(0.5 * (v_inv + v_inv.T))
    except np.linalg.LinAlgError:
        raise ValueError(
            "mahalanobis needs a symmetric positive definite inverse covariance"
        ) from None
    return metric, v_inv, L, float(np.abs(v_inv).sum())


def _bmu_block(W: np.ndarray, X: np.ndarray, search: tuple):
    """Flat index of the nearest row of ``W`` (nodes, n) to ``X``.

    ``X`` is one row (n,), giving one index, or a block (rows, n), giving
    one index per row; callers bound the rows by :func:`_block_rows`. The
    result is what :func:`feature_distance` gives row by row under the
    metric of ``search`` (from :func:`_search`), ties going to the lowest
    index. Tanimoto checks that ``W`` and ``X`` hold 0/1 values unless they
    are boolean arrays, which callers searching many blocks pass.
    """
    metric, cov_inv, L, kappa = search
    if metric == "tanimoto":
        W = _as_boolean(W, "weights")
        return _exact(_as_boolean(X, "data")[..., None, :] != W, metric).argmin(axis=-1)
    if metric == "manhattan":
        return _exact(X[..., None, :] - W, metric).argmin(axis=-1)

    n = X.shape[-1]
    w_norms = np.einsum("ij,ij->i", W, W)
    w_bound = w_norms.max()
    X_w, W_w = X, W
    if metric == "mahalanobis":
        # (x - w) V (x - w)^T = |x L - w L|^2: the euclidean search on whitened rows
        X_w, W_w = X @ L, W @ L
        w_norms = np.einsum("ij,ij->i", W_w, W_w)
    # |x_w - w_w|^2 - |x_w|^2; the row constant |x_w|^2 does not move the
    # argmin. Scaling by -2 is exact, and cheaper on the X side.
    scores = (-2.0 * X_w) @ W_w.T
    scores += w_norms
    best = scores.argmin(axis=-1)

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
    #  - S + |x_w|^2 vs T: |w_w|^2 and x_w . w_w err by gamma_n each and the
    #    last subtraction by u, (2.1n + 2.2) u kappa P. Mahalanobis adds the
    #    whitening products (4.1n u kappa P), Cholesky's backward error
    #    |L L^T - V| <= gamma_{n+1} |L| |L^T| (2.05 (n + 1) u kappa P) and the
    #    symmetrising (2 u kappa P): (8.3n + 8.3) u kappa P at most.
    #  - fl(sqrt(a)) <= fl(sqrt(b)) implies a <= b (1 + 4.01 u), and
    #    O <= 2.05 kappa M.
    # So for the oracle's node j and the argmin k of S,
    #   S_j <= S_k + (err_S + err_O)(j) + (err_S + err_O)(k) + 8.3 u kappa M
    #       <= S_k + (24.6n + 33.1) u kappa M  <  S_k + 16 (n + 4) eps kappa M.
    # The slack doubles that, which covers rounding the slack and the sum
    # below and blocked Cholesky's larger constant. A product that underflows
    # errs by up to tau / 2 (tau the smallest subnormal) beyond these bounds:
    # at most 2n tau over S and O per node, 4n tau for j and k, which the
    # slack's 8 (n + 4) tau doubles. Too loose only re-ranks more.
    slack = (32.0 * (n + 4) * _EPS * kappa) * ((X * X).sum(axis=-1) + w_bound)
    slack += 8.0 * (n + 4) * _TINY
    near = scores <= (scores.min(axis=-1) + slack)[..., None]
    if np.count_nonzero(near) == best.size:
        return best
    # Some row has more than one node near its minimum: re-score those nodes
    # with the oracle's own arithmetic.
    X, near, best = np.atleast_2d(X), np.atleast_2d(near), np.atleast_1d(best)
    ties = np.flatnonzero(near.sum(axis=1) > 1)
    r, c = np.nonzero(near[ties])
    d = _exact(W[c] - X[ties[r]], metric, cov_inv)
    order = np.lexsort((c, d, r))
    first = np.r_[True, r[order][1:] != r[order][:-1]]
    best[ties] = c[order][first]
    return best if scores.ndim == 2 else best[0]


def _bmu_row(W: np.ndarray, x: np.ndarray, D: np.ndarray, searches) -> np.ndarray:
    """Flat index of the nearest node to ``x[f]`` in map ``f``, for each map
    of a stack; the contract of :func:`_bmu_block`.

    ``W`` holds the maps' weights node-major, (maps, n, nodes), ``x`` one row
    per map, (maps, n), and ``D`` their differences x[:, :, None] - W, which
    online training computes once per iteration for the search and the pull.
    ``searches`` holds each map's :func:`_search`, all of one metric.
    Euclidean and manhattan score from ``D``; mahalanobis and tanimoto go to
    :func:`_bmu_block` with each map's (nodes, n) view.
    """
    metric = searches[0][0]
    if metric not in ("euclidean", "manhattan"):
        return np.array([_bmu_block(w.T, r, s) for w, r, s in zip(W, x, searches)])
    scores = np.einsum("fin,fin->fn", D, D) if metric == "euclidean" else np.abs(D).sum(axis=1)
    best = scores.argmin(axis=1)
    # Rounding bound. D holds the rounded differences d that the oracle
    # squares (fl(w - x) = -fl(x - w)), so for node j the score S_j and the
    # oracle's value O_j before its sqrt are both sums of the n products
    # d_i^2, in some order and fused or not, for the exact T_j = sum d_i^2.
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
    slack = 4.2 * (D.shape[1] + 4)
    lowest = scores.min(axis=1, keepdims=True)
    near = scores <= lowest * (1.0 + slack * _EPS) + slack * _TINY
    if np.count_nonzero(near) == len(best):
        return best
    # Some map has several nodes near its minimum: re-score them with the
    # oracle's own arithmetic, on row-major differences, lowest index on ties.
    for f in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
        nodes = np.flatnonzero(near[f])
        best[f] = nodes[_exact(np.ascontiguousarray(D[f][:, nodes].T), metric).argmin()]
    return best


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
