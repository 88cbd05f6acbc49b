"""Feature-space distance metrics and BMU search.

All metrics are selected by string name ("euclidean", "manhattan",
"tanimoto", "mahalanobis"). Tanimoto is only defined on boolean
(0/1-valued) vectors; Mahalanobis needs an inverse covariance matrix,
typically estimated once from the training data via
:func:`estimate_inverse_covariance`.

:func:`feature_distance` defines each metric and is the oracle for BMU
search, :func:`_bmu_block`, which scores a block of rows against all nodes:
euclidean and mahalanobis (on Cholesky-whitened data) by one matrix product,
then an exact re-rank of the nodes near each row's minimum; tanimoto by
exact products of the 0/1 data; manhattan by broadcasting. A block's
temporaries stay within ``BLOCK_BYTES``. Distances between map nodes on
their grid live in :mod:`somkit.som`, next to the neighbourhood kernel.
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


def check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return metric


def _as_boolean(v: np.ndarray, name: str) -> np.ndarray:
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


def paired_distances(A, B, metric: str = "euclidean", cov_inv=None) -> np.ndarray:
    """Distance between row ``i`` of ``A`` and row ``i`` of ``B``, for every ``i``.

    Same formulas as :func:`feature_distance`, vectorized over rows. The
    euclidean, manhattan and tanimoto values equal the scalar ones exactly;
    the mahalanobis quadratic form is summed in another order.
    """
    check_metric(metric)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape != B.shape:
        raise ValueError(f"expected two (N, n) matrices of one shape, got {A.shape} and {B.shape}")
    if metric == "euclidean":
        return np.sqrt(((A - B) ** 2).sum(axis=1))
    if metric == "manhattan":
        return np.abs(A - B).sum(axis=1)
    if metric == "tanimoto":
        ab = _as_boolean(A, "A")
        bb = _as_boolean(B, "B")
        n_tt = (ab & bb).sum(axis=1)
        n_ff = (~ab & ~bb).sum(axis=1)
        mismatches = 2 * (ab ^ bb).sum(axis=1)
        return mismatches / (n_tt + n_ff + mismatches)
    v_inv = _check_cov_inv(cov_inv, A.shape[1])
    d = A - B
    return np.sqrt(np.maximum(((d @ v_inv) * d).sum(axis=1), 0.0))


def _block_rows(n_nodes: int, n_features: int, metric: str) -> int:
    """Rows of X per :func:`_bmu_block` call, so its largest float64
    temporary, (rows, nodes) or manhattan's (rows, nodes, n), stays within
    ``BLOCK_BYTES``."""
    per_row = n_nodes * (n_features if metric == "manhattan" else 1) * 8
    return max(1, BLOCK_BYTES // per_row)


def _whitening(cov_inv, n: int) -> tuple[np.ndarray, float]:
    """Cholesky factor L of ``cov_inv`` (cov_inv = L L^T) and sum |cov_inv_ij|."""
    v_inv = _check_cov_inv(cov_inv, n)
    try:
        # x^T V x only sees the symmetric part of V
        L = np.linalg.cholesky(0.5 * (v_inv + v_inv.T))
    except np.linalg.LinAlgError:
        raise ValueError(
            "mahalanobis needs a symmetric positive definite inverse covariance"
        ) from None
    return L, float(np.abs(v_inv).sum())


def _bmu_block(W: np.ndarray, X: np.ndarray, metric: str, cov_inv=None):
    """Flat index of the nearest row of ``W`` (nodes, n) to ``X``.

    ``X`` is one row (n,), giving one index, or a block (rows, n), giving
    one index per row; callers bound the rows by :func:`_block_rows`. The
    result is what :func:`feature_distance` gives row by row, ties going to
    the lowest index.
    """
    check_metric(metric)
    if metric == "manhattan":
        return np.abs(W - X[..., None, :]).sum(axis=-1).argmin(axis=-1)
    if metric == "tanimoto":
        _as_boolean(W, "weights")
        _as_boolean(X, "data")
        # Counts from products of 0/1 floats are exact integers, so these
        # distances equal feature_distance's: c_TT + c_FF + mismatches is
        # n + |x| + |w| - 2 c_TT, and the mismatches 2 (|x| + |w| - 2 c_TT).
        n_tt = X @ W.T
        n_x = X.sum(axis=-1)[..., None]
        n_w = W.sum(axis=1)
        mismatches = 2.0 * (n_x + n_w - 2.0 * n_tt)
        return (mismatches / (X.shape[-1] + n_x + n_w - 2.0 * n_tt)).argmin(axis=-1)

    n = X.shape[-1]
    w_norms = np.einsum("ij,ij->i", W, W)
    w_bound = w_norms.max()
    kappa, X_w, W_w = 1.0, X, W
    if metric == "mahalanobis":
        # (x - w) V (x - w)^T = |x L - w L|^2: the euclidean search on whitened rows
        L, kappa = _whitening(cov_inv, n)
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
    # below and blocked Cholesky's larger constant. Too loose only re-ranks more.
    slack = (32.0 * (n + 4) * _EPS * kappa) * ((X * X).sum(axis=-1) + w_bound)
    near = scores <= (scores.min(axis=-1) + slack)[..., None]
    if np.count_nonzero(near) == best.size:
        return best
    # Some row has more than one node near its minimum: re-score those nodes
    # with the oracle's own arithmetic.
    X, near, best = np.atleast_2d(X), np.atleast_2d(near), np.atleast_1d(best)
    ties = np.flatnonzero(near.sum(axis=1) > 1)
    r, c = np.nonzero(near[ties])
    rows = ties[r]
    if metric == "euclidean":
        d = paired_distances(W[c], X[rows])
    else:
        d = np.array([feature_distance(W[j], X[i], metric, cov_inv) for i, j in zip(rows, c)])
    order = np.lexsort((c, d, r))
    first = np.r_[True, r[order][1:] != r[order][:-1]]
    best[ties] = c[order][first]
    return best if scores.ndim == 2 else best[0]


def estimate_inverse_covariance(X, ridge: float = DEFAULT_COV_RIDGE) -> np.ndarray:
    """Inverse of the sample covariance of ``X`` with a small ridge term.

    The ridge keeps the inversion well-posed for degenerate data. Needs at
    least two rows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an (N, n) matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("covariance estimation needs at least 2 datapoints")
    cov = np.atleast_2d(np.cov(X, rowvar=False))
    cov = cov + ridge * np.eye(cov.shape[0])
    return np.linalg.inv(cov)
