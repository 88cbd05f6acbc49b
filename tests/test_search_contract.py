"""The exactness contract of every BMU search, as a property test.

Each search returns, for every row, the node that the argmin of
:func:`somkit.distances.paired_distances` finds, ties going to the lowest
index: ``transform`` at its default block size and in many small blocks,
the block search on blocks of one row, and the online fit's row search over
a stack of maps that hold the nodes in permuted orders, each mahalanobis map
with its own inverse covariance, and euclidean and manhattan also from the
sum of two feature halves' scores. The cases plant what a fast
search gets wrong: near twins at relative gaps of 1e-16 to 1e-12, exact
duplicates, rows equidistant from two nodes, an offset near 1e6 with a
spread of 1, scales from 1e-160 up to just inside the overflow check, and
inverse covariances with condition numbers up to 1e8. Tanimoto, which runs
the euclidean block search, gets 0/1 rows that copy a node or lie one bit
from one, duplicated nodes, and all-zero rows and nodes.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from somkit import distances
from somkit.distances import paired_distances
from somkit.som import WeightGrid, transform

CONTRACT = settings(derandomize=True, deadline=None, max_examples=400)

_MAX = float(np.finfo(float).max)


def random_spd(n, rng):
    """An inverse covariance Q diag(ev) Q^T whose condition number reaches 1e8."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    ev = np.geomspace(1.0, 10.0 ** rng.uniform(0, 8), n)
    return (Q * rng.permutation(ev)) @ Q.T


def place(W, X, placement, kappa, rng):
    """W and X moved to the unit scale, an offset near 1e6, a power-of-two
    scale down to about 1e-160, or a scale just inside the overflow check."""
    if placement == "offset":
        return 1e6 + W, 1e6 + X
    if placement == "small":
        scale = 2.0 ** int(rng.integers(-531, 1))
    elif placement == "large":
        M = max((A * A).sum(axis=1).max() for A in (W, X))
        # 4 kappa (max |x|^2 + max |w|^2) stays below 0.9 of the largest float
        scale = np.sqrt(rng.uniform(0.3, 0.9) / (8.0 * kappa * M)) * np.sqrt(_MAX) if M else 1.0
    else:
        return W, X
    return W * scale, X * scale


def plant(W, X, trouble, rng):
    """W and X with near twins, exact duplicates, or rows equidistant from two nodes."""
    nodes, rows = len(W), len(X)
    picked = rng.integers(nodes, size=rows)
    if trouble == "twins":
        gap = 10.0 ** rng.uniform(-16, -12)
        W[1::2] = W[: nodes - 1 : 2] * (1 + gap * rng.normal(size=W[1::2].shape))
        X[::2] = W[picked[::2]] * (1 + gap * rng.normal(size=X[::2].shape))
    elif trouble == "duplicates":
        W[1::2] = W[: nodes - 1 : 2]
        X[::2] = W[picked[::2]]
    elif trouble == "equidistant":
        # x - w_b = -(x - w_a) exactly, so both distances have the same bits
        X[:] = (W[picked] + W[rng.integers(nodes, size=rows)]) / 2
    return W, X


@st.composite
def real_cases(draw):
    """(metric, grid shape, W (nodes, n), X, cov_invs, block bytes, permutations):
    one cov_inv per permutation, all of one kappa, or None for each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metric = draw(st.sampled_from(["euclidean", "manhattan", "mahalanobis"]))
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 17, 33]))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    rows = draw(st.integers(1, 24))
    trouble = draw(st.sampled_from(["random", "twins", "duplicates", "equidistant"]))
    placement = draw(st.sampled_from(["unit", "offset", "small", "large"]))
    nodes = shape[0] * shape[1]
    if trouble == "equidistant":
        W = rng.integers(-3, 4, size=(nodes, n)).astype(float)
    else:
        W = rng.normal(size=(nodes, n))
    X = rng.normal(size=(rows, n))
    cov_inv = random_spd(n, rng) if metric == "mahalanobis" else None
    kappa = 1.0 if cov_inv is None else float(np.abs(cov_inv).sum())
    W, X = plant(*place(W, X, placement, kappa, rng), trouble, rng)
    block_bytes = draw(st.sampled_from([1, 512, 4096]))
    perms = [rng.permutation(nodes) for _ in range(draw(st.integers(1, 3)))]
    cov_invs = [cov_inv] * len(perms)
    if metric == "mahalanobis":
        # the later maps' own matrices, scaled to the first one's kappa,
        # which the placements keep inside the overflow check
        others = [random_spd(n, rng) for _ in perms[1:]]
        cov_invs[1:] = [V * (kappa / np.abs(V).sum()) for V in others]
    return metric, shape, W, X, cov_invs, block_bytes, perms


@st.composite
def tanimoto_cases(draw):
    """(grid shape, 0/1 W (nodes, n), 0/1 X, block bytes) at n in {1, 63, 64,
    65, 200}: every third row a node's copy and the next one bit from a node,
    with duplicated nodes or an all-zero row and node in some cases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 63, 64, 65, 200]))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    rows = draw(st.integers(1, 24))
    nodes = shape[0] * shape[1]
    p = rng.uniform(0.05, 0.95)
    W = (rng.random((nodes, n)) < p).astype(float)
    X = (rng.random((rows, n)) < p).astype(float)
    if draw(st.booleans()):
        W[1::2] = W[: nodes - 1 : 2]
    X[::3] = W[rng.integers(nodes, size=len(X[::3]))]
    near = X[1::3]  # a view: one bit flipped from a node
    near[:] = W[rng.integers(nodes, size=len(near))]
    at = (np.arange(len(near)), rng.integers(n, size=len(near)))
    near[at] = 1.0 - near[at]
    if draw(st.booleans()):
        W[rng.integers(nodes)] = 0.0
        X[rng.integers(rows)] = 0.0
    return shape, W, X, draw(st.sampled_from([1, 512, 4096]))


def oracle_distances(W, X, metric, cov_inv):
    """(rows, nodes) paired_distances of every row of X to every node of W."""
    return np.array([paired_distances(np.broadcast_to(x, W.shape), W, metric, cov_inv)
                     for x in X])


def assert_transform_and_block_search_agree(shape, W, X, metric, cov_inv, block_bytes):
    """transform at the default block size and at ``block_bytes``, and the
    block search on blocks of one row, give the oracle's BMU of every row;
    returns the oracle's distances."""
    d = oracle_distances(W, X, metric, cov_inv)
    expected = d.argmin(axis=1).tolist()
    grid = WeightGrid(W.reshape(*shape, W.shape[1]))
    flat = transform(grid, X, metric, cov_inv) @ [shape[1], 1]
    assert flat.tolist() == expected
    with mock.patch.object(distances, "BLOCK_BYTES", block_bytes):
        flat = transform(grid, X, metric, cov_inv) @ [shape[1], 1]
    assert flat.tolist() == expected
    search = distances._search(metric, cov_inv, X, W)
    prepared = distances._prepare(search, W)
    assert [int(distances._bmu_block(W, x[None], search, prepared)[0]) for x in X] == expected
    return d


@CONTRACT
@given(real_cases())
def test_every_search_finds_the_oracle_bmu(case):
    metric, shape, W, X, cov_invs, block_bytes, perms = case
    d = [assert_transform_and_block_search_agree(shape, W, X, metric, c, block_bytes)
         for c in (cov_invs if metric == "mahalanobis" else cov_invs[:1])]
    d *= len(perms) // len(d)  # the other metrics' maps share one oracle
    # the online row search: map f holds the nodes in the order perms[f],
    # with the inverse covariance cov_invs[f], and searches for row i + f
    maps = np.stack([np.ascontiguousarray(W[p].T) for p in perms])
    search = distances._row_search([distances._search(metric, c, X, W) for c in cov_invs])
    for i in range(len(X)):
        at = (i + np.arange(len(perms))) % len(X)
        D = X[at][:, :, None] - maps
        expected = [int(d_f[j, p].argmin()) for d_f, j, p in zip(d, at, perms)]
        scores = distances._row_scores(D, search)
        assert distances._bmu_row(D, search, scores).tolist() == expected
        if metric != "mahalanobis":
            # the two-part online fit adds the scores of two feature halves
            h = D.shape[1] // 2
            scores = distances._row_scores(D[:, :h], search) + distances._row_scores(D[:, h:], search)
            assert distances._bmu_row(D, search, scores).tolist() == expected


@st.composite
def score_tie_cases(draw):
    """(metric, W, x, cov_inv): nodes 1 +- 2^-k in their first feature, k in
    28..40, from x = 1, scaled by a power of two. Every product score is
    exactly -|x|^2, since the dropped (2^-k)^2 lies below a quarter ulp,
    while the exact distances 2^-k differ."""
    n = draw(st.integers(1, 4))
    k = np.array(draw(st.lists(st.integers(28, 40), min_size=2, max_size=8)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(k),
                                   max_size=len(k))))
    scale = 2.0 ** draw(st.integers(-100, 100))
    W = np.ones((len(k), n))
    W[:, 0] += signs * 2.0**-k
    metric = draw(st.sampled_from(["euclidean", "mahalanobis"]))
    cov_inv = 4.0 ** draw(st.integers(-10, 10)) * np.eye(n) if metric == "mahalanobis" else None
    return metric, W * scale, np.full((1, n), scale), cov_inv


@settings(CONTRACT, max_examples=100)
@given(score_tie_cases())
def test_a_search_without_slack_still_re_ranks_exact_score_ties(case):
    """With the rounding slack at zero only nodes whose scores tie exactly
    with the row's minimum are re-ranked; those must still be."""
    metric, W, X, cov_inv = case
    with mock.patch.multiple(distances, _EPS=0.0, _TINY=0.0):
        assert_transform_and_block_search_agree((1, len(W)), W, X, metric, cov_inv, 1)


@CONTRACT
@given(tanimoto_cases())
def test_tanimoto_search_finds_the_oracle_bmu(case):
    """Tanimoto runs the euclidean product search. On 0/1 rows its scores are
    exact integers, so it agrees also with the rounding slack at zero."""
    shape, W, X, block_bytes = case
    assert_transform_and_block_search_agree(shape, W, X, "tanimoto", None, block_bytes)
    with mock.patch.multiple(distances, _EPS=0.0, _TINY=0.0):
        assert_transform_and_block_search_agree(shape, W, X, "tanimoto", None, block_bytes)
