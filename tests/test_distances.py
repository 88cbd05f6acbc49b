import numpy as np
import pytest
from hypothesis import given, strategies as st

from somkit import distances
from somkit.distances import (
    METRICS,
    estimate_inverse_covariance,
    feature_distance,
    paired_distances,
)
from somkit.som import WeightGrid, batch_update, find_bmu, transform

from oracles import feature_distance as reference_distance

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vector_pairs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(finite_floats, min_size=n, max_size=n),
        st.lists(finite_floats, min_size=n, max_size=n),
    )
)


class TestFeatureDistance:
    def test_euclidean_3_4_5(self):
        assert feature_distance((0, 0), (3, 4), "euclidean") == 5.0

    def test_manhattan(self):
        assert feature_distance((1, 2), (4, 6), "manhattan") == 7.0

    def test_tanimoto_hand_counts(self):
        # c_TT=1, c_FF=1, c_TF=1, c_FT=1 -> 2*(1+1) / (1+1+4) = 2/3
        d = feature_distance((1, 1, 0, 0), (1, 0, 1, 0), "tanimoto")
        assert d == pytest.approx(2 / 3, abs=1e-15)

    def test_mahalanobis_identity_is_euclidean(self):
        d = feature_distance((0, 0), (3, 4), "mahalanobis", cov_inv=np.eye(2))
        assert d == pytest.approx(5.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_distance((1, 2), (1, 2, 3), "euclidean")

    def test_tanimoto_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            feature_distance((0.5, 1), (1, 0), "tanimoto")

    def test_mahalanobis_needs_cov_inv(self):
        with pytest.raises(ValueError):
            feature_distance((1, 2), (3, 4), "mahalanobis")
        with pytest.raises(ValueError):
            feature_distance((1, 2), (3, 4), "mahalanobis", cov_inv=np.eye(3))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            feature_distance((1,), (2,), "cosine")

    @given(vector_pairs)
    def test_symmetric_and_nonnegative(self, pair):
        a, b = pair
        for metric in ("euclidean", "manhattan"):
            d_ab = feature_distance(a, b, metric)
            assert d_ab >= 0
            assert d_ab == feature_distance(b, a, metric)

    @given(vector_pairs)
    def test_euclidean_below_manhattan(self, pair):
        a, b = pair
        eps = 1e-9 * (1 + feature_distance(a, b, "manhattan"))
        assert feature_distance(a, b, "euclidean") <= feature_distance(a, b, "manhattan") + eps

    def test_mahalanobis_identity_matches_euclidean_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 10)
            a, b = rng.normal(size=(2, n))
            d_m = feature_distance(a, b, "mahalanobis", cov_inv=np.eye(n))
            assert d_m == pytest.approx(feature_distance(a, b, "euclidean"), abs=1e-12)

    @given(st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
        )
    ))
    def test_tanimoto_range_and_self_distance(self, pair):
        a, b = pair
        d = feature_distance(a, b, "tanimoto")
        assert 0.0 <= d <= 1.0
        assert feature_distance(a, a, "tanimoto") == 0.0


def oracle_bmus(W, X, metric, cov_inv):
    """Row-by-row argmin of feature_distance, lowest index on ties."""
    out = []
    for x in X:
        d = [feature_distance(w, x, metric, cov_inv) for w in W]
        out.append(int(np.argmin(d)))
    return out


def adversarial_cases(metric, rng):
    """(name, W of shape (rows, cols, n), X) pairs built to trip a fast BMU search."""
    if metric == "tanimoto":
        def draw(*shape):
            return rng.integers(0, 2, size=shape).astype(float)
        W = draw(4, 5, 6)
        X = draw(30, 6)
        constant = W.copy()
        constant[:, :, 2] = 1.0
        X_constant = X.copy()
        X_constant[:, 2] = 1.0
        yield "random bits, many exact ties", W, X
        yield "constant feature", constant, X_constant
    else:
        W = rng.normal(size=(4, 5, 3))
        X = rng.normal(size=(30, 3))
        lattice = np.stack(np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij"), axis=-1)
        midpoints = rng.integers(0, 4, size=(40, 2)) + 0.5
        yield "random", W, X
        yield "equidistant lattice midpoints", lattice, midpoints
        yield "large offset, small spread", 1e6 + 1e-3 * W, 1e6 + 1e-3 * rng.normal(size=(30, 3))
        constant = W.copy()
        constant[:, :, 1] = 7.0
        X_constant = rng.normal(size=(30, 3))
        X_constant[:, 1] = 7.0
        yield "constant feature", constant, X_constant
    duplicated = W.copy()
    duplicated[1::2] = duplicated[0]
    duplicated[:, 3] = duplicated[:, 1]
    yield "duplicated nodes", duplicated, X
    yield "x equal to a node", duplicated, duplicated.reshape(-1, W.shape[2])[::3]
    yield "1x1 grid", W[:1, :1], X
    yield "empty X", W, X[:0]


def stacked_search(metric, cov_invs, Xs, Ws):
    """The row search of the maps of rows ``Xs[f]``, weights ``Ws[f]`` and
    ``cov_invs[f]``, stacked as a fit stacks them."""
    return distances._row_search([distances._search(metric, c, X, W)
                                  for c, X, W in zip(cov_invs, Xs, Ws)])


def row_search_cases(n, rng):
    """(name, W of shape (nodes, n), X) near-ties for the one-row search over n features."""
    W = rng.normal(size=(24, n)).round(1)
    duplicated = W.copy()
    duplicated[1::2] = duplicated[0]
    yield "duplicate nodes", duplicated, np.vstack([duplicated[:3], rng.normal(size=(4, n))])
    yield "x within 1e-13 of a node", W, W[::3] + 1e-13 * rng.choice([-1.0, 1.0], size=(8, n))
    # every node is the same vector with its features rotated, so the exact
    # distances from 0 or from a constant x tie and only rounding separates them
    v = rng.normal(size=n)
    rotated = np.array([np.roll(v, k) for k in range(min(n, 24))])
    yield "rotated copies", rotated, np.vstack([np.zeros(n), np.full(n, 0.25), np.full(n, v.mean())])
    lattice = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij"), -1)
    lattice = np.tile(lattice.reshape(-1, 2), (1, n))[:, :n]
    yield "equidistant lattice midpoints", lattice, rng.integers(0, 4, size=(8, n)) + 0.5
    for scale in (1e-160, 1e-154):
        yield f"scale {scale}: squares underflow", W * scale, rng.normal(size=(8, n)) * scale
        yield f"scale {scale}: rotated copies", rotated * scale, np.zeros((1, n))


def pair_cases(metric, n, rng):
    """(name, A, B) row pairs over n features for comparing distance formulas."""
    if metric == "tanimoto":
        A = rng.integers(0, 2, size=(40, n)).astype(float)
        flipped = A.copy()
        flipped[np.arange(40), rng.integers(0, n, size=40)] += 1.0
        yield "random bits", A, rng.integers(0, 2, size=(40, n)).astype(float)
        yield "one bit apart", A, flipped % 2
        yield "equal", A, A.copy()
        return
    A = rng.normal(size=(40, n))
    yield "random", A, rng.normal(size=(40, n))
    yield "near-equal", A, A + 1e-13 * rng.normal(size=(40, n))
    yield "large offset, near-equal", 1e6 + A, 1e6 + A + 1e-9 * rng.normal(size=(40, n))
    yield "scale 1e-160", A * 1e-160, rng.normal(size=(40, n)) * 1e-160
    yield "equal", A, A.copy()


def assert_searches_agree(grid, X, metric, cov_inv, monkeypatch):
    """transform in blocks of the default size and of one row, _bmu_block on
    blocks of one row, and the one-row call of online training, on
    node-major weights, equal the feature_distance argmin of each row."""
    W = grid.flat
    expected = [int(paired_distances(np.broadcast_to(x, W.shape), W, metric, cov_inv).argmin())
                for x in X]
    for block_bytes in (distances.BLOCK_BYTES, 1):  # 1: blocks of one row
        monkeypatch.setattr(distances, "BLOCK_BYTES", block_bytes)
        got = transform(grid, X, metric, cov_inv)
        assert (got[:, 0] * grid.n_column + got[:, 1]).tolist() == expected
    search = distances._search(metric, cov_inv, X, W)
    prepared = distances._prepare(search, W)
    assert [int(distances._bmu_block(W, x[None], search, prepared)[0]) for x in X] == expected
    node_major = np.ascontiguousarray(W.T)[None]
    row_search = stacked_search(metric, [cov_inv], [X], [W])
    D = [x[None, :, None] - node_major for x in X]
    assert [int(distances._bmu_row(d, row_search, distances._row_scores(d, row_search))[0])
            for d in D] == expected


PRODUCT_CASES = ("offset 1e6, spread 1", "offset 1e6, near twins", "near twins",
                 "duplicated nodes", "scale 1e-160")


def prepared_product_cases(n, rng):
    """name -> (W (400, n), X) for each of PRODUCT_CASES, for the product search."""
    W = rng.normal(size=(400, n))
    twins, duplicated, offset_twins = W.copy(), W.copy(), 1e6 + W
    twins[1::2] = W[::2] + 1e-13 * rng.normal(size=(200, n))
    duplicated[1::2] = W[::2]
    # 1e-9 is a few units in the last place of 1e6
    offset_twins[1::2] = offset_twins[::2] + 1e-9 * rng.normal(size=(200, n))
    return {
        # scores about -|x|^2 = -n 1e12, spread about n: |w|^2 cancels the product
        "offset 1e6, spread 1": (1e6 + W, 1e6 + rng.normal(size=(20, n))),
        "offset 1e6, near twins": (offset_twins, offset_twins[:20] + 1e-10),
        "near twins": (twins, np.vstack([twins[:20] + 1e-14 * rng.normal(size=(20, n)),
                                         rng.normal(size=(10, n))])),
        "duplicated nodes": (duplicated, np.vstack([duplicated[:10], rng.normal(size=(10, n))])),
        "scale 1e-160": (W * 1e-160, rng.normal(size=(20, n)) * 1e-160),
    }


def metric_context(metric, W, X):
    if metric != "mahalanobis":
        return None
    return estimate_inverse_covariance(np.vstack([W.reshape(-1, W.shape[2]), X]))


class TestVectorizedPaths:
    def test_distances_to_many_matches_scalar(self):
        """paired_distances equals feature_distance row by row, for distinct
        row pairs and for one point against many."""
        rng = np.random.default_rng(11)
        points = rng.normal(size=(20, 5))
        others = rng.normal(size=(20, 5))
        x = np.broadcast_to(rng.normal(size=5), points.shape)
        cov_inv = estimate_inverse_covariance(rng.normal(size=(40, 5)))
        for metric in ("euclidean", "manhattan", "mahalanobis"):
            for b in (others, x):
                bulk = paired_distances(points, b, metric, cov_inv)
                scalar = [feature_distance(p, q, metric, cov_inv) for p, q in zip(points, b)]
                np.testing.assert_array_equal(bulk, scalar)

    def test_distances_to_many_matches_scalar_tanimoto(self):
        rng = np.random.default_rng(12)
        points = rng.integers(0, 2, size=(20, 6)).astype(float)
        others = rng.integers(0, 2, size=(20, 6)).astype(float)
        x = np.broadcast_to(rng.integers(0, 2, size=6).astype(float), points.shape)
        for b in (others, x):
            bulk = paired_distances(points, b, "tanimoto")
            scalar = [feature_distance(p, q, "tanimoto") for p, q in zip(points, b)]
            np.testing.assert_array_equal(bulk, scalar)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("n", [1, 2, 7, 32, 204])
    def test_one_formula_per_metric_keeps_the_reference_bits(self, metric, n):
        """feature_distance gives the bits of the reference formulas, and
        paired_distances on k rows gives them row by row, whatever k."""
        rng = np.random.default_rng(n)
        cov_inv = None
        if metric == "mahalanobis":
            correlated = rng.normal(size=(2 * n + 3, n)) @ rng.normal(size=(n, n))
            cov_inv = estimate_inverse_covariance(correlated)
        for name, A, B in pair_cases(metric, n, rng):
            expected = [reference_distance(a, b, metric, cov_inv) for a, b in zip(A, B)]
            got = [feature_distance(a, b, metric, cov_inv) for a, b in zip(A, B)]
            assert got == expected, name
            rows = [paired_distances(A[i : i + 1], B[i : i + 1], metric, cov_inv)[0]
                    for i in range(len(A))]
            assert rows == expected, name
            np.testing.assert_array_equal(paired_distances(A, B, metric, cov_inv), expected, name)

    @pytest.mark.parametrize("metric", METRICS)
    def test_zero_feature_rows_are_rejected(self, metric):
        empty = np.zeros((3, 0))
        with pytest.raises(ValueError, match="dimension >= 1") as paired:
            paired_distances(empty, empty, metric, np.zeros((0, 0)))
        with pytest.raises(ValueError, match="dimension >= 1") as single:
            feature_distance(empty[0], empty[0], metric, np.zeros((0, 0)))
        assert str(paired.value) == str(single.value)

    def test_distance_matrix_matches_row_loops(self, monkeypatch):
        """Block and single-row BMU search equal the feature_distance argmin."""
        rng = np.random.default_rng(13)
        for metric in METRICS:
            for name, w, X in adversarial_cases(metric, rng):
                case = f"{metric}: {name}"
                grid = WeightGrid(w)
                cov_inv = metric_context(metric, w, X)
                expected = oracle_bmus(grid.flat, X, metric, cov_inv)
                singles = [find_bmu(grid, x, metric, cov_inv) for x in X]
                assert [r * grid.n_column + c for r, c in singles] == expected, case
                # one block, then N larger than one block: 3 rows per block, 1 for manhattan
                for block_bytes in (distances.BLOCK_BYTES, 3 * len(grid.flat) * 8):
                    monkeypatch.setattr(distances, "BLOCK_BYTES", block_bytes)
                    got = transform(grid, X, metric, cov_inv)
                    assert got.shape == (len(X), 2), case
                    assert (got[:, 0] * grid.n_column + got[:, 1]).tolist() == expected, case
                monkeypatch.undo()

    def test_euclidean_block_search_is_exact_on_random_sizes(self):
        rng = np.random.default_rng(14)
        for n in (1, 7, 130, 300):
            W = WeightGrid(rng.normal(size=(6, 7, n)).round(1))
            X = np.vstack([W.flat[::5] + 1e-13, rng.normal(size=(10, n)).round(1)])
            got = transform(W, X)
            assert (got[:, 0] * 7 + got[:, 1]).tolist() == oracle_bmus(W.flat, X, "euclidean", None)
            # at this scale the squares and products underflow
            W, X = WeightGrid(rng.normal(size=(6, 7, n)) * 1e-160), rng.normal(size=(300, n)) * 1e-160
            got = transform(W, X)
            assert (got[:, 0] * 7 + got[:, 1]).tolist() == oracle_bmus(W.flat, X, "euclidean", None)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "mahalanobis"])
    @pytest.mark.parametrize("n", [1, 2, 7, 9, 33, 130, 204, 300])
    def test_row_search_from_differences_is_exact(self, metric, n):
        """The node-major search of one map, and of a stack of maps that each
        hold the nodes in another order, one row per map; mahalanobis maps
        each have their own inverse covariance, as crossval's folds do."""
        rng = np.random.default_rng(n)
        for name, W, X in row_search_cases(n, rng):
            cov_invs = [None] * len(X)
            if metric == "mahalanobis":
                cov_invs = [estimate_inverse_covariance(rng.normal(size=(2 * n + 3, n))
                                                        @ rng.normal(size=(n, n)))
                            for _ in X]
            search = stacked_search(metric, cov_invs[:1], [X], [W])
            expected = oracle_bmus(W, X, metric, cov_invs[0])
            D = [(x[:, None] - W.T)[None] for x in X]
            got = [int(distances._bmu_row(d, search, distances._row_scores(d, search))[0])
                   for d in D]
            assert got == expected, name
            maps = np.stack([np.roll(W, f, axis=0).T for f in range(len(X))])
            expected = [oracle_bmus(w.T, x[None], metric, c)[0]
                        for w, x, c in zip(maps, X, cov_invs)]
            search = stacked_search(metric, cov_invs, [X] * len(X), [W] * len(X))
            D = X[:, :, None] - maps
            got = distances._bmu_row(D, search, distances._row_scores(D, search))
            assert got.tolist() == expected, name

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_row_search_under_subnormal_inverse_covariances(self, n):
        """Each map's cov_inv has entries near the smallest subnormal, and its
        nodes lie close together far from the row. The oracle's products
        d V underflow, and it multiplies their errors by d, so they grow with
        |d| however small V is: the slack's tau term must grow with max |d|^2."""
        rng = np.random.default_rng(n)
        cov_invs, W, X = [], [], []
        while len(W) < 400:
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V = (Q * np.geomspace(1.0, 10.0 ** rng.uniform(0, 3), n)) @ Q.T
            V *= 10.0 ** rng.uniform(-323.3, -316)
            try:
                np.linalg.cholesky(0.5 * (V + V.T))
            except np.linalg.LinAlgError:  # rounded away from positive definite
                continue
            scale = 10.0 ** rng.uniform(1, 8)
            base = scale * rng.normal(size=n)
            X.append(base + scale * rng.normal(size=n))
            W.append(base + scale * 10.0 ** rng.uniform(-8, -3) * rng.normal(size=(16, n)))
            cov_invs.append(V)
        X, W = np.array(X), np.array(W)
        expected = [oracle_bmus(w, x[None], "mahalanobis", V)[0] for w, x, V in zip(W, X, cov_invs)]
        search = stacked_search("mahalanobis", cov_invs, X[:, None], W)
        D = X[:, :, None] - W.transpose(0, 2, 1)
        scores = distances._row_scores(D, search)
        assert distances._bmu_row(D, search, scores).tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_block_search_under_subnormal_inverse_covariances(self, n):
        """The block search's tau term must grow with |x|^2 + max |w|^2, as the
        row search's grows with max |d|^2: ``transform`` of one row and of
        several rows, each case with a cov_inv of entries near the smallest
        subnormal and 16 nodes close together far from the rows."""
        rng = np.random.default_rng([n, 1])
        cases = 0
        while cases < 300:
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V = (Q * np.geomspace(1.0, 10.0 ** rng.uniform(0, 3), n)) @ Q.T
            V *= 10.0 ** rng.uniform(-323.3, -316)
            try:
                np.linalg.cholesky(0.5 * (V + V.T))
            except np.linalg.LinAlgError:  # rounded away from positive definite
                continue
            scale = 10.0 ** rng.uniform(1, 8)
            base = scale * rng.normal(size=n)
            X = base + scale * rng.normal(size=(6, n))
            W = base + scale * 10.0 ** rng.uniform(-8, -3) * rng.normal(size=(16, n))
            grid, expected = WeightGrid(W.reshape(4, 4, n)), oracle_bmus(W, X, "mahalanobis", V)
            for rows in (X, X[:1]):
                bmus = transform(grid, rows, "mahalanobis", V)
                assert (4 * bmus[:, 0] + bmus[:, 1]).tolist() == expected[: len(rows)]
            cases += 1

    @pytest.mark.parametrize("metric", METRICS)
    # 2 x 4 x 204: n + 1 > nodes, so the rows' side of the product sizes the blocks
    @pytest.mark.parametrize("shape, N", [((40, 20, 16), 700), ((2, 4, 204), 1400)],
                             ids=["40x20x16", "2x4x204"])
    def test_exact_block_search_over_many_blocks(self, shape, N, metric, monkeypatch):
        rng = np.random.default_rng(15)
        W = rng.integers(0, 2, size=shape).astype(float)
        W[:, 1::2] = W[:, ::2]  # duplicated nodes: ties go to the lower index
        grid, X = WeightGrid(W), rng.integers(0, 2, size=(N, shape[2])).astype(float)
        assert len(X) > 2 * distances._block_rows(shape[0] * shape[1], shape[2], metric)
        # integer distances: most rows tie between several nodes
        assert_searches_agree(grid, X, metric, metric_context(metric, W, X), monkeypatch)

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_product_search_re_ranks_near_twins(self, metric, monkeypatch):
        rng = np.random.default_rng(16)
        W = rng.normal(size=(800, 16))
        W[1::2] = W[::2] + 1e-13 * rng.normal(size=(400, 16))
        B = distances._block_rows(800, 16, metric)
        # rows nearest the earlier and the later node of a pair, whose
        # product scores only rounding separates; the first two blocks hold
        # random rows, and one of them one such row
        near = W[:40] + 1e-14 * rng.normal(size=(40, 16))
        X = np.vstack([rng.normal(size=(2 * B, 16)), near])
        X[B + 7] = near[0]
        grid = WeightGrid(W.reshape(40, 20, 16))
        assert_searches_agree(grid, X, metric, metric_context(metric, grid.weights, X),
                              monkeypatch)
        # A node scoring at the runner-up threshold is re-ranked. With no
        # slack only exact score ties are: from x = 1 both nodes below score
        # -1, and the later one is nearer.
        monkeypatch.setattr(distances, "_EPS", 0.0)
        monkeypatch.setattr(distances, "_TINY", 0.0)
        grid = WeightGrid(np.array([[[1 + 2.0**-29], [1 - 2.0**-30], [3.0]]]))
        assert_searches_agree(grid, np.ones((1, 1)), metric, np.ones((1, 1)), monkeypatch)

    @pytest.mark.parametrize("case", PRODUCT_CASES)
    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    @pytest.mark.parametrize("n", [1, 3, 204])
    def test_prepared_product_search_is_exact(self, case, metric, n, monkeypatch):
        """The one product against the prepared weights, where |w|^2 cancels
        against it, where nodes tie or nearly tie, and where it underflows."""
        nodes, X = prepared_product_cases(n, np.random.default_rng(n))[case]
        grid = WeightGrid(nodes.reshape(20, 20, n))
        assert_searches_agree(grid, X, metric, metric_context(metric, grid.weights, X),
                              monkeypatch)

    @pytest.mark.parametrize("metric", ["euclidean", "mahalanobis"])
    def test_each_transform_call_prepares_the_weights_it_is_given(self, metric):
        """A batch-map iteration updates the weights in place; the next
        transform call must search the updated weights."""
        rng = np.random.default_rng(17)
        grid, X = WeightGrid(rng.normal(size=(8, 8, 5))), rng.normal(size=(300, 5))
        cov_inv = metric_context(metric, grid.weights, X)
        before = transform(grid, X, metric, cov_inv)
        batch_update(grid, X, before, 1.5)
        W = grid.flat
        expected = [int(paired_distances(np.broadcast_to(x, W.shape), W, metric, cov_inv).argmin())
                    for x in X]
        got = transform(grid, X, metric, cov_inv)
        assert (got[:, 0] * 8 + got[:, 1]).tolist() == expected
        assert (before != got).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mahalanobis_rejects_non_finite_cov_inv(self, bad):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        cov_inv = np.eye(2)
        cov_inv[0, 1] = cov_inv[1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            find_bmu(grid, (1.0, 1.0), "mahalanobis", cov_inv)
        with pytest.raises(ValueError, match="must be finite"):
            transform(grid, np.ones((3, 2)), "mahalanobis", cov_inv)

    def test_mahalanobis_rejects_non_positive_definite(self):
        grid = WeightGrid(np.zeros((2, 2, 2)))
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            find_bmu(grid, (1.0, 1.0), "mahalanobis", indefinite)
        with pytest.raises(ValueError, match="positive definite"):
            transform(grid, np.ones((3, 2)), "mahalanobis", indefinite)


class TestCovarianceEstimate:
    def test_inverse_of_known_covariance(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [2.0, 4.0]])
        # sample covariance is diag(4/3, 16/3)
        inv = estimate_inverse_covariance(X, ridge=0.0)
        np.testing.assert_allclose(inv, np.diag([3 / 4, 3 / 16]), atol=1e-12)

    def test_ridge_handles_constant_feature(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        inv = estimate_inverse_covariance(X)
        assert np.all(np.isfinite(inv))

    def test_overflowing_covariance_is_rejected(self):
        X = np.random.default_rng(0).random((40, 3)) * 1e160  # squares overflow
        with pytest.raises(ValueError, match="not finite"):
            estimate_inverse_covariance(X)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            estimate_inverse_covariance(np.ones((1, 3)))

