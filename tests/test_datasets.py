import numpy as np
import pytest

from somkit.datasets import (
    DatasetError,
    LabeledDataset,
    default_band_mask_path,
    discard_bands,
    k_fold,
    load_band_mask,
    load_csv,
    minmax_scale,
    save_csv,
    synthetic_blobs,
    synthetic_regression,
    train_test_split,
)
from somkit.metrics import r_squared


class TestLoadCsv:
    def test_unlabeled(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        data = load_csv(p)
        assert data.n_samples == 3
        assert data.label_kind == "none"
        assert data.feature_names == ["a", "b"]
        np.testing.assert_array_equal(data.X, [[1, 2], [3, 4], [5, 6]])

    def test_header_only_is_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(p)

    def test_nan_rejected_with_row_number(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = ["a,b"] + ["1,2"] * 4 + ["NaN,2"] + ["1,2"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match="row 5"):
            load_csv(p)

    def test_unparseable_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(DatasetError, match="row 2.*'b'"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such data file"):
            load_csv(tmp_path / "missing.csv")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(p, "y", "continuous")

    def test_continuous_and_categorical_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,b\n1,0.5,2\n3,1.5,4\n")
        cont = load_csv(p, "y", "continuous")
        np.testing.assert_array_equal(cont.X, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(cont.y, [0.5, 1.5])
        cat = load_csv(p, "y", "categorical")
        assert list(cat.y) == ["0.5", "1.5"]

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.normal(size=(20, 3)), rng.normal(size=20), ["a", "b", "c"], "continuous")
        p = tmp_path / "out.csv"
        save_csv(data, p, label_column="y")
        back = load_csv(p, "y", "continuous")
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)


class TestSplit:
    def make(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return LabeledDataset(rng.normal(size=(n, 2)), rng.normal(size=n), None, "continuous")

    def test_679_half_split_sizes(self):
        data = self.make(679)
        train, test = train_test_split(data, 0.5, np.random.default_rng(1))
        assert sorted([train.n_samples, test.n_samples]) == [339, 340]
        assert test.n_samples == 340  # test side takes round(N * fraction)

    def test_partition(self):
        data = self.make(53)
        data = LabeledDataset(np.arange(53 * 2.0).reshape(53, 2), np.arange(53.0), None, "continuous")
        train, test = train_test_split(data, 0.3, np.random.default_rng(2))
        got = np.sort(np.concatenate([train.y, test.y]))
        np.testing.assert_array_equal(got, np.arange(53.0))

    def test_minimum_test_size_one(self):
        data = self.make(40)
        train, test = train_test_split(data, 1 / 40 / 2, np.random.default_rng(3))
        assert test.n_samples == 1

    def test_deterministic(self):
        data = self.make(30)
        a = train_test_split(data, 0.4, np.random.default_rng(9))
        b = train_test_split(data, 0.4, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].X, b[1].X)

    def test_bad_fraction(self):
        data = self.make(10)
        for f in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                train_test_split(data, f, np.random.default_rng(0))


class TestKFold:
    def make(self, n):
        return LabeledDataset(
            np.arange(n * 2.0).reshape(n, 2), np.arange(float(n)), None, "continuous"
        )

    def test_equal_folds(self):
        folds = k_fold(self.make(10), 5, np.random.default_rng(0))
        assert [t.n_samples for _, t in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = k_fold(self.make(11), 5, np.random.default_rng(0))
        assert [t.n_samples for _, t in folds] == [3, 2, 2, 2, 2]

    def test_coverage_and_disjointness(self):
        n = 37
        folds = k_fold(self.make(n), 4, np.random.default_rng(5))
        all_test = np.sort(np.concatenate([t.y for _, t in folds]))
        np.testing.assert_array_equal(all_test, np.arange(float(n)))
        for train, test in folds:
            assert train.n_samples + test.n_samples == n
            assert not set(train.y.tolist()) & set(test.y.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            k_fold(self.make(10), 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            k_fold(self.make(3), 5, np.random.default_rng(0))


class TestMinMaxScale:
    def test_soil_moisture_like_range(self):
        X = np.array([[25.0], [30.0], [42.0]])
        data = LabeledDataset(X)
        scaled, record = minmax_scale(data)
        assert scaled.X[0, 0] == 0.0
        assert scaled.X[2, 0] == 1.0

    def test_constant_feature_maps_to_zero(self):
        data = LabeledDataset(np.array([[5.0, 1.0], [5.0, 2.0]]))
        scaled, _ = minmax_scale(data)
        np.testing.assert_array_equal(scaled.X[:, 0], [0.0, 0.0])

    def test_rescaling_scaled_data_is_identity(self):
        rng = np.random.default_rng(4)
        data = LabeledDataset(rng.uniform(-3, 9, size=(30, 4)))
        scaled, _ = minmax_scale(data)
        again, _ = minmax_scale(scaled)
        np.testing.assert_array_equal(again.X, scaled.X)

    def test_record_applies_to_new_data(self):
        data = LabeledDataset(np.array([[0.0], [10.0]]))
        _, record = minmax_scale(data)
        np.testing.assert_array_equal(record.apply_to_matrix([[5.0], [20.0]]), [[0.5], [2.0]])


class TestSynthetic:
    def test_regression_noise_free_labels(self):
        data = synthetic_regression(100, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(data.y, data.X[:, 0] + data.X[:, 1], atol=1e-15)
        assert r_squared(data.y, data.X[:, 0] + data.X[:, 1]) == 1.0

    def test_regression_validation(self):
        with pytest.raises(ValueError):
            synthetic_regression(0, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            synthetic_regression(10, -0.1, np.random.default_rng(0))

    def test_blobs_single_class(self):
        data = synthetic_blobs(30, 1, 5.0, np.random.default_rng(1))
        assert set(data.y.tolist()) == {0}

    def test_blobs_class_sizes(self):
        data = synthetic_blobs(11, 3, 5.0, np.random.default_rng(2))
        counts = np.bincount(data.y.astype(int))
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 11

    def test_blobs_nearest_center_is_own_class(self):
        data = synthetic_blobs(400, 4, 20.0, np.random.default_rng(3))
        centers = np.array([data.X[data.y == c].mean(axis=0) for c in range(4)])
        d = np.linalg.norm(data.X[:, None, :] - centers[None, :, :], axis=2)
        pred = np.argmin(d, axis=1)
        assert (pred == data.y).mean() > 0.999


class TestBandMask:
    def test_bundled_mask_is_the_twenty_bands(self):
        mask = load_band_mask(default_band_mask_path())
        assert len(mask) == 20
        assert mask == list(range(108, 113)) + list(range(154, 168)) + [224]

    def test_discard_bands(self):
        X = np.arange(12.0).reshape(2, 6)
        out = discard_bands(X, [1, 6])
        np.testing.assert_array_equal(out, X[:, 1:5])

    def test_discard_bands_out_of_range(self):
        with pytest.raises(ValueError):
            discard_bands(np.ones((2, 3)), [4])

    def test_mask_parsing_errors(self, tmp_path):
        p = tmp_path / "mask.txt"
        p.write_text("1\nxyz\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_band_mask(p)
