from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from somkit import datasets
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


_read_columns = datasets._read_columns


def _load(path, label_column=None, label_kind="none", fast=True):
    """load_csv's dataset or DatasetError text, and whether the fast path's result stood.

    With ``fast=False`` the fast path declines every file, so the row loop
    reads it.
    """
    stood = []

    def read_columns(*args):
        columns = _read_columns(*args) if fast else None
        stood.append(columns is not None)
        return columns

    with mock.patch.object(datasets, "_read_columns", read_columns):
        try:
            outcome = load_csv(path, label_column, label_kind)
        except DatasetError as exc:
            outcome = str(exc)
    return outcome, any(stood)


def _assert_same(got, expected):
    """Equal DatasetError texts, or bit-equal X and y of equal dtypes and shapes."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert got.feature_names == expected.feature_names
    for a, b in [(got.X, expected.X), (got.y, expected.y)]:
        if b is None:
            assert a is None
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# case -> (file text, label column, label kind, whether the fast path's result stands)
INGEST_CASES = {
    "plain": ("a,b\n1,2\n3,4\n", None, "none", True),
    "no final line end": ("a,b\n1,2\n3,4", None, "none", True),
    "one row one column": ("a\n-0.0\n", None, "none", True),
    "quoted cells": ('a,b,y\n"1.5",2,"x"\n3,"4",y\n', "y", "categorical", True),
    "doubled quotes": ('a,y\n1,"say ""hi"""\n2,a"b\n', "y", "categorical", True),
    "text after a closing quote": ('a,y\n1,"ab"cd\n', "y", "categorical", True),
    "quoted comma in a label": ('a,y\n1,"x,z"\n2,w\n', "y", "categorical", False),
    "quoted comma in a number": ('a,b\n"1,5",2\n', None, "none", False),
    "quoted comma in the header": ('"a,b",c\n1,2\n', None, "none", False),
    "header spanning lines": ('"a\nb",c\n1,2\n', None, "none", False),
    "header with an open quote": ('"a\n1\n2\n', None, "none", False),
    "quoted line end in a label": ('a,y\n1,"x\ny"\n2,w\n', "y", "categorical", False),
    "crlf": ("a,b,y\r\n1,2,p\r\n3,4,q\r\n", "y", "categorical", True),
    "lone cr": ("a,b,y\r1,2,p\r3,4,q\r", "y", "categorical", True),
    "lone cr hiding a blank line": ("a,b\n1,2\r3,4\n\n", None, "none", False),
    "padded whitespace": ("a,b,y\n 1 ,\t2 , x \n3, 4\t,y\n", "y", "categorical", True),
    "padded continuous label": ("a,y\n1, 2.5 \n", "y", "continuous", True),
    "nan feature": ("a,b\n1,2\nnan,2\n", None, "none", False),
    "inf feature": ("a,b\n1,-inf\n", None, "none", False),
    "overflowing feature": ("a,b\n1e500,2\n", None, "none", False),
    "nan continuous label": ("a,y\n1,2\n3,NaN\n", "y", "continuous", False),
    "overflowing continuous label": ("a,y\n1,1e500\n", "y", "continuous", False),
    "nan categorical label": ("a,y\n1,nan\n", "y", "categorical", True),
    "underscore digits": ("a,b\n1_0,2\n", None, "none", False),
    "hex number": ("a,b\n0x10,2\n", None, "none", False),
    "empty cell": ("a,b\n,2\n", None, "none", False),
    "blank line": ("a,b\n1,2\n\n3,4\n", None, "none", False),
    "trailing blank line": ("a,b,y\n1,2,p\n3,4,q\n\n", "y", "categorical", False),
    "only a blank line": ("a,b,y\n\n", "y", "categorical", False),
    "whitespace line": ("a,b\n1,2\n  \n", None, "none", False),
    "short row": ("a,b,c\n1,2,3\n4,5\n", None, "none", False),
    "extra field": ("a,b\n1,2\n3,4,5\n", None, "none", False),
    "extra field and short row": ("a,b\n1,2,3\n4\n", None, "none", False),
    "extra field beyond the label": ("a,y,b\n1,p,2\n3,q,4,5\n", "y", "categorical", False),
    "header only": ("a,b\n", None, "none", False),
    "header only without line end": ("a,b", None, "none", False),
    "label first": ("y,a,b\np,1,2\nqq,3,4\n", "y", "categorical", True),
    "label in the middle": ("a,y,b\n1,0.5,2\n3,-1e-300,4\n", "y", "continuous", True),
    "label last": ("a,b,y\n1,2,7\n3,4,8.25\n", "y", "continuous", True),
    "label widths": ("a,y\n1,x\n2,yyyy\n3,\n4,é日\n", "y", "categorical", True),
    "only a label": ("y\np\nq\n", "y", "categorical", False),
    "unused label column": ("a,y\n1,p\n", "y", "categorical", True),
}


class TestColumnarIngest:
    """The fast path agrees bit for bit with the row loop, or leaves the file to it."""

    @pytest.mark.parametrize("case", INGEST_CASES)
    def test_matches_row_loop(self, tmp_path, case):
        text, label_column, label_kind, fast = INGEST_CASES[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        got, stood = _load(path, label_column, label_kind)
        expected, _ = _load(path, label_column, label_kind, fast=False)
        _assert_same(got, expected)
        assert stood == fast

    @pytest.mark.parametrize("offset", [2**20 - 1, 2**20])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_line_end_at_a_block_edge(self, tmp_path, line_end, offset):
        # the counts read the file in blocks of 2**20 bytes; one line end
        # starts at ``offset``, so a "\r\n" there straddles two blocks
        rows, size = [], len("a,b" + line_end)
        while offset - size > 100:
            rows.append("1," + "2" * 58)
            size += 60 + len(line_end)
        rows += ["1," + "2" * (offset - size - 2), "3,4", "5,6"]
        path = tmp_path / "d.csv"
        path.write_bytes((line_end.join(["a,b", *rows]) + line_end).encode())
        assert path.read_bytes()[offset:offset + len(line_end)] == line_end.encode()
        got, stood = _load(path)
        expected, _ = _load(path, fast=False)
        _assert_same(got, expected)
        assert stood and got.n_samples == len(rows)

    def test_blank_line_error_is_the_row_loops(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,p\n\n3,4,q\n")
        with pytest.raises(DatasetError) as err:
            load_csv(path, "y", "categorical")
        assert str(err.value) == f"{path}: row 2 has 0 fields, expected 3"


_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers().map(str)
_CELLS = st.one_of(
    _NUMBERS,
    st.sampled_from([
        "nan", "inf", "-Infinity", "1e500", "1_0", "0x10", " 1 ", "\t2", "", "abc", "+.5",
        '"1.5"', '"a,b"', '"x""y"', 'a"b', '"ab"c', "1e-320", "-0", "é", "\x00", "#3",
    ]),
    st.text(alphabet=' ,"\r\n\t0123456789.eE+-_xa', max_size=6),
)


@st.composite
def _csv_files(draw):
    """File text, label column and label kind of small CSV files.

    Half of them are well-formed numbers only, on which the fast path's
    result stands; the other half mix in odd cells, ragged and blank rows.
    """
    n_fields = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(n_fields)]
    if draw(st.booleans()):
        rows = st.lists(_NUMBERS, min_size=n_fields, max_size=n_fields)
    else:
        widths = st.sampled_from([n_fields] * 4 + [max(n_fields - 1, 1), n_fields + 1])
        rows = widths.flatmap(lambda k: st.lists(_CELLS, min_size=k, max_size=k))
        rows = rows | st.just([])
    body = draw(st.lists(rows, max_size=5))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from([line_end, "", line_end * 2]))
    text = line_end.join(",".join(row) for row in [header, *body]) + tail
    label = draw(st.sampled_from([None, *header]))
    kind = "none" if label is None else draw(st.sampled_from(["continuous", "categorical"]))
    return text, label, kind


@settings(max_examples=400, deadline=None)
@given(_csv_files())
def test_fast_path_matches_row_loop_on_generated_files(tmp_path_factory, file):
    text, label_column, label_kind = file
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode("utf-8"))
    got, _ = _load(path, label_column, label_kind)
    expected, _ = _load(path, label_column, label_kind, fast=False)
    _assert_same(got, expected)


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
