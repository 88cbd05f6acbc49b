import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from oracles import minmax_apply
from somkit.metrics import r_squared


# (file text, label column, label kind, error after the file's path)
BAD_NUMBER_CASES = [
    ("a,y,b\n1,2,3\n4,bad,oops\n", "y", "continuous", "row 2, column 'b': cannot parse 'oops' as a number"),
    ("a,y\n1,inf\n", "y", "continuous", "row 1, column 'y': non-finite value 'inf'"),
    ("a,y\n1,zz\n", "y", "continuous", "row 1, column 'y': cannot parse 'zz' as a number"),
    ("a,b\nnan,x\n", None, "none", "row 1, column 'a': non-finite value 'nan'"),
    ('"a,",y\n1,"1e999"\n', "y", "continuous", "row 1, column 'y': non-finite value '1e999'"),
    ("y,a\nq,-inf\n", "y", "categorical", "row 1, column 'a': non-finite value '-inf'"),
]


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

    @pytest.mark.parametrize("text, label_column, label_kind, message", BAD_NUMBER_CASES)
    def test_first_bad_number_cell_is_named(self, tmp_path, text, label_column, label_kind,
                                            message):
        """Features before the label, and a continuous label like a feature."""
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DatasetError) as err:
            load_csv(p, label_column, label_kind)
        assert str(err.value) == f"{p}: {message}"

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
    # no usecols reaches a dropped last column, and the two rows' commas
    # add up to those of two full rows
    "short and long row before a dropped last label": (
        "c0,c1\n0.0\n0.0,0.0\n0.0,0.0\n0.0,0.0,0.0\n", "c1", "none", False),
    "short and long row of three fields": ("a,b,y\n1,2\n3,4,5\n6,7,8,9\n", "y", "none", False),
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

    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("column", ["a", "y"])
    def test_lines_over_the_field_limit_go_to_the_row_loop(self, tmp_path, column, extra):
        # the cell is at the limit for extra = 0, so only its line is over it
        limit = csv.field_size_limit()
        cell = "0." + "0" * (limit - 2 + extra) if column == "a" else "p" * (limit + extra)
        row = f"{cell},q" if column == "a" else f"1,{cell}"
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n2,p\n{row}\n")
        got, stood = _load(path, "y", "categorical")
        expected, _ = _load(path, "y", "categorical", fast=False)
        _assert_same(got, expected)
        assert not stood
        assert isinstance(got, str) == (extra > 0)

    @pytest.mark.parametrize("n_fields", [1, 2, 3, 257])
    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n", "a,b\r\n1,2\r\n", "a,b\r1,22\r", "a\n\n\n", "ab", "", "a,b\n1,234",
        "a\r\n" + "1" * (2**20 - 2) + "\r\n2\n", "a\n" + "1" * 2**20 + "\n", "a\n" + "é" * 2**20,
        # a short and a long row; each line's count wraps past q commas by 256
        # or 2**16, which only the file's total tells apart
        "a,b\n1\n1,2,3\n", "a\n" + "," * 256, "a,b\n" + "," * 257 + "\n", "," * 256 + "\r\n1",
        "," * 256 + "\n" + "," * (256 + 2**16) + "\n", "a,b\r\n\r\n1,2\r\r\n,\n",
    ])
    def test_line_stats(self, tmp_path, text, n_fields):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        lines = re.split("\r\n|\r|\n", text)
        if lines[-1] == "":
            lines.pop()
        longest = max((len(line.encode("utf-8")) for line in lines), default=0)
        even = all(line.count(",") == n_fields - 1 for line in lines if line)
        assert datasets._line_stats(path, n_fields) == (len(lines), longest, even)

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


def _labeled_files():
    """Each case above that has a label column: its name, file text and label column."""
    limit = csv.field_size_limit()
    cases = {
        **{name: case[:2] for name, case in INGEST_CASES.items()},
        **{f"bad number {i}": case[:2] for i, case in enumerate(BAD_NUMBER_CASES)},
        "feature over the field limit": (f"a,y\n2,p\n0.{'0' * (limit - 1)},q\n", "y"),
        "label over the field limit": (f"a,y\n2,p\n1,{'p' * (limit + 1)}\n", "y"),
        "blank line before a row": ("a,b,y\n1,2,p\n\n3,4,q\n", "y"),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items() if case[1] is not None]


def _assert_dropped_reads_as_categorical(path, label_column, fast):
    """The read that drops ``label_column`` gives the categorical read's
    DatasetError text, or its X and feature names without labels."""
    dropped, _ = _load(path, label_column, "none", fast)
    categorical, _ = _load(path, label_column, "categorical", fast)
    if not isinstance(categorical, str):
        categorical = LabeledDataset(categorical.X, None, categorical.feature_names)
    _assert_same(dropped, categorical)


class TestDroppedLabelColumn:
    """A label column read with label kind "none" is left out of the
    features unread: X and every error are those of a categorical read."""

    def test_dropped_column_gives_the_features_alone(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1,p,2\n3,q,4\n")
        for fast in (True, False):
            data, stood = _load(path, "y", "none", fast)
            assert stood == fast
            assert data.y is None and data.label_kind == "none"
            assert data.feature_names == ["a", "b"]
            np.testing.assert_array_equal(data.X, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "row loop"])
    @pytest.mark.parametrize("text, label_column", _labeled_files())
    def test_same_features_and_errors_as_a_categorical_read(self, tmp_path, text,
                                                            label_column, fast):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_dropped_reads_as_categorical(path, label_column, fast)

    @pytest.mark.parametrize("label_kind, passes", [("none", 1), ("categorical", 2)])
    def test_fast_path_reads_the_file_once_without_labels(self, tmp_path, label_kind, passes):
        path = tmp_path / "d.csv"
        path.write_text("a,y,b\n1,p,2\n3,q,4\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            load_csv(path, "y", label_kind)
        assert loadtxt.call_count == passes

    def test_labels_without_a_column_are_refused(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="categorical labels need a label_column"):
            load_csv(path, None, "categorical")


@settings(max_examples=200, deadline=None)
@given(_csv_files())
# a short and a long row, which the fast path once took as two full ones
@example(("c0,c1\n0.0\n0.0,0.0\n0.0,0.0\n0.0,0.0,0.0\n", "c1", "categorical"))
def test_dropped_label_column_matches_categorical_read_on_generated_files(tmp_path_factory,
                                                                          file):
    text, label_column, _ = file
    if label_column is None:
        return
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_bytes(text.encode("utf-8"))
    for fast in (True, False):
        _assert_dropped_reads_as_categorical(path, label_column, fast)


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

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_has_the_bits_of_the_masked_form(self, seed):
        """Constant columns, -0.0 and test rows outside the training range
        give the bits of ``oracles.minmax_apply``."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, size=7)
        X[:, seed % 7] = X[0, seed % 7]  # a constant column
        X[::5, 1] = -0.0
        X[3, 2] = 0.0
        _, record = minmax_scale(LabeledDataset(X))
        test = np.vstack([X, 3.0 * X - 1.0, [[-0.0] * 7]])
        for rows in (X, test):
            got, expected = record.apply_to_matrix(rows), minmax_apply(record, rows)
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_scaling_holds_one_array_of_the_data_size(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-5.0, 5.0, size=(20000, 64))
        X[:, 3] = 2.0
        _, record = minmax_scale(LabeledDataset(X))
        record.apply_to_matrix(X[:10])  # warm caches and lazy imports
        tracemalloc.start()
        try:
            record.apply_to_matrix(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, plus a few (n,) arrays
        assert peak <= 1.1 * X.nbytes + 64 * X.shape[1] * 8


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

    # 0 and negative indices are rejected, not read as columns from the end
    @pytest.mark.parametrize("index", [4, 0, -1, -2])
    def test_discard_bands_out_of_range(self, index):
        with pytest.raises(ValueError, match=rf"band index {index} out of range 1\.\.3$"):
            discard_bands(np.ones((2, 3)), [2, index])

    def test_discard_bands_with_none_or_repeated(self):
        X = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(discard_bands(X, []), X)
        np.testing.assert_array_equal(discard_bands(X, [3, 3, 1]), X[:, [1, 3]])

    def test_mask_parsing_errors(self, tmp_path):
        p = tmp_path / "mask.txt"
        p.write_text("1\nxyz\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_band_mask(p)
