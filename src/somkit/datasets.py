"""Dataset ingestion, splits, cross-validation, scaling, synthetic data.

CSV is the single ingestion format: UTF-8, mandatory header row, '.'
decimal separator. Rows with unparseable or non-finite feature values are
rejected with the offending row and column named, never silently skipped.

:func:`load_csv` reads a file column-wise with numpy's C text reader
(``np.loadtxt``) where it can: this fast path stands only where its checks
show that the row-by-row ``csv`` loop would return the same arrays. numpy
reads every column, so it rejects a row of another width than the first,
and the table must have the header's width and one row per line. The loop
is authoritative. It reads every other file, malformed ones included, and
words every error.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

LABEL_KINDS = ("none", "continuous", "categorical")
# the dtype of each kind of labels that is read
_LABEL_DTYPES = {"continuous": float, "categorical": str}
# numpy's reader options for a headed CSV file, as csv reads it
_CSV_OPTIONS = dict(delimiter=",", skiprows=1, comments=None, quotechar='"', encoding="utf-8")


class DatasetError(ValueError):
    """A data file is missing, malformed, or empty."""


@dataclass
class LabeledDataset:
    """Feature matrix with an optional continuous or categorical label vector."""

    X: np.ndarray
    y: np.ndarray | None = None
    feature_names: list[str] | None = None
    label_kind: str = "none"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {self.X.shape}")
        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"label_kind must be one of {LABEL_KINDS}")
        if (self.label_kind == "none") != (self.y is None):
            raise ValueError("y must be present exactly when label_kind is not 'none'")
        if self.y is not None:
            self.y = np.asarray(self.y)
            if self.y.shape != (self.X.shape[0],):
                raise ValueError(
                    f"y has shape {self.y.shape}, expected ({self.X.shape[0]},)"
                )

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        return LabeledDataset(
            self.X[indices],
            None if self.y is None else self.y[indices],
            self.feature_names,
            self.label_kind,
        )


def load_csv(path, label_column: str | None = None, label_kind: str = "none") -> LabeledDataset:
    """Load a headed CSV file into a :class:`LabeledDataset`.

    All columns except ``label_column`` are parsed as float features.
    Continuous labels are parsed as float; categorical labels stay strings;
    under label kind "none" the label column is dropped, whatever text it
    holds, and y is None.
    Row numbers in error messages are 1-based data rows (header excluded).
    """
    if label_kind not in LABEL_KINDS:
        raise ValueError(f"label_kind must be one of {LABEL_KINDS}")
    if label_column is None and label_kind != "none":
        raise ValueError(f"{label_kind} labels need a label_column")
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such data file: {path}")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty, expected a header row")
        except csv.Error as err:  # a cell over csv.field_size_limit()
            raise DatasetError(f"{path}: header row: {err}") from None
        if label_column is not None and label_column not in header:
            raise DatasetError(f"{path}: no column named {label_column!r} in header")
        label_idx = None if label_column is None else header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        if not feature_names:
            raise DatasetError(f"{path}: no feature columns in header")
        columns = None
        if reader.line_num == 1:  # numpy's reader skips one line as the header
            columns = _read_columns(path, len(header), label_idx, label_kind)
        X, y = columns or _read_rows(path, reader, header, label_idx, label_kind)
    return LabeledDataset(X, y, feature_names, label_kind)


def _line_stats(path: Path) -> tuple[int, int]:
    """Lines and the bytes of the longest line in the file at ``path``.

    A line ends at "\\n", "\\r" or "\\r\\n", where csv and numpy's reader
    both end one; a last line without an end counts too. Each block read
    runs on to the next "\\n", so no "\\r\\n" spans two blocks; a file
    whose lines end by "\\r" alone is read as one block.
    """
    lines = longest = 0
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20) + fh.readline(), b""):
            data = np.frombuffer(block, np.uint8)
            line_end = data == 10
            if b"\r" in block:
                cr = data == 13
                # a "\r\n" ends one line, not one and an empty one
                lines -= np.count_nonzero(cr[:-1] & line_end[1:])
                line_end |= cr
            ends = np.flatnonzero(line_end)
            if not ends.size or ends[-1] < len(data) - 1:  # a last line without an end
                ends = np.append(ends, len(data))
            lines += ends.size
            longest = max(longest, int(np.diff(ends, prepend=-1).max()) - 1)
    return int(lines), longest


def _zero(cell: str) -> float:
    """A label cell that the fast path reads only for the width of its row."""
    return 0.0


def _read_columns(path: Path, n_fields: int, label_idx: int | None, label_kind: str):
    """(X, y) read column-wise by numpy's C reader, or None for the row loop.

    One pass reads every column, a label column that is not continuous
    through :func:`_zero`, so the reader raises on a row whose width is not
    the first row's. The reader skips blank lines, accepts non-finite
    numbers and has no field size limit. So its table stands only when it
    has the header's ``n_fields`` columns and one row per line after the
    header, no line is longer than ``csv.field_size_limit()`` (so no cell
    is), and every number is finite. A quoted cell may hold a comma: the
    reader then parses it as one field, as csv does. Categorical labels take
    a second pass as text. Any other file, and any failure of the reader, is
    left to :func:`_read_rows`, which words every error.
    """
    lines, longest = _line_stats(path)
    if lines < 2 or longest > csv.field_size_limit():
        return None
    features = [i for i in range(n_fields) if i != label_idx]
    unread = None if label_kind == "continuous" or label_idx is None else {label_idx: _zero}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # blank lines or no data; the shape decides
            table = np.loadtxt(path, ndmin=2, converters=unread, **_CSV_OPTIONS)
            if table.shape != (lines - 1, n_fields) or not np.isfinite(table).all():
                return None
            y = None if label_kind == "none" else table[:, label_idx]
            if label_kind == "categorical":
                y = np.loadtxt(path, usecols=label_idx, ndmin=1, dtype=str, **_CSV_OPTIONS)
    except Exception:  # whatever the reader cannot parse, the row loop decides and words
        return None
    # the label last or absent leaves the features a view of the table
    n = len(features)
    return (table[:, :n] if features[-1] == n - 1 else table[:, features]), y


def _numbered_rows(path: Path, reader):
    """The rows of ``reader`` numbered from 1, with a ``csv.Error`` (a cell
    over ``csv.field_size_limit()``) raised as a DatasetError naming the row."""
    row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            yield row_no, row
    except csv.Error as err:
        raise DatasetError(f"{path}: row {row_no + 1}: {err}") from None


def _numbers(path: Path, row_no: int, header: list[str], row: list[str], columns) -> list:
    """The cells of ``row`` in ``columns`` as finite floats; the first that is
    not one raises a DatasetError naming its row and column."""
    values = []
    for i in columns:
        try:
            value = float(row[i])
        except ValueError:
            raise DatasetError(f"{path}: row {row_no}, column {header[i]!r}: "
                               f"cannot parse {row[i]!r} as a number")
        if not math.isfinite(value):
            raise DatasetError(f"{path}: row {row_no}, column {header[i]!r}: "
                               f"non-finite value {row[i]!r}")
        values.append(value)
    return values


def _read_rows(path: Path, reader, header: list[str], label_idx: int | None, label_kind: str):
    """(X, y) from the data rows of ``reader``, one cell at a time.

    This is the authoritative reader: it raises a :class:`DatasetError`
    naming the row and column of the first malformed cell.
    """
    features = [i for i in range(len(header)) if i != label_idx]
    rows: list[list[float]] = []
    labels: list = []
    for row_no, row in _numbered_rows(path, reader):
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
            )
        rows.append(_numbers(path, row_no, header, row, features))
        if label_kind == "continuous":
            labels += _numbers(path, row_no, header, row, [label_idx])
        elif label_kind == "categorical":
            labels.append(row[label_idx])

    if not rows:
        raise DatasetError(f"{path}: no data rows")
    y = None if label_kind == "none" else np.array(labels, dtype=_LABEL_DTYPES[label_kind])
    return np.array(rows, dtype=float), y


def save_csv(data: LabeledDataset, path, label_column: str = "label") -> None:
    """Write a dataset back to CSV with full float precision."""
    path = Path(path)
    names = data.feature_names or [f"f{i}" for i in range(data.n_features)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if data.y is None:
            writer.writerow(names)
            for row in data.X:
                writer.writerow([repr(v) for v in row.tolist()])
        else:
            writer.writerow(names + [label_column])
            for row, label in zip(data.X, data.y):
                cells = [repr(v) for v in row.tolist()]
                if data.label_kind == "continuous":
                    cells.append(repr(float(label)))
                else:
                    cells.append(str(label))
                writer.writerow(cells)


def train_test_split(
    data: LabeledDataset, test_fraction: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint random (train, test) partition; test gets round(N * fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = data.n_samples
    if n < 2:
        raise ValueError("splitting needs at least 2 datapoints")
    n_test = min(max(round(n * test_fraction), 1), n - 1)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return data.subset(train_idx), data.subset(test_idx)


def k_fold(
    data: LabeledDataset, k: int, rng: np.random.Generator
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """k random folds; every datapoint lands in exactly one test fold.

    Fold sizes differ by at most one, the first ``N mod k`` folds being the
    larger ones.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = data.n_samples
    if n < k:
        raise ValueError(f"need at least k={k} datapoints, got {n}")
    perm = rng.permutation(n)
    pairs = []
    for chunk in np.array_split(perm, k):
        test_idx = np.sort(chunk)
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train_idx = np.flatnonzero(mask)
        pairs.append((data.subset(train_idx), data.subset(test_idx)))
    return pairs


@dataclass
class MinMaxRecord:
    """Per-feature offsets and ranges frozen from a training set."""

    mins: np.ndarray
    ranges: np.ndarray

    def apply(self, data: LabeledDataset) -> LabeledDataset:
        X = self.apply_to_matrix(data.X)
        return LabeledDataset(X, data.y, data.feature_names, data.label_kind)

    def apply_to_matrix(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.mins):
            raise ValueError(f"data has shape {X.shape}, "
                             f"the min-max scaling expects dimension {len(self.mins)}")
        # elementwise into one array: the bits of (X - mins) / ranges, with one
        # temporary of the data's size
        ok = self.ranges > 0
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.subtract(X, self.mins)
            np.divide(scaled, self.ranges, out=scaled, where=ok)
        scaled[:, ~ok] = 0.0
        # a number past the float range from its minimum, or from it in units
        # of its range, scales to an infinity
        far = ~(np.isfinite(scaled.min(axis=0, initial=0.0))
                & np.isfinite(scaled.max(axis=0, initial=0.0)))
        if far.any():
            j = far.argmax()
            raise ValueError(f"feature {j} holds a number too far outside its min-max scaling "
                             f"(minimum {self.mins[j]:g}, range {self.ranges[j]:g}); "
                             "scale it down")
        return scaled


def feature_bounds(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's minimum and maximum; a feature whose maximum minus its
    minimum is past the float range raises a ValueError."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(hi - lo))
    if wide.size:
        j = wide[0]
        raise ValueError(f"feature {j} from {lo[j]:g} to {hi[j]:g} spans more than the float "
                         "range; scale it down")
    return lo, hi


def minmax_scale(data: LabeledDataset) -> tuple[LabeledDataset, MinMaxRecord]:
    """Map each feature to [0, 1] by its range; constant features map to 0."""
    if data.n_samples == 0:
        raise ValueError("scaling needs a nonempty dataset")
    mins, maxs = feature_bounds(data.X)
    ranges = maxs - mins
    record = MinMaxRecord(mins, ranges)
    return record.apply(data), record


def synthetic_regression(
    n_samples: int, noise: float, rng: np.random.Generator
) -> LabeledDataset:
    """Uniform points in [0, 1]^2 with label x0 + x1 plus gaussian noise."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    X = rng.uniform(0.0, 1.0, size=(n_samples, 2))
    y = X[:, 0] + X[:, 1]
    if noise > 0:
        y = y + rng.normal(0.0, noise, size=n_samples)
    return LabeledDataset(X, y, ["x0", "x1"], "continuous")


def synthetic_blobs(
    n_samples: int, n_classes: int, separation: float, rng: np.random.Generator
) -> LabeledDataset:
    """Unit-variance isotropic gaussian clusters with centers ``separation`` apart.

    Centers sit on a square lattice with the given spacing; class sizes are
    equal up to remainder, the first classes taking the extra points.
    """
    if n_samples < 1 or n_classes < 1:
        raise ValueError("need n_samples >= 1 and n_classes >= 1")
    if n_samples < n_classes:
        raise ValueError("need at least one datapoint per class")
    if separation <= 0:
        raise ValueError("separation must be positive")
    side = math.ceil(math.sqrt(n_classes))
    centers = np.array(
        [(separation * (i // side), separation * (i % side)) for i in range(n_classes)]
    )
    base, extra = divmod(n_samples, n_classes)
    X_parts = []
    y_parts = []
    for cls in range(n_classes):
        count = base + (1 if cls < extra else 0)
        X_parts.append(centers[cls] + rng.normal(0.0, 1.0, size=(count, 2)))
        y_parts.append(np.full(count, cls))
    return LabeledDataset(
        np.vstack(X_parts), np.concatenate(y_parts), ["x0", "x1"], "categorical"
    )


def default_band_mask_path() -> Path:
    """Path of the bundled 1-based discard list for 224-band AVIRIS scenes."""
    return Path(resources.files("somkit") / "data" / "salinas_discard_bands.txt")


def load_band_mask(path) -> list[int]:
    """Read a newline-separated list of 1-based band indices to discard."""
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"no such band-mask file: {path}")
    indices = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx = int(line)
        except ValueError:
            raise DatasetError(f"{path}: line {line_no}: not a band index: {line!r}")
        if idx < 1:
            raise DatasetError(f"{path}: line {line_no}: band indices are 1-based")
        indices.append(idx)
    return sorted(set(indices))


def discard_bands(X, indices: list[int]) -> np.ndarray:
    """Drop 1-based feature columns named in ``indices``."""
    X = np.asarray(X, dtype=float)
    for i in indices:
        if not 1 <= i <= X.shape[1]:
            raise ValueError(f"band index {i} out of range 1..{X.shape[1]}")
    return np.delete(X, np.asarray(indices, dtype=int) - 1, axis=1)
