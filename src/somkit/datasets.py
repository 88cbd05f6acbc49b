"""Dataset ingestion, splits, cross-validation, scaling, synthetic data.

CSV is the single ingestion format: UTF-8, mandatory header row, '.'
decimal separator. Rows with unparseable or non-finite feature values are
rejected with the offending row and column named, never silently skipped.

:func:`load_csv` reads a file column-wise with numpy's C text reader
(``np.loadtxt``) where it can: this fast path stands only where its checks
show that the row-by-row ``csv`` loop would return the same arrays. The
loop is authoritative. It reads every other file, malformed ones included,
and words every error.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

LABEL_KINDS = ("none", "continuous", "categorical")


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
    Continuous labels are parsed as float; categorical labels stay strings.
    Row numbers in error messages are 1-based data rows (header excluded).
    """
    if label_kind not in LABEL_KINDS:
        raise ValueError(f"label_kind must be one of {LABEL_KINDS}")
    if (label_column is None) != (label_kind == "none"):
        raise ValueError("label_column must be given exactly when label_kind is not 'none'")
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
        if label_column is not None:
            if label_column not in header:
                raise DatasetError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
        else:
            label_idx = None
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        if not feature_names:
            raise DatasetError(f"{path}: no feature columns in header")
        columns = None
        if reader.line_num == 1:  # numpy's reader skips one line as the header
            columns = _read_columns(path, len(header), label_idx, label_kind)
        X, y = columns or _read_rows(path, reader, header, label_idx, label_kind)
    return LabeledDataset(X, y, feature_names, label_kind)


def _line_stats(path: Path) -> tuple[int, int, int]:
    """Lines, commas and the bytes of the longest line in the file at ``path``.

    A line ends at "\\n", "\\r" or "\\r\\n", where csv and numpy's reader
    both end one; a last line without an end counts too.
    """
    lines = commas = longest = 0
    last = b"\n"  # the byte before the current block
    start = offset = 0  # file offsets of the current line and block
    with path.open("rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            data = np.frombuffer(block, np.uint8)
            cr = data == 13
            ends = np.flatnonzero(cr | (data == 10))
            lines += ends.size
            if last == b"\r" and block[:1] == b"\n":
                lines -= 1
            if cr.any():
                lines -= np.count_nonzero(cr[:-1] & (data[1:] == 10))
            if ends.size:
                gaps = np.diff(ends, prepend=start - offset - 1) - 1
                longest = max(longest, int(gaps.max()))
                start = offset + int(ends[-1]) + 1
            commas += np.count_nonzero(data == 44)
            last = block[-1:]
            offset += len(block)
    longest = max(longest, offset - start)
    return int(lines) + (last not in (b"\n", b"\r")), int(commas), longest


def _read_columns(path: Path, n_fields: int, label_idx: int | None, label_kind: str):
    """(X, y) read column-wise by numpy's C reader, or None for the row loop.

    The reader skips blank lines, ignores fields beyond ``usecols``,
    accepts non-finite numbers and has no field size limit, so its result
    stands only when it has one row per line after the header, the file has
    ``n_fields - 1`` commas on every line (a short row makes the reader
    raise, so no line has more, and no quoted cell holds one), no line is
    longer than ``csv.field_size_limit()`` (so no cell is), and every number
    is finite. Any other file, and any failure of the reader, is left to
    :func:`_read_rows`, which words every error.
    """
    lines, commas, longest = _line_stats(path)
    features = [i for i in range(n_fields) if i != label_idx]
    if (lines < 2 or not features or commas != lines * (n_fields - 1)
            or longest > csv.field_size_limit()):
        return None
    options = dict(delimiter=",", skiprows=1, comments=None, quotechar='"', encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # blank lines or no data; the counts decide
            X = np.loadtxt(path, usecols=features, ndmin=2, **options)
            if X.shape[0] != lines - 1 or not np.isfinite(X).all():
                return None
            if label_idx is None:
                return X, None
            y = np.loadtxt(path, usecols=label_idx, ndmin=1, **options,
                           dtype=float if label_kind == "continuous" else str)
    except Exception:  # whatever the reader cannot parse, the row loop decides and words
        return None
    if y.shape != X.shape[:1] or y.dtype == float and not np.isfinite(y).all():
        return None
    return X, y


def _numbered_rows(path: Path, reader):
    """The rows of ``reader`` numbered from 1, with a ``csv.Error`` (a cell
    over ``csv.field_size_limit()``) raised as a DatasetError naming the row."""
    row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            yield row_no, row
    except csv.Error as err:
        raise DatasetError(f"{path}: row {row_no + 1}: {err}") from None


def _read_rows(path: Path, reader, header: list[str], label_idx: int | None, label_kind: str):
    """(X, y) from the data rows of ``reader``, one cell at a time.

    This is the authoritative reader: it raises a :class:`DatasetError`
    naming the row and column of the first malformed cell.
    """
    label_column = None if label_idx is None else header[label_idx]
    rows: list[list[float]] = []
    labels: list = []
    for row_no, row in _numbered_rows(path, reader):
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: row {row_no} has {len(row)} fields, expected {len(header)}"
            )
        feats = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[i]!r}: "
                    f"cannot parse {cell!r} as a number"
                )
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[i]!r}: "
                    f"non-finite value {cell!r}"
                )
            feats.append(value)
        rows.append(feats)
        if label_idx is not None:
            cell = row[label_idx]
            if label_kind == "continuous":
                try:
                    label = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"{path}: row {row_no}, column {label_column!r}: "
                        f"cannot parse {cell!r} as a number"
                    )
                if not math.isfinite(label):
                    raise DatasetError(
                        f"{path}: row {row_no}, column {label_column!r}: "
                        f"non-finite value {cell!r}"
                    )
                labels.append(label)
            else:
                labels.append(cell)

    if not rows:
        raise DatasetError(f"{path}: no data rows")
    X = np.array(rows, dtype=float)
    y = None
    if label_kind == "continuous":
        y = np.array(labels, dtype=float)
    elif label_kind == "categorical":
        y = np.array(labels)
    return X, y


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
        scaled = np.zeros_like(X)
        ok = self.ranges > 0
        scaled[:, ok] = (X[:, ok] - self.mins[ok]) / self.ranges[ok]
        return scaled


def minmax_scale(data: LabeledDataset) -> tuple[LabeledDataset, MinMaxRecord]:
    """Map each feature to [0, 1] by its range; constant features map to 0."""
    if data.n_samples == 0:
        raise ValueError("scaling needs a nonempty dataset")
    mins = data.X.min(axis=0)
    ranges = data.X.max(axis=0) - mins
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
    zero_based = [i - 1 for i in indices]
    if zero_based and max(zero_based) >= X.shape[1]:
        raise ValueError(
            f"band index {max(indices)} out of range for {X.shape[1]} features"
        )
    keep = [i for i in range(X.shape[1]) if i not in set(zero_based)]
    return X[:, keep]
