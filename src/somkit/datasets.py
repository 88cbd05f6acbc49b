"""Dataset ingestion, splits, cross-validation, scaling, synthetic data.

CSV is the single ingestion format: UTF-8, mandatory header row, '.'
decimal separator. Rows with unparseable or non-finite feature values are
rejected with the offending row and column named, never silently skipped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
        if label_column is not None:
            if label_column not in header:
                raise DatasetError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
        else:
            label_idx = None
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        labels: list = []
        for row_no, row in enumerate(reader, start=1):
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
    return LabeledDataset(X, y, feature_names, label_kind)


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
