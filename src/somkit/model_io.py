"""Self-describing JSON model files.

One format holds an unsupervised-only map or a map plus supervised head:
format version, full config, feature dimension, row-major weights, and,
when present, the inverse covariance matrix of the mahalanobis metric, the
min-max scaling record, and the head (kind tag "regression" or
"classification", classification including its class set).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .datasets import MinMaxRecord
from .schedules import ScheduleSpec
from .som import SomConfig, WeightGrid
from .supervised import (
    ClassificationHead,
    RegressionHead,
    predict_classification,
    predict_regression,
)

FORMAT_VERSION = 1


@dataclass
class SomModel:
    """A trained map plus everything prediction needs."""

    config: SomConfig
    grid: WeightGrid
    cov_inv: np.ndarray | None = None
    scaling: MinMaxRecord | None = None
    head: RegressionHead | ClassificationHead | None = None

    @property
    def head_kind(self) -> str:
        if self.head is None:
            return "none"
        return "regression" if isinstance(self.head, RegressionHead) else "classification"

    def prepare(self, X) -> np.ndarray:
        """Apply the stored feature scaling, if any."""
        X = np.asarray(X, dtype=float)
        return self.scaling.apply_to_matrix(X) if self.scaling is not None else X

    def predict(self, X) -> np.ndarray:
        if self.head is None:
            raise ValueError("model has no supervised head, nothing to predict")
        X = self.prepare(X)
        if isinstance(self.head, RegressionHead):
            return predict_regression(self.grid, self.head, X, self.config.metric, self.cov_inv)
        return predict_classification(self.grid, self.head, X, self.config.metric, self.cov_inv)


def _from_dict(cls, d: dict):
    """The dataclass ``cls`` from its ``asdict`` form; no entry may be missing."""
    missing = [f.name for f in fields(cls) if f.name not in d]
    if missing:
        raise ValueError(f"no {missing}")
    return cls(**{
        f.name: _from_dict(ScheduleSpec, d[f.name]) if "kinds" in f.metadata else d[f.name]
        for f in fields(cls)
    })


def _head_to_dict(head) -> dict | None:
    if head is None:
        return None
    if isinstance(head, RegressionHead):
        return {"kind": "regression", "values": head.values.ravel().tolist()}
    return {
        "kind": "classification",
        "codes": head.codes.ravel().tolist(),
        "class_set": head.class_set.tolist(),
    }


def _field(d, key: str, kinds, where: str = "model file"):
    """``d[key]``, which must exist and be an instance of ``kinds`` other than a bool."""
    if key not in d:
        raise ValueError(f"{where} has no {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where}: {key!r} has the wrong type {type(value).__name__}")
    return value


def _array(values: list, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """JSON numbers, flat or in rows, as an array of ``shape``.

    A float array takes JSON integers and floats, an int ``dtype`` integers
    only; a string or a bool is an error in either.
    """
    types = set(map(type, values))
    if list in types:  # a matrix comes as a list of rows
        types = types - {list} | {type(v) for row in values if type(row) is list for v in row}
    if dtype is int and not types <= {int}:
        raise ValueError(f"model file: {key!r} must hold integers")
    if not types <= {int, float}:
        raise ValueError(f"model file: {key!r} must hold numbers")
    try:
        return np.array(values, dtype=dtype).reshape(shape)
    except (TypeError, ValueError):
        raise ValueError(f"model file: {key!r} is not numbers that fill shape {shape}") from None


def _head_from_dict(d: dict | None, shape: tuple[int, int]):
    if d is None:
        return None
    kind = _field(d, "kind", str, "head")
    if kind == "regression":
        return RegressionHead(_array(_field(d, "values", list, "head"), "values", shape))
    if kind == "classification":
        return ClassificationHead(
            _array(_field(d, "codes", list, "head"), "codes", shape, int),
            np.array(_field(d, "class_set", list, "head")),
        )
    raise ValueError(f"unknown head kind {kind!r} in model file")


def save_model(model: SomModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly."""
    grid = model.grid
    payload = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "feature_dim": grid.feature_dim,
        "weights": grid.weights.ravel().tolist(),
        "cov_inv": None if model.cov_inv is None else np.asarray(model.cov_inv).tolist(),
        "scaling": None
        if model.scaling is None
        else {
            "mins": model.scaling.mins.tolist(),
            "ranges": model.scaling.ranges.tolist(),
        },
        "head": _head_to_dict(model.head),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _reject_constant(name: str):
    """``json`` reads NaN, Infinity and -Infinity, which no model entry may hold."""
    raise ValueError(f"model file: non-finite number {name} is not allowed")


def load_model(path) -> SomModel:
    """Read a model file; a missing or malformed entry raises ValueError."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such model file: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    config = _field(payload, "config", dict)
    try:
        config = _from_dict(SomConfig, config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file: malformed config: {exc}") from None
    n = _field(payload, "feature_dim", int)
    shape = (config.n_row, config.n_column)
    weights = _array(_field(payload, "weights", list), "weights", (*shape, n))
    cov_inv = _field(payload, "cov_inv", (list, type(None)))
    if cov_inv is not None:
        cov_inv = _array(cov_inv, "cov_inv", (n, n))
    scaling = _field(payload, "scaling", (dict, type(None)))
    if scaling is not None:
        scaling = MinMaxRecord(
            _array(_field(scaling, "mins", list, "scaling"), "mins", (n,)),
            _array(_field(scaling, "ranges", list, "scaling"), "ranges", (n,)),
        )
    head = _head_from_dict(_field(payload, "head", (dict, type(None))), shape)
    return SomModel(config, WeightGrid(weights), cov_inv, scaling, head)
