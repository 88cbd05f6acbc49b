"""Self-describing JSON model files.

One format holds an unsupervised-only map or a map plus supervised head:
format version, full config, feature dimension, row-major weights, and,
when present, the inverse covariance matrix of the mahalanobis metric, the
min-max scaling record, and the head: its kind tag, "regression" or
"classification", and each of its fields as a row-major list.

Next to each model file of 256 KiB or more, :func:`save_model` writes a
binary companion, ``<model file>.arrays``: a sequence of ``.npy`` records
holding the SHA-256 of the JSON bytes, the file's other entries as a JSON
string, and its arrays in their model shapes. :func:`load_model` builds the
model from the companion when its digest matches the file, which saves
parsing every float, and from the JSON in every other case; both go through
the same checks.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .datasets import MinMaxRecord
from .schedules import ScheduleSpec
from .som import SomConfig, WeightGrid
from .supervised import ClassificationHead, RegressionHead, _predict

FORMAT_VERSION = 1

# The arrays a companion may hold, in record order, each with the dtype that
# the JSON gives it; "entry.field" is a field of the scaling or the head.
_ARRAYS = {"weights": float, "cov_inv": float, "scaling.mins": float, "scaling.ranges": float,
           "head.values": float, "head.codes": int}
# an array entry: a JSON list, or an array from the companion
_LIST = (list, np.ndarray)
# Smallest model file that gets a companion. In a new process a smaller one
# parses in less time than hashlib takes to import for the digest, about
# 5 ms: 268 KB of JSON loaded in 10 ms against 8 ms from its companion, and
# 138 KB in 3.4-5.7 ms against 7.0 ms (best of 7 processes each).
_COMPANION_BYTES = 2**18


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
        return "none" if self.head is None else self.head.kind

    def prepare(self, X) -> np.ndarray:
        """Apply the stored feature scaling, if any."""
        X = np.asarray(X, dtype=float)
        return self.scaling.apply_to_matrix(X) if self.scaling is not None else X

    def predict(self, X) -> np.ndarray:
        if self.head is None:
            raise ValueError("model has no supervised head, nothing to predict")
        return _predict(self.grid, self.head, self.prepare(X), self.config.metric, self.cov_inv)


def _from_dict(cls, d: dict):
    """The dataclass ``cls`` from its ``asdict`` form; no entry may be missing."""
    missing = [f.name for f in fields(cls) if f.name not in d]
    if missing:
        raise ValueError(f"no {missing}")
    return cls(**{
        f.name: _from_dict(ScheduleSpec, d[f.name]) if "kinds" in f.metadata else d[f.name]
        for f in fields(cls)
    })


def _lists(record) -> dict | None:
    """Each dataclass field of ``record`` as a flat list, or None for no record."""
    if record is None:
        return None
    return {f.name: getattr(record, f.name).ravel().tolist() for f in fields(record)}


def _field(d, key: str, kinds, where: str = "model file"):
    """``d[key]``, which must exist and be an instance of ``kinds`` other than a bool."""
    if key not in d:
        raise ValueError(f"{where} has no {key!r}")
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{where}: {key!r} has the wrong type {type(value).__name__}")
    return value


def _array(values, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """JSON numbers, flat or in rows, or a companion's array, as an array of ``shape``.

    A float array takes JSON integers and floats, an int ``dtype`` integers
    only; a string or a bool is an error in either. A companion's array must
    be of the dtype's kind. Every number must fit the dtype, and a float be
    finite: JSON reads ``1e999`` as infinity.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind != np.dtype(dtype).kind:
            raise ValueError(f"model file: {key!r} must hold {np.dtype(dtype).name} numbers")
    else:
        types = set(map(type, values))
        if list in types:  # a matrix comes as a list of rows
            types = types - {list} | {type(v) for row in values if type(row) is list for v in row}
        if dtype is int and not types <= {int}:
            raise ValueError(f"model file: {key!r} must hold integers")
        if not types <= {int, float}:
            raise ValueError(f"model file: {key!r} must hold numbers")
    outside = f"model file: {key!r} holds a number outside the {np.dtype(dtype).name} range"
    try:
        array = np.asarray(values, dtype=dtype).reshape(shape)
    except OverflowError:
        raise ValueError(outside) from None
    except (TypeError, ValueError):
        raise ValueError(f"model file: {key!r} is not numbers that fill shape {shape}") from None
    if dtype is float and not np.isfinite(array).all():
        raise ValueError(outside)
    return array


def _head_from_dict(d: dict | None, shape: tuple[int, int]):
    if d is None:
        return None
    kind = _field(d, "kind", str, "head")
    if kind == "regression":
        return RegressionHead(_array(_field(d, "values", _LIST, "head"), "values", shape))
    if kind == "classification":
        class_set = _field(d, "class_set", list, "head")
        if not all(isinstance(c, (str, int, float)) for c in class_set):
            raise ValueError("model file: 'class_set' must hold strings or numbers")
        if any(isinstance(c, int) and not -(2**63) <= c < 2**63 for c in class_set):
            raise ValueError("model file: 'class_set' holds a number outside the int64 range")
        return ClassificationHead(
            _array(_field(d, "codes", _LIST, "head"), "codes", shape, int), np.array(class_set)
        )
    raise ValueError(f"unknown head kind {kind!r} in model file")


def _digest(data: bytes) -> bytes:
    import hashlib  # here, not at the top: its import costs every start-up about 5 ms

    return hashlib.sha256(data).digest()


def _companion(path: Path) -> Path:
    return path.with_name(path.name + ".arrays")


def save_model(model: SomModel, path) -> None:
    """Write the model as JSON, whose floats round-trip exactly, and, for a
    file of ``_COMPANION_BYTES`` or more, its companion; a smaller file's
    companion is removed. Two saves of one model write the same bytes.
    """
    path, grid = Path(path), model.grid
    payload = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "feature_dim": grid.feature_dim,
        "weights": grid.weights.ravel().tolist(),
        "cov_inv": None if model.cov_inv is None else np.asarray(model.cov_inv).tolist(),
        "scaling": _lists(model.scaling),
        "head": None if model.head is None else {"kind": model.head.kind, **_lists(model.head)},
    }
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    path.write_bytes(data)
    if len(data) < _COMPANION_BYTES:
        _companion(path).unlink(missing_ok=True)
        return
    arrays = {"weights": grid.weights, "cov_inv": model.cov_inv}
    for entry in ("scaling", "head"):
        record = getattr(model, entry)
        if record is not None:
            arrays.update({f"{entry}.{f.name}": getattr(record, f.name) for f in fields(record)})
    # the companion's JSON string: the payload without the arrays it holds
    meta = {key: dict(value) if isinstance(value, dict) else value
            for key, value in payload.items()}
    meta["arrays"] = [name for name in _ARRAYS if arrays.get(name) is not None]
    for name in meta["arrays"]:
        entry, _, key = name.rpartition(".")
        del (meta[entry] if entry else meta)[key]
    with open(_companion(path), "wb") as fh:
        np.save(fh, np.frombuffer(_digest(data), dtype=np.uint8))
        np.save(fh, np.array(json.dumps(meta, sort_keys=True)))
        for name in meta["arrays"]:
            np.save(fh, np.ascontiguousarray(arrays[name], dtype=_ARRAYS[name]))


def _reject_constant(name: str):
    """``json`` reads NaN, Infinity and -Infinity, which no model entry may hold."""
    raise ValueError(f"model file: non-finite number {name} is not allowed")


def _read_companion(path: Path, data: bytes) -> dict:
    """The entries of the model file ``path``, whose bytes are ``data``, from its
    companion; raises if the companion's digest is not that of ``data``."""
    with open(_companion(path), "rb") as fh:
        if np.load(fh, allow_pickle=False).tobytes() != _digest(data):
            raise ValueError("the companion was written for another model file")
        payload = json.loads(np.load(fh, allow_pickle=False).item(),
                             parse_constant=_reject_constant)
        for name in payload.pop("arrays"):
            entry, _, key = name.rpartition(".")
            (payload[entry] if entry else payload)[key] = np.load(fh, allow_pickle=False)
    return payload


def load_model(path) -> SomModel:
    """Read a model file; a missing or malformed entry raises ValueError.

    The model comes from the file's companion when the companion holds the
    digest of the file's bytes and passes every check, and from the JSON
    otherwise; both give the same model, bit for bit.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such model file: {path}")
    data = path.read_bytes()
    try:
        return _model_of(_read_companion(path, data))
    except (OSError, EOFError, ValueError, LookupError, TypeError, AttributeError):
        # no companion, a stale one, a failed check, or a damaged record, which
        # can hold anything: the JSON decides, with its own error
        pass
    # the text that Path.read_text gives, universal newlines included
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return _model_of(json.loads(text, parse_constant=_reject_constant))


def _model_of(payload) -> SomModel:
    """The model from its file's entries: JSON values, or companion arrays."""
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
    if n < 1:
        raise ValueError(f"model file: 'feature_dim' must be >= 1, got {n}")
    shape = (config.n_row, config.n_column)
    weights = _array(_field(payload, "weights", _LIST), "weights", (*shape, n))
    cov_inv = _field(payload, "cov_inv", (*_LIST, type(None)))
    if cov_inv is not None:
        cov_inv = _array(cov_inv, "cov_inv", (n, n))
    scaling = _field(payload, "scaling", (dict, type(None)))
    if scaling is not None:
        scaling = MinMaxRecord(
            _array(_field(scaling, "mins", _LIST, "scaling"), "mins", (n,)),
            _array(_field(scaling, "ranges", _LIST, "scaling"), "ranges", (n,)),
        )
    head = _head_from_dict(_field(payload, "head", (dict, type(None))), shape)
    return SomModel(config, WeightGrid(weights), cov_inv, scaling, head)
