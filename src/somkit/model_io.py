"""Self-describing JSON model files.

One format holds an unsupervised-only map or a map plus supervised head:
format version, full config, feature dimension, row-major weights, and,
when present, the inverse covariance matrix of the mahalanobis metric, the
min-max scaling record, and the head: its kind tag, "regression" or
"classification", and each of its fields as a row-major list.

Next to each model file of 256 KiB or more, :func:`save_model` writes a
binary companion, ``<model file>.arrays``: a sequence of ``.npy`` records.
Record 0 is the SHA-256 of the JSON bytes followed by every companion byte
after record 0; record 1 is the model file's JSON with each float array
replaced by a marker, and the float arrays follow, one record for each
marker, in the order of the markers. :func:`load_model` builds the model
from the companion when its digest matches both files, which saves parsing
every float, and from the JSON in every other case; both go through the
same checks.
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


def _digest(data: bytes, rest) -> bytes:
    """The SHA-256 of a model file's bytes ``data`` followed by ``rest``."""
    import hashlib  # here, not at the top: its import costs every start-up about 5 ms

    digest = hashlib.sha256(data)
    digest.update(rest)
    return digest.digest()


def _companion(path: Path) -> Path:
    return path.with_name(path.name + ".arrays")


def save_model(model: SomModel, path) -> None:
    """Write the model as JSON, whose floats round-trip exactly, and, for a
    file of ``_COMPANION_BYTES`` or more, its companion; a smaller file's
    companion is removed. Two saves of one model write the same bytes.

    Both files encode one payload, whose arrays the JSON writes as lists:
    flat, but for the inverse covariance's rows. The companion's JSON moves
    each float array into a record of its own.
    """
    path, grid, head = Path(path), model.grid, model.head
    payload = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "feature_dim": grid.feature_dim,
        "weights": grid.weights.ravel(),
        "cov_inv": model.cov_inv,
        "scaling": None if model.scaling is None else vars(model.scaling),
        "head": None if head is None else {
            "kind": head.kind, **{f.name: getattr(head, f.name).ravel() for f in fields(head)}},
    }
    data = json.dumps(payload, sort_keys=True, default=np.ndarray.tolist).encode("utf-8")
    path.write_bytes(data)
    if len(data) < _COMPANION_BYTES:
        _companion(path).unlink(missing_ok=True)
        return
    arrays = []

    def marked(array: np.ndarray):
        # integers and class names stay in the JSON, which reads them as it
        # reads the model file's
        if array.dtype.kind != "f":
            return array.tolist()
        arrays.append(array)
        return {".npy": None}

    rest = io.BytesIO()
    np.save(rest, np.array(json.dumps(payload, sort_keys=True, default=marked)))
    for array in arrays:
        np.save(rest, array)
    rest = rest.getbuffer()
    with open(_companion(path), "wb") as fh:
        np.save(fh, np.frombuffer(_digest(data, rest), dtype=np.uint8))
        fh.write(rest)


def _reject_constant(name: str):
    """``json`` reads NaN, Infinity and -Infinity, which no model entry may hold."""
    raise ValueError(f"model file: non-finite number {name} is not allowed")


def _read_companion(path: Path, data: bytes) -> dict:
    """The entries of the model file ``path``, whose bytes are ``data``, from its
    companion; raises if the companion's digest is not that of ``data`` and
    the companion's other records."""
    with open(_companion(path), "rb") as fh:
        digest = np.load(fh, allow_pickle=False).tobytes()
        start = fh.tell()
        if digest != _digest(data, fh.read()):
            raise ValueError("the companion was written for another model file, or is damaged")
        fh.seek(start)
        # A marker is an object without objects inside, so the decoder closes
        # the markers in the order of their text, which is the order in which
        # the encoder wrote them and their records: each takes the next record.
        return json.loads(np.load(fh, allow_pickle=False).item(), parse_constant=_reject_constant,
                          object_hook=lambda d: np.load(fh, allow_pickle=False)
                          if d == {".npy": None} else d)


def load_model(path) -> SomModel:
    """Read a model file; a missing or malformed entry raises ValueError.

    The model comes from the file's companion when the companion's digest
    is that of the file's bytes followed by the companion's own after it,
    and its entries pass every check. It comes from the JSON otherwise: with
    no companion, a stale, damaged or older-layout one, until the next save
    writes a new one. Both give the same model, bit for bit.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such model file: {path}")
    data = path.read_bytes()
    try:
        return _model_of(_read_companion(path, data))
    except Exception:
        # no companion, a stale or damaged one, whose record headers numpy
        # may fail to parse in any way, or a failed check: the JSON decides,
        # with its own error
        pass
    # the text that Path.read_text gives, universal newlines included
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return _model_of(json.loads(text, parse_constant=_reject_constant))


def _model_of(payload) -> SomModel:
    """The model from its file's entries: JSON values, or companion arrays."""
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
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
        if (scaling.ranges < 0).any():
            raise ValueError("model file: 'ranges' holds a negative number")
    head = _head_from_dict(_field(payload, "head", (dict, type(None))), shape)
    return SomModel(config, WeightGrid(weights), cov_inv, scaling, head)
