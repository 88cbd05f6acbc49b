import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import somkit.model_io
from somkit.datasets import MinMaxRecord, synthetic_blobs, synthetic_regression
from somkit.model_io import SomModel, _model_of, _read_companion, load_model, save_model
from somkit.som import SomConfig, fit_unsupervised
from somkit.supervised import fit_classifier, fit_regressor


DATA = Path(__file__).parent / "data"


def tiny_config(**kw):
    params = dict(n_row=4, n_column=4, n_iter_unsupervised=60, n_iter_supervised=80)
    params.update(kw)
    return SomConfig(**params)


def assert_roundtrip(model, path):
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.grid.weights, model.grid.weights)
    assert back.config == model.config
    assert back.head_kind == model.head_kind
    return back


class TestRoundTrip:
    def test_unsupervised_only(self, tmp_path):
        data = synthetic_regression(50, 0.1, np.random.default_rng(0))
        cfg = tiny_config()
        grid, cov = fit_unsupervised(data.X, cfg, np.random.default_rng(1))
        back = assert_roundtrip(SomModel(cfg, grid), tmp_path / "m.json")
        assert back.cov_inv is None and back.scaling is None and back.head is None

    def test_regression_head_and_predictions(self, tmp_path):
        data = synthetic_regression(60, 0.05, np.random.default_rng(2))
        cfg = tiny_config()
        grid, _ = fit_unsupervised(data.X, cfg, np.random.default_rng(3))
        head = fit_regressor(grid, data.X, data.y, cfg, np.random.default_rng(4))
        model = SomModel(cfg, grid, head=head)
        back = assert_roundtrip(model, tmp_path / "m.json")
        np.testing.assert_array_equal(back.head.values, head.values)
        np.testing.assert_array_equal(back.predict(data.X), model.predict(data.X))

    def test_classification_head_with_string_classes(self, tmp_path):
        data = synthetic_blobs(60, 3, 10.0, np.random.default_rng(5))
        y = np.array(["cls-%d" % v for v in data.y])
        cfg = tiny_config()
        grid, _ = fit_unsupervised(data.X, cfg, np.random.default_rng(6))
        head = fit_classifier(grid, data.X, y, cfg, np.random.default_rng(7))
        model = SomModel(cfg, grid, head=head)
        back = assert_roundtrip(model, tmp_path / "m.json")
        assert back.head.class_set.tolist() == head.class_set.tolist()
        np.testing.assert_array_equal(back.predict(data.X), model.predict(data.X))

    def test_mahalanobis_model_keeps_cov_inv(self, tmp_path):
        data = synthetic_regression(50, 0.05, np.random.default_rng(8))
        cfg = tiny_config(metric="mahalanobis")
        grid, cov_inv = fit_unsupervised(data.X, cfg, np.random.default_rng(9))
        head = fit_regressor(grid, data.X, data.y, cfg, np.random.default_rng(10), cov_inv)
        model = SomModel(cfg, grid, cov_inv=cov_inv, head=head)
        back = assert_roundtrip(model, tmp_path / "m.json")
        np.testing.assert_array_equal(back.cov_inv, cov_inv)
        np.testing.assert_array_equal(back.predict(data.X), model.predict(data.X))

    def test_scaling_record_survives(self, tmp_path):
        cfg = tiny_config()
        grid, _ = fit_unsupervised(
            np.random.default_rng(11).uniform(size=(30, 2)), cfg, np.random.default_rng(11)
        )
        scaling = MinMaxRecord(np.array([1.0, 2.0]), np.array([3.0, 0.0]))
        model = SomModel(cfg, grid, scaling=scaling)
        back = assert_roundtrip(model, tmp_path / "m.json")
        np.testing.assert_array_equal(back.scaling.mins, scaling.mins)
        np.testing.assert_array_equal(back.scaling.ranges, scaling.ranges)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.json")

    def test_wrong_version(self, tmp_path):
        data = synthetic_regression(30, 0.1, np.random.default_rng(0))
        cfg = tiny_config()
        grid, _ = fit_unsupervised(data.X, cfg, np.random.default_rng(0))
        path = tmp_path / "m.json"
        save_model(SomModel(cfg, grid), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    def test_predict_without_head(self, tmp_path):
        data = synthetic_regression(30, 0.1, np.random.default_rng(1))
        cfg = tiny_config()
        grid, _ = fit_unsupervised(data.X, cfg, np.random.default_rng(1))
        model = SomModel(cfg, grid)
        with pytest.raises(ValueError, match="no supervised head"):
            model.predict(data.X)


def companion_of(path):
    return path.with_name(path.name + ".arrays")


def write_signed_companion(path, records):
    """Write ``records`` as the companion of the model file ``path``, led by
    the SHA-256 of the file's bytes followed by the records' bytes."""
    rest = io.BytesIO()
    for record in records:
        np.save(rest, record)
    digest = hashlib.sha256(path.read_bytes() + rest.getvalue()).digest()
    with open(companion_of(path), "wb") as fh:
        np.save(fh, np.frombuffer(digest, dtype=np.uint8))
        fh.write(rest.getvalue())


def from_companion(path):
    """The model built from ``path``'s companion alone; raises if it cannot be."""
    return _model_of(_read_companion(path, path.read_bytes()))


def from_json(path, tmp_path):
    """The model loaded from a copy of the JSON file ``path`` without a companion."""
    copy = tmp_path / "json-only" / path.name
    copy.parent.mkdir(exist_ok=True)
    shutil.copyfile(path, copy)
    return load_model(copy)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_model(a, b):
    """Equal configs, and arrays of the same dtypes, shapes and bits."""
    assert a.config == b.config and a.head_kind == b.head_kind
    assert _same_bits(a.grid.weights, b.grid.weights)
    assert (a.cov_inv is None) == (b.cov_inv is None)
    if a.cov_inv is not None:
        assert _same_bits(a.cov_inv, b.cov_inv)
    assert (a.scaling is None) == (b.scaling is None)
    if a.scaling is not None:
        assert _same_bits(a.scaling.mins, b.scaling.mins)
        assert _same_bits(a.scaling.ranges, b.scaling.ranges)
    if a.head is not None:
        for name in vars(a.head):
            assert _same_bits(getattr(a.head, name), getattr(b.head, name)), name


def _models():
    """name -> a small model of each kind of content a model file holds."""
    X = np.random.default_rng(12).uniform(size=(40, 3))
    cfg = tiny_config()
    grid, _ = fit_unsupervised(X, cfg, np.random.default_rng(13))
    m_cfg = tiny_config(metric="mahalanobis")
    m_grid, cov_inv = fit_unsupervised(X, m_cfg, np.random.default_rng(14))
    y = (X[:, 0] > 0.5).astype(int)
    return {
        "unsupervised": SomModel(cfg, grid),
        "regression, mahalanobis, scaled": SomModel(
            m_cfg, m_grid, cov_inv=cov_inv,
            scaling=MinMaxRecord(np.array([0.0, -1.5, 2.0]), np.array([1.0, 0.0, 3.25])),
            head=fit_regressor(m_grid, X, X.sum(axis=1), m_cfg, np.random.default_rng(15),
                               cov_inv)),
        "string classes": SomModel(cfg, grid, head=fit_classifier(
            grid, X, np.array(["b", "a-long-name"])[y], cfg, np.random.default_rng(16))),
        "integer classes and integer scaling": SomModel(
            cfg, grid, scaling=MinMaxRecord(np.array([0, -2, 5]), np.array([1, 0, 2**62])),
            head=fit_classifier(grid, X, y, cfg, np.random.default_rng(17))),
    }


class TestCompanion:
    @pytest.fixture(autouse=True)
    def every_file_gets_a_companion(self, monkeypatch):
        monkeypatch.setattr(somkit.model_io, "_COMPANION_BYTES", 0)

    def test_only_files_from_the_threshold_up_get_a_companion(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        model = _models()["string classes"]
        save_model(model, path)
        size = path.stat().st_size
        monkeypatch.setattr(somkit.model_io, "_COMPANION_BYTES", size)
        save_model(model, path)
        assert companion_of(path).is_file()
        monkeypatch.setattr(somkit.model_io, "_COMPANION_BYTES", size + 1)
        save_model(model, path)  # removes the companion it no longer writes
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        assert_same_model(load_model(path), model)

    @pytest.mark.parametrize("name", sorted(_models()))
    def test_companion_gives_the_json_models_bits(self, tmp_path, name):
        path = tmp_path / "m.json"
        save_model(_models()[name], path)
        assert_same_model(from_companion(path), from_json(path, tmp_path))
        assert_same_model(load_model(path), from_json(path, tmp_path))

    def test_two_saves_write_identical_files(self, tmp_path):
        model = _models()["regression, mahalanobis, scaled"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, first)
        save_model(model, second)
        assert first.read_bytes() == second.read_bytes()
        assert companion_of(first).read_bytes() == companion_of(second).read_bytes()

    def test_stale_companion_is_not_used(self, tmp_path):
        models = _models()
        path, other = tmp_path / "m.json", tmp_path / "other.json"
        save_model(models["string classes"], path)
        save_model(models["integer classes and integer scaling"], other)
        shutil.copyfile(companion_of(other), companion_of(path))
        with pytest.raises(ValueError, match="another model file"):
            from_companion(path)
        assert_same_model(load_model(path), from_json(path, tmp_path))

    def test_truncated_companion_falls_back_to_the_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(_models()["regression, mahalanobis, scaled"], path)
        expected = from_json(path, tmp_path)
        full = companion_of(path).read_bytes()
        for size in (0, 10, 128, 200, len(full) // 2, len(full) - 1):
            companion_of(path).write_bytes(full[:size])
            with pytest.raises((ValueError, EOFError)):
                from_companion(path)
            assert_same_model(load_model(path), expected)

    def test_companion_without_a_record_falls_back_to_the_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(_models()["regression, mahalanobis, scaled"], path)
        expected = from_json(path, tmp_path)
        with open(companion_of(path), "rb") as fh:
            records = [np.load(fh) for _ in range(7)]
            assert fh.read() == b""
        for missing in range(len(records)):
            with open(companion_of(path), "wb") as fh:
                for i, record in enumerate(records):
                    if i != missing:
                        np.save(fh, record)
            with pytest.raises((ValueError, EOFError, KeyError)):
                from_companion(path)
            assert_same_model(load_model(path), expected)

    def test_companion_failing_a_check_falls_back_to_the_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(_models()["regression, mahalanobis, scaled"], path)
        with open(companion_of(path), "rb") as fh:
            records = [np.load(fh) for _ in range(7)]
        records[6][0] = np.inf  # the weights, the last float array of the JSON
        write_signed_companion(path, records[1:])
        with pytest.raises(ValueError, match="'weights' holds a number outside"):
            from_companion(path)
        assert_same_model(load_model(path), from_json(path, tmp_path))

    def test_damaged_companion_falls_back_to_the_json(self, tmp_path):
        """A bit flipped in any byte of the companion leaves the JSON's model."""
        path = tmp_path / "m.json"
        save_model(_models()["unsupervised"], path)
        expected = from_json(path, tmp_path)
        full = companion_of(path).read_bytes()
        for i in range(len(full)):
            damaged = bytearray(full)
            damaged[i] ^= 1 << i % 8
            companion_of(path).write_bytes(damaged)
            assert_same_model(load_model(path), expected)

    def test_companion_of_the_older_layout_falls_back_to_the_json(self, tmp_path):
        """A companion whose digest covers the JSON alone, with the arrays
        named in a list, is not read."""
        path = tmp_path / "m.json"
        for suffix in ("", ".arrays"):
            shutil.copyfile(DATA / f"v1_regression_old_companion.json{suffix}",
                            tmp_path / f"m.json{suffix}")
        with pytest.raises(ValueError, match="another model file"):
            from_companion(path)
        assert_same_model(load_model(path), from_json(path, tmp_path))

    def test_a_load_writes_nothing(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(_models()["unsupervised"], path)
        companion_of(path).unlink()
        load_model(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
