import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import somkit.distances
from somkit.cli import _train_folds, _train_model, main
from somkit.datasets import (
    LabeledDataset,
    k_fold,
    save_csv,
    synthetic_blobs,
    synthetic_regression,
)
from somkit.model_io import load_model, save_model
from somkit.schedules import ScheduleSpec
from somkit.seeding import phase_rng
from somkit.som import SomConfig

FAST = [
    "--n-row", "5", "--n-column", "5",
    "--n-iter-unsupervised", "150", "--n-iter-supervised", "300",
]


@pytest.fixture
def reg_csv(tmp_path):
    data = synthetic_regression(80, 0.05, np.random.default_rng(0))
    path = tmp_path / "reg.csv"
    save_csv(data, path, label_column="target")
    return path


@pytest.fixture
def blob_csv(tmp_path):
    data = synthetic_blobs(90, 3, 12.0, np.random.default_rng(1))
    path = tmp_path / "blobs.csv"
    save_csv(data, path, label_column="label")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_features(path, scale):
    """40 rows of 3 uniform features times ``scale`` and a 0/1 label "lab"."""
    rows = np.random.default_rng(0).random((40, 3)) * scale
    path.write_text("a,b,c,lab\n" + "".join(
        ",".join(map(repr, r)) + f",{i % 2}\n" for i, r in enumerate(rows.tolist())))
    return path


# at features near 1e160 the squared euclidean distances overflow
OVERFLOW_ERROR = ("somkit: error: the data or node weights are too large for euclidean "
                  "search: their squared distances overflow\n")


class TestTrain:
    def test_regression_model_and_sidecar(self, tmp_path, reg_csv):
        model_path = tmp_path / "model.json"
        rc = main([
            "train", "--data", str(reg_csv), "--label-column", "target",
            "--head", "regression", "--model", str(model_path),
            "--seed", "11", *FAST,
        ])
        assert rc == 0
        model = load_model(model_path)
        assert model.head_kind == "regression"
        resolved = json.loads((tmp_path / "model.resolved.json").read_text())
        assert resolved["command"] == "train"
        assert resolved["som_config"]["seed"] == 11
        assert resolved["som_config"]["lr_schedule"]["start"] == 0.5

    def test_unsupervised_head_none(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--model", str(model_path), *FAST])
        assert rc == 0
        assert load_model(model_path).head_kind == "none"

    def test_missing_label_column_flag_is_usage_error(self, tmp_path, reg_csv):
        rc = main(["train", "--data", str(reg_csv), "--head", "regression",
                   "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 1

    def test_missing_data_file_is_data_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"),
                   "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 2

    @pytest.mark.parametrize("line, where", [(0, "header row"), (2, "row 2")])
    def test_cell_over_the_csv_field_limit_is_data_error(self, tmp_path, capsys, line, where):
        lines = ["f0,f1", "0.5,1.5", "2.5,3.5"]
        lines[line] = lines[line].split(",")[0] + "," + "1" * 200_000
        data = tmp_path / "big.csv"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"somkit: data error: {data}: {where}: field larger than field limit (131072)\n")

    @pytest.mark.parametrize("row", ["2.0," + "p" * 200_000, "0." + "0" * 200_000 + ",p"],
                             ids=["label", "feature"])
    def test_parseable_cell_over_the_csv_field_limit_is_data_error(self, tmp_path, capsys, row):
        data = tmp_path / "big.csv"
        data.write_text(f"f0,lab\n1.0,a\n{row}\n")
        rc = main(["train", "--data", str(data), "--label-column", "lab",
                   "--head", "classification", "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"somkit: data error: {data}: row 2: field larger than field limit (131072)\n")

    def test_label_only_csv_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("target\n1.0\n2.0\n3.0\n")
        rc = main(["train", "--data", str(data), "--label-column", "target",
                   "--head", "regression", "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"somkit: data error: {data}: no feature columns in header\n")

    def test_mahalanobis_on_overflowing_features_is_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        rows = np.random.default_rng(0).random((40, 3)) * 1e160
        data.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"),
                   "--metric", "mahalanobis", *FAST])
        assert rc == 2
        assert capsys.readouterr().err == (
            "somkit: error: the covariance of the data or its inverse is not finite\n")

    @pytest.mark.parametrize("flags", [[], ["--head", "classification"],
                                       ["--update-mode", "batch"]])
    def test_euclidean_on_overflowing_features_is_error(self, tmp_path, capsys, flags):
        data = write_features(tmp_path / "big.csv", 1e160)
        rc = main(["train", "--data", str(data), "--label-column", "lab",
                   "--model", str(tmp_path / "m.json"), *flags, *FAST])
        assert rc == 2
        assert capsys.readouterr().err == OVERFLOW_ERROR

    def test_bad_flag_value_is_usage_error(self, tmp_path, reg_csv):
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"),
                   "--lr-start", "-0.5", *FAST])
        assert rc == 1

    def test_unknown_flag(self, tmp_path, reg_csv):
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"),
                   "--warp-speed", "9", *FAST])
        assert rc == 1

    def test_config_file_and_flag_override(self, tmp_path, reg_csv):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_row": 3, "n_column": 7, "seed": 21,
                                        "n_iter_unsupervised": 100}))
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--head", "regression", "--model", str(model_path),
                   "--config", str(cfg_file), "--n-row", "4",
                   "--n-iter-supervised", "100"])
        assert rc == 0
        model = load_model(model_path)
        assert model.config.n_row == 4      # flag beats file
        assert model.config.n_column == 7   # file beats default
        assert model.config.seed == 21

    def test_unknown_config_key_rejected(self, tmp_path, reg_csv):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"rows": 3}))
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"),
                   "--config", str(cfg_file)])
        assert rc == 1

    @pytest.mark.parametrize("values", [
        {"n_row": "ten"}, {"n_row": 2.5}, {"lr_start": "0.5"}, {"seed": "7"}, {"seed": None},
        {"minmax_scale": "yes"}, {"class_weighting": 1}, {"lr_end": None},
        {"metric": "cosine"}, {"radius_schedule": "inverse"},
        {"head": "bogus", "label_column": "target"},
    ])
    def test_mistyped_config_file_value_is_usage_error(self, tmp_path, reg_csv, capsys,
                                                        values):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--model", str(model_path),
                   "--config", str(cfg_file), "--n-iter-unsupervised", "50"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"somkit: error: {cfg_file}: ")
        assert next(iter(values)) in err  # the mistyped key comes first
        if "lr_start" in values:
            assert err == f"somkit: error: {cfg_file}: lr_start must be of type float, got '0.5'\n"
        assert not model_path.exists()

    def test_bad_config_file_head_is_usage_error_under_a_head_flag(self, tmp_path, reg_csv,
                                                                   capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"head": "bogus"}))
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--head", "regression", "--model", str(model_path),
                   "--config", str(cfg_file), *FAST])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"somkit: error: {cfg_file}: head must be one of "
            "('none', 'regression', 'classification'), got 'bogus'\n")
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "export-maps"])
    def test_commands_reading_a_model_check_config_file_values(self, tmp_path, reg_csv,
                                                               command):
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(reg_csv), "--label-column", "target",
                     "--head", "regression", "--model", str(model_path), *FAST]) == 0
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": None, "model": str(model_path),
                                        "data": str(reg_csv), "label_column": "target",
                                        "output": str(tmp_path / "out"),
                                        "out_dir": str(tmp_path / "maps")}))
        assert main([command, "--config", str(cfg_file)]) == 1
        cfg_file.write_text(json.dumps({**json.loads(cfg_file.read_text()), "seed": 3}))
        assert main([command, "--config", str(cfg_file)]) == 0

    @pytest.mark.parametrize("values", [{"data": 5}, {"model": 7}, {"k": 2.9}, {"k": "3"},
                                        {"head": ["regression"]}, {"label_column": None},
                                        {"head": "none"}])
    def test_mistyped_config_file_run_value_is_usage_error(self, tmp_path, reg_csv, capsys,
                                                            values):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"data": str(reg_csv), "label_column": "target",
                                        "head": "regression", **values}))
        rc = main(["crossval", "--config", str(cfg_file), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("somkit: error: ")
        assert all(key in err for key in values)

    def test_config_file_must_hold_an_object(self, tmp_path, reg_csv):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("[3]")
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"),
                   "--config", str(cfg_file)])
        assert rc == 1

    def test_config_file_that_is_not_utf8_is_usage_error(self, tmp_path, reg_csv, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_bytes('{"label_column": "t\u00e9"}'.encode("latin-1"))
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"),
                   "--config", str(cfg_file)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"somkit: error: {cfg_file}: ") and err.count("\n") == 1

    def test_null_radius_start_takes_the_derived_default(self, tmp_path, reg_csv):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius_start": None, "radius_end": 0.5}))
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--model", str(model_path),
                   "--config", str(cfg_file), *FAST])
        assert rc == 0
        assert load_model(model_path).config.radius_schedule.start == 2.5  # 5x5 grid

    def test_full_run_config_file_supplies_paths(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "data": str(reg_csv), "label_column": "target", "head": "regression",
            "model": str(model_path), "n_row": 4, "n_column": 4,
            "n_iter_unsupervised": 100, "n_iter_supervised": 100,
        }))
        rc = main(["train", "--config", str(cfg_file)])
        assert rc == 0
        assert load_model(model_path).head_kind == "regression"

    def test_missing_required_value_is_usage_error(self, tmp_path):
        rc = main(["train", "--model", str(tmp_path / "m.json"), *FAST])
        assert rc == 1

    def test_minmax_scale_recorded(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--head", "regression", "--model", str(model_path),
                   "--minmax-scale", *FAST])
        assert rc == 0
        assert load_model(model_path).scaling is not None

    def test_paper_scale_configs_accepted(self, tmp_path, reg_csv):
        # validation only; the run itself uses the small iteration counts
        from somkit.cli import build_parser, _validated_config

        parser = build_parser()
        for flags in (
            ["--n-row", "35", "--n-column", "35",
             "--n-iter-unsupervised", "2500", "--n-iter-supervised", "2500"],
            ["--n-row", "40", "--n-column", "20",
             "--n-iter-unsupervised", "5000", "--n-iter-supervised", "20000"],
        ):
            args = parser.parse_args(["train", "--data", "d.csv", "--model", "m.json", *flags])
            _, config = _validated_config(args)
            assert config.n_row in (35, 40)


# case -> (edit of a mahalanobis regression model's JSON, expected error text)
MALFORMED_MODELS = {
    "missing config": (lambda p: p.pop("config"), "no 'config'"),
    "missing head": (lambda p: p.pop("head"), "no 'head'"),
    "missing cov_inv": (lambda p: p.pop("cov_inv"), "no 'cov_inv'"),
    "missing config entry": (lambda p: p["config"].pop("n_row"), "malformed config"),
    "mistyped config entry": (lambda p: p["config"].update(n_row="four"), "malformed config"),
    "mistyped weights": (lambda p: p.update(weights="0.5"), "'weights'"),
    "weight count mismatch": (lambda p: p["weights"].pop(), "'weights'"),
    "unknown head kind": (lambda p: p["head"].update(kind="ranking"), "unknown head kind"),
    "cov_inv not positive definite": (
        lambda p: p.update(cov_inv=(-np.array(p["cov_inv"])).tolist()), "positive definite"),
    "string weight": (lambda p: p["weights"].__setitem__(0, repr(p["weights"][0])), "'weights'"),
    "boolean weight": (lambda p: p["weights"].__setitem__(0, True), "'weights'"),
    "string in cov_inv": (
        lambda p: p["cov_inv"][0].__setitem__(0, repr(p["cov_inv"][0][0])), "'cov_inv'"),
    "boolean scaling min": (lambda p: p["scaling"]["mins"].__setitem__(0, True), "'mins'"),
    "string scaling range": (
        lambda p: p["scaling"]["ranges"].__setitem__(0, repr(p["scaling"]["ranges"][0])),
        "'ranges'"),
    "string head value": (
        lambda p: p["head"]["values"].__setitem__(0, repr(p["head"]["values"][0])), "'values'"),
    "NaN in cov_inv": (lambda p: p["cov_inv"][0].__setitem__(0, float("nan")), "NaN"),
    "Infinity in cov_inv": (lambda p: p["cov_inv"][1].__setitem__(1, float("inf")), "Infinity"),
    "NaN scaling min": (lambda p: p["scaling"]["mins"].__setitem__(0, float("nan")), "NaN"),
    "Infinity scaling range": (
        lambda p: p["scaling"]["ranges"].__setitem__(0, float("inf")), "Infinity"),
    "-Infinity weight": (lambda p: p["weights"].__setitem__(0, -float("inf")), "-Infinity"),
    "NaN head value": (lambda p: p["head"]["values"].__setitem__(0, float("nan")), "NaN"),
}


# case -> (edit of a classification model's JSON, expected error text); the
# model has one feature, so a feature_dim of true would fit its weights
MALFORMED_CLASSIFICATION_MODELS = {
    "fractional class code": (lambda p: p["head"]["codes"].__setitem__(0, 1.5), "'codes'"),
    "boolean class code": (lambda p: p["head"]["codes"].__setitem__(0, True), "'codes'"),
    "boolean feature_dim": (lambda p: p.update(feature_dim=True), "'feature_dim'"),
}


class TestMalformedModel:
    def _predict_edited(self, tmp_path, capsys, data, train_flags, mutate):
        """Exit code and stderr of predict with a trained model edited by ``mutate``."""
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--label-column", "target", *train_flags,
                     "--model", str(model_path), *FAST]) == 0
        payload = json.loads(model_path.read_text())
        mutate(payload)
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["predict", "--model", str(model_path), "--data", str(data),
                   "--label-column", "target", "--output", str(tmp_path / "p.csv")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_predict_exits_2(self, tmp_path, reg_csv, capsys, case):
        mutate, message = MALFORMED_MODELS[case]
        rc, err = self._predict_edited(tmp_path, capsys, reg_csv,
                                       ["--head", "regression", "--metric", "mahalanobis",
                                        "--minmax-scale"],
                                       mutate)
        assert rc == 2
        assert message in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CLASSIFICATION_MODELS))
    def test_predict_with_classification_model_exits_2(self, tmp_path, capsys, case):
        mutate, message = MALFORMED_CLASSIFICATION_MODELS[case]
        data = tmp_path / "one_feature.csv"
        data.write_text("f0,target\n" + "".join(f"{x},c{x % 3}\n" for x in range(30)))
        flags = ["--head", "classification"]
        assert self._predict_edited(tmp_path, capsys, data, flags, lambda p: None)[0] == 0
        rc, err = self._predict_edited(tmp_path, capsys, data, flags, mutate)
        assert rc == 2
        assert message in err


def _write_binary_csv(path, X):
    lines = [",".join(f"f{i}" for i in range(X.shape[1])) + ",label"]
    lines += [",".join(map(repr, row)) + f",c{int(row[0])}" for row in X.tolist()]
    path.write_text("\n".join(lines) + "\n")


class TestTanimoto:
    """Tanimoto maps only predict: training makes weights outside {0, 1}."""

    @pytest.fixture
    def binary_csv(self, tmp_path):
        path = tmp_path / "binary.csv"
        _write_binary_csv(path, np.random.default_rng(3).integers(0, 2, (50, 8)).astype(float))
        return path

    def _model(self, tmp_path, binary_csv, round_weights):
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(binary_csv), "--label-column", "label",
                     "--head", "classification", "--model", str(model_path), *FAST]) == 0
        payload = json.loads(model_path.read_text())
        if round_weights:
            payload["weights"] = [float(w >= 0.5) for w in payload["weights"]]
        payload["config"]["metric"] = "tanimoto"
        model_path.write_text(json.dumps(payload))
        return model_path

    def _predict(self, model_path, data, tmp_path):
        return main(["predict", "--model", str(model_path), "--data", str(data),
                     "--label-column", "label", "--output", str(tmp_path / "p.csv")])

    def test_train_is_rejected_before_initialising(self, tmp_path, binary_csv, capsys):
        rc = main(["train", "--data", str(binary_csv), "--label-column", "label",
                   "--head", "classification", "--metric", "tanimoto",
                   "--n-row", "20", "--n-column", "20", "--model", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "tanimoto maps cannot be trained" in err
        assert not (tmp_path / "m.json").exists()

    def test_predict_names_the_first_non_boolean_data_row(self, tmp_path, binary_csv, capsys):
        model_path = self._model(tmp_path, binary_csv, round_weights=True)
        X = np.random.default_rng(4).integers(0, 2, (2000, 8)).astype(float)
        X[1500, 3], X[1700, 0] = 0.25, 7.0
        data = tmp_path / "fractional.csv"
        _write_binary_csv(data, X)
        assert self._predict(model_path, binary_csv, tmp_path) == 0
        capsys.readouterr()
        assert self._predict(model_path, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data row index 1500 holds 0.25" in err

    def test_predict_names_the_first_non_boolean_weight_row(self, tmp_path, binary_csv,
                                                            capsys):
        model_path = self._model(tmp_path, binary_csv, round_weights=False)
        capsys.readouterr()
        assert self._predict(model_path, binary_csv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "weights row index 0 holds" in err
        assert "array(" not in err


class TestPredict:
    def test_row_count_and_kind(self, tmp_path, reg_csv, blob_csv):
        reg_model = tmp_path / "reg.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--head", "regression", "--model", str(reg_model), *FAST])
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--model", str(reg_model), "--data", str(reg_csv),
                   "--label-column", "target", "--output", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["prediction"]
        assert len(rows) - 1 == 80
        float(rows[1][0])  # regression output is numeric

        cls_model = tmp_path / "cls.json"
        main(["train", "--data", str(blob_csv), "--label-column", "label",
              "--head", "classification", "--model", str(cls_model), *FAST])
        out2 = tmp_path / "pred2.csv"
        rc = main(["predict", "--model", str(cls_model), "--data", str(blob_csv),
                   "--label-column", "label", "--output", str(out2)])
        assert rc == 0
        rows = read_rows(out2)
        assert len(rows) - 1 == 90
        assert set(r[0] for r in rows[1:]) <= {"0", "1", "2"}

    @pytest.mark.parametrize("text, label, row", [
        ("f0\n\n", [], 1),  # numpy's reader warns that it found no data
        ("f0\n1\n\n2\n", [], 2),
        ("f0,target\n1,c1\n\n2,c2\n", ["--label-column", "target"], 2),
    ])
    def test_blank_line_gives_one_line_on_stderr(self, tmp_path, text, label, row):
        train = tmp_path / "train.csv"
        train.write_text("f0,target\n" + "".join(f"{x},c{x % 3}\n" for x in range(30)))
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(train), "--label-column", "target",
                     "--head", "classification", "--model", str(model_path), *FAST]) == 0
        data = tmp_path / "blank.csv"
        data.write_text(text)
        # a process of its own, so that a warning would reach its stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "somkit.cli", "predict", "--model", str(model_path),
             "--data", str(data), *label, "--output", str(tmp_path / "p.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        fields = text.count(",", 0, text.index("\n")) + 1
        assert proc.stderr == (
            f"somkit: data error: {data}: row {row} has 0 fields, expected {fields}\n")

    def test_predict_without_head_fails(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--model", str(model_path), *FAST])
        rc = main(["predict", "--model", str(model_path), "--data", str(reg_csv),
                   "--label-column", "target", "--output", str(tmp_path / "p.csv")])
        assert rc == 2


    @pytest.mark.parametrize("command", ["predict", "export-maps"])
    @pytest.mark.parametrize("overflowing", ["data", "weights"])
    def test_overflowing_squares_are_error(self, tmp_path, capsys, command, overflowing):
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(write_features(tmp_path / "train.csv", 1.0)),
                     "--label-column", "lab", "--head", "classification",
                     "--model", str(model_path), *FAST]) == 0
        data = write_features(tmp_path / "apply.csv", 1e160 if overflowing == "data" else 1.0)
        if overflowing == "weights":
            payload = json.loads(model_path.read_text())
            payload["weights"] = [w * 1e160 for w in payload["weights"]]
            model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        out = ["--output", str(tmp_path / "p.csv")] if command == "predict" else [
            "--out-dir", str(tmp_path / "maps")]
        rc = main([command, "--model", str(model_path), "--data", str(data),
                   "--label-column", "lab", *out])
        assert rc == 2
        assert capsys.readouterr().err == OVERFLOW_ERROR


class TestEvaluate:
    def test_perfect_fixture_classification(self, tmp_path, blob_csv, capsys):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(blob_csv), "--label-column", "label",
              "--head", "classification", "--model", str(model_path),
              "--seed", "3", "--n-row", "6", "--n-column", "6",
              "--n-iter-unsupervised", "400", "--n-iter-supervised", "1500"])
        rc = main(["evaluate", "--model", str(model_path), "--data", str(blob_csv),
                   "--label-column", "label"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall_accuracy 1.000000" in out
        assert "average_accuracy 1.000000" in out
        assert "cohens_kappa 1.000000" in out
        assert "confusion_matrix" in out
        assert "resolved_config:" in out

    def test_train_and_test_sections(self, tmp_path, reg_csv, capsys):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--head", "regression", "--model", str(model_path), *FAST])
        rc = main(["evaluate", "--model", str(model_path), "--data", str(reg_csv),
                   "--train-data", str(reg_csv), "--label-column", "target"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== test ==" in out and "== train ==" in out
        assert out.count("r_squared") == 2

    def test_report_file_output(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--head", "regression", "--model", str(model_path), *FAST])
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--model", str(model_path), "--data", str(reg_csv),
                   "--label-column", "target", "--output", str(report)])
        assert rc == 0
        assert "r_squared" in report.read_text()


def _two_points(rng, head):
    """100 copies of two points: with a radius of 1e9 the first pull moves
    every node onto one of them, so BMU scores tie and are re-ranked."""
    points = rng.uniform(0.0, 1.0, size=(2, 2))
    which = rng.integers(2, size=100)
    y = points[which].sum(axis=1) if head == "regression" else which
    return LabeledDataset(points[which], y, label_kind="continuous"
                          if head == "regression" else "categorical")


_TIES = dict(lr_schedule=ScheduleSpec("start-end", 1.0, 0.05),
             radius_schedule=ScheduleSpec("start-end", 1e9, 1.0))

# name -> (data of 100 rows, head, SomConfig values, minmax scaling); with
# k = 3 the folds train on 67, 67 and 66 rows
STACKED_FOLD_CASES = {
    "euclidean-online-regression-scaled-mexican-hat": (
        lambda rng: synthetic_regression(100, 0.05, rng), "regression",
        dict(kernel="mexican-hat"), True),
    "manhattan-online-classification-class-weighting": (
        lambda rng: synthetic_blobs(100, 3, 2.0, rng), "classification",
        dict(metric="manhattan", class_weighting=True), False),
    "mahalanobis-online-classification-scaled": (
        lambda rng: synthetic_blobs(100, 3, 2.0, rng), "classification",
        dict(metric="mahalanobis"), True),
    "mahalanobis-online-regression": (
        lambda rng: synthetic_regression(100, 0.05, rng), "regression",
        dict(metric="mahalanobis", kernel="mexican-hat"), False),
    "euclidean-batch-classification-mexican-hat": (
        lambda rng: synthetic_blobs(100, 3, 2.0, rng), "classification",
        dict(update_mode="batch", kernel="mexican-hat", class_weighting=True), False),
    "manhattan-batch-regression-scaled": (
        lambda rng: synthetic_regression(100, 0.05, rng), "regression",
        dict(metric="manhattan", update_mode="batch"), True),
    "euclidean-online-regression-ties": (
        lambda rng: _two_points(rng, "regression"), "regression", _TIES, False),
    "manhattan-online-classification-ties": (
        lambda rng: _two_points(rng, "classification"), "classification",
        dict(metric="manhattan", **_TIES), False),
}


@pytest.mark.parametrize("case", sorted(STACKED_FOLD_CASES))
def test_folds_trained_together_equal_folds_trained_alone(tmp_path, monkeypatch, case):
    """Every fold of crossval's stacked training saves the bytes of
    ``_train_model`` run on that fold alone."""
    make_data, head, values, scale = STACKED_FOLD_CASES[case]
    config = SomConfig(n_row=6, n_column=5, n_iter_unsupervised=200,
                       n_iter_supervised=200, seed=5, **values)
    folds = k_fold(make_data(np.random.default_rng(9)), 3, phase_rng(config.seed, "fold"))
    assert sorted({train.n_samples for train, _ in folds}) == [66, 67]
    reranks, exact = [], somkit.distances._exact

    def counted_exact(*args, **kwargs):
        reranks.append(True)
        return exact(*args, **kwargs)

    monkeypatch.setattr(somkit.distances, "_exact", counted_exact)
    models = _train_folds(config, [train for train, _ in folds], head, scale)
    monkeypatch.undo()
    if case.endswith("-ties"):
        assert reranks
    for i, ((train, _), model) in enumerate(zip(folds, models)):
        save_model(model, tmp_path / "together.json")
        save_model(_train_model(config, train, head, scale, fold=i), tmp_path / "alone.json")
        assert (tmp_path / "together.json").read_bytes() == (tmp_path / "alone.json").read_bytes()


class TestCrossval:
    def crossval_args(self, blob_csv, out):
        return [
            "crossval", "--data", str(blob_csv), "--label-column", "label",
            "--head", "classification", "--k", "5", "--seed", "17",
            "--output", str(out), *FAST,
        ]

    def test_fold_blocks_and_mean(self, tmp_path, blob_csv):
        out = tmp_path / "cv.txt"
        rc = main(self.crossval_args(blob_csv, out))
        assert rc == 0
        text = out.read_text()
        for i in range(5):
            assert f"== fold {i} ==" in text
        assert "crossval mean" in text
        assert "overall_accuracy_test" in text
        assert "overall_accuracy_train" in text

    def test_mean_is_arithmetic_mean_of_folds(self, tmp_path, blob_csv):
        out = tmp_path / "cv.txt"
        main(self.crossval_args(blob_csv, out))
        text = out.read_text()
        fold_vals = []
        mean_val = None
        for line in text.splitlines():
            if line.startswith("overall_accuracy_test "):
                value = float(line.split()[1])
                if mean_val is None:
                    mean_val = value  # mean block renders first
                else:
                    fold_vals.append(value)
        assert len(fold_vals) == 5
        assert mean_val == pytest.approx(np.mean(fold_vals), abs=5e-7)

    def test_byte_identical_reruns(self, tmp_path, blob_csv):
        out = tmp_path / "cv.txt"
        main(self.crossval_args(blob_csv, out))
        first = out.read_bytes()
        main(self.crossval_args(blob_csv, out))
        assert out.read_bytes() == first

    def test_unsupervised_head_rejected(self, tmp_path, blob_csv):
        rc = main(["crossval", "--data", str(blob_csv), "--label-column", "label",
                   "--head", "none", "--k", "3", *FAST])
        assert rc == 1

    def test_bad_k(self, tmp_path, blob_csv):
        rc = main(["crossval", "--data", str(blob_csv), "--label-column", "label",
                   "--head", "classification", "--k", "1", *FAST])
        assert rc == 1


class TestExportMaps:
    def test_histogram_and_output_map(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--head", "regression", "--model", str(model_path), "--seed", "5", *FAST])
        out_dir = tmp_path / "maps"
        rc = main(["export-maps", "--model", str(model_path), "--data", str(reg_csv),
                   "--label-column", "target", "--out-dir", str(out_dir)])
        assert rc == 0

        hist = read_rows(out_dir / "bmu_histogram.csv")
        assert hist[0] == ["row", "column", "count"]
        assert len(hist) - 1 == 25
        assert sum(int(r[2]) for r in hist[1:]) == 80

        omap = read_rows(out_dir / "output_map.csv")
        assert omap[0] == ["row", "column", "value"]
        assert len(omap) - 1 == 25
        # regression map values stay inside the training label range
        data = synthetic_regression(80, 0.05, np.random.default_rng(0))
        values = [float(r[2]) for r in omap[1:]]
        assert min(values) >= data.y.min() - 1e-12
        assert max(values) <= data.y.max() + 1e-12

    def test_headless_model_skips_output_map(self, tmp_path, reg_csv):
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--model", str(model_path), *FAST])
        out_dir = tmp_path / "maps"
        rc = main(["export-maps", "--model", str(model_path), "--data", str(reg_csv),
                   "--label-column", "target", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "bmu_histogram.csv").exists()
        assert not (out_dir / "output_map.csv").exists()

    def test_input_files_not_mutated(self, tmp_path, reg_csv):
        before = reg_csv.read_bytes()
        model_path = tmp_path / "m.json"
        main(["train", "--data", str(reg_csv), "--label-column", "target",
              "--head", "regression", "--model", str(model_path), *FAST])
        model_before = model_path.read_bytes()
        main(["export-maps", "--model", str(model_path), "--data", str(reg_csv),
              "--label-column", "target", "--out-dir", str(tmp_path / "maps")])
        assert reg_csv.read_bytes() == before
        assert model_path.read_bytes() == model_before


class TestReproducibility:
    def test_train_twice_same_seed_byte_identical_model(self, tmp_path, reg_csv):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--data", str(reg_csv), "--label-column", "target",
                "--head", "regression", "--seed", "99", *FAST]
        main(args + ["--model", str(m1)])
        main(args + ["--model", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_resolved_config_record_suffices_to_rerun(self, tmp_path, reg_csv):
        m1 = tmp_path / "m1.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--head", "regression", "--model", str(m1),
                   "--seed", "7", "--minmax-scale", "--kernel", "mexican-hat", *FAST])
        assert rc == 0
        record = json.loads((tmp_path / "m1.resolved.json").read_text())

        # rebuild the command line from the record alone
        som = record["som_config"]
        m2 = tmp_path / "m2.json"
        args = [
            record["command"],
            "--data", record["data"],
            "--label-column", record["label_column"],
            "--head", record["head"],
            "--model", str(m2),
            "--n-row", str(som["n_row"]),
            "--n-column", str(som["n_column"]),
            "--n-iter-unsupervised", str(som["n_iter_unsupervised"]),
            "--n-iter-supervised", str(som["n_iter_supervised"]),
            "--metric", som["metric"],
            "--lr-schedule", som["lr_schedule"]["kind"],
            "--lr-start", str(som["lr_schedule"]["start"]),
            "--lr-end", str(som["lr_schedule"]["end"]),
            "--radius-schedule", som["radius_schedule"]["kind"],
            "--radius-start", str(som["radius_schedule"]["start"]),
            "--radius-end", str(som["radius_schedule"]["end"]),
            "--kernel", som["kernel"],
            "--update-mode", som["update_mode"],
            "--seed", str(som["seed"]),
            "--class-weighting" if som["class_weighting"] else "--no-class-weighting",
            "--minmax-scale" if record["minmax_scale"] else "--no-minmax-scale",
        ]
        assert main(args) == 0
        assert m1.read_bytes() == m2.read_bytes()
