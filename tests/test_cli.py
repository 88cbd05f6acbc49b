import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import somkit.distances
import somkit.model_io
import somkit.som
from somkit.cli import _COMMANDS, _train_models, main
from somkit.datasets import (
    LabeledDataset,
    k_fold,
    minmax_scale,
    save_csv,
    synthetic_blobs,
    synthetic_regression,
)
from somkit.model_io import SomModel, load_model, save_model
from somkit.schedules import ScheduleSpec
from somkit.seeding import phase_rng
from somkit.som import SomConfig, fit_unsupervised
from somkit.supervised import fit_classifier, fit_regressor

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


# online training with the mexican-hat kernel at the default learning rate
# pushes nodes in the kernel's negative lobe away without bound: by 20000
# iterations on uniform data in [0, 1]^3 the weights overflow
DIVERGING = ["--kernel", "mexican-hat", "--n-row", "10", "--n-column", "10",
             "--n-iter-unsupervised", "20000", "--n-iter-supervised", "10", "--seed", "1"]
DIVERGED_ERROR = ("somkit: error: online training diverged with the mexican-hat kernel and the "
                  "start-end learning rate from 0.5: the node weights overflowed; a smaller "
                  "learning rate or the gaussian kernel keeps them bounded\n")
# the regression head diverges in the same way: with a map that stays finite,
# 40000 head iterations on 200 rows in [0, 1]^3 make its values overflow
DIVERGING_HEAD = ["--head", "regression", "--kernel", "mexican-hat", "--n-row", "10",
                  "--n-column", "10", "--n-iter-unsupervised", "2000",
                  "--n-iter-supervised", "40000", "--seed", "1"]
HEAD_DIVERGED_ERROR = DIVERGED_ERROR.replace("node weights", "head values")
# a batch map has no learning rate; one mexican-hat batch update can carry the
# weights of 10 rows near 1e150 to 3.7e154, past the exact search's range,
# which the map reports after that update, whatever the iteration count
BATCH_DIVERGED_ERROR = ("somkit: error: batch training diverged with the mexican-hat kernel: "
                        "the node weights left the range where the BMU search is exact, as "
                        "their squared distances to the data overflow; the gaussian kernel "
                        "keeps them bounded\n")
# under the gaussian kernel every batch weight is a mean of data rows, but
# manhattan data near the float range can overflow the batch map's sums
BATCH_OVERFLOW_ERROR = ("somkit: error: batch training diverged with the gaussian kernel: the "
                        "node weights overflowed; smaller feature values keep them bounded\n")
DIVERGING_BATCH = ["--update-mode", "batch", "--kernel", "mexican-hat", "--n-row", "2",
                   "--n-column", "5", "--n-iter-unsupervised", "1",
                   "--radius-schedule", "start-end", "--radius-start", "1.4736537333670832",
                   "--radius-end", "1.4736537333670832", "--seed", "181"]


def write_batch_diverging(path):
    """The 10 two-feature rows near 1e150 of ``DIVERGING_BATCH``."""
    rng = np.random.default_rng(1804)
    rng.integers(2, 12)
    rows = 1e150 * rng.normal(size=(10, 2))
    path.write_text("a,b\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    return path
# at 12000 iterations the same map stays finite, with weights up to about
# 3e229, but their squared distances overflow, so its last searches were not exact
DIVERGING_FINITE = [*DIVERGING[:6], "--n-iter-unsupervised", "12000", *DIVERGING[8:]]
OUT_OF_RANGE_ERROR = DIVERGED_ERROR.replace(
    "the node weights overflowed", "the node weights left the range where the BMU search is "
    "exact, as their squared distances to the data overflow")
# the gaussian kernel keeps the weights between the datapoints only at learning
# rates up to 1: from 1e308 the first steps overflow them
DIVERGING_GAUSSIAN = ["--lr-schedule", "inverse", "--lr-start", "1e308", *FAST]
GAUSSIAN_DIVERGED_ERROR = ("somkit: error: online training diverged with the gaussian kernel "
                           "and the inverse learning rate from 1e+308: the node weights "
                           "overflowed; a smaller learning rate keeps them bounded\n")


def write_wide_targets(path, copies):
    """``copies`` rows each of the targets 1e308, -1e308, 0 and 1, whose
    range overflows, with 3 uniform features, "target" last."""
    rows = np.random.default_rng(0).random((4 * copies, 3))
    targets = [1e308, -1e308, 0.0, 1.0] * copies
    path.write_text("a,b,c,target\n" + "".join(
        ",".join(map(repr, [*r, t])) + "\n" for r, t in zip(rows.tolist(), targets)))
    return path


WIDE_TARGETS_ERROR = ("somkit: error: regression labels from -1e+308 to 1e+308 span more "
                      "than the float range; scale them down\n")


def write_wide_feature(path, copies):
    """Feature "a" at 1e308 and at -1e308, each in ``copies`` rows, and two
    rows between; "b" in [0, 1] and a label "y"."""
    rows = ["1e308,0,1"] * copies + ["-1e308,1,2"] * copies + ["0,0.5,3", "5,0.2,4"]
    path.write_text("a,b,y\n" + "".join(row + "\n" for row in rows))
    return path


WIDE_FEATURE_ERROR = ("somkit: error: feature 0 from -1e+308 to 1e+308 spans more than the "
                      "float range; scale it down\n")


def write_sums(path):
    """200 rows of 3 uniform features and their sum, "target"."""
    rows = np.random.default_rng(0).random((200, 3))
    path.write_text("a,b,c,target\n" + "".join(
        ",".join(map(repr, r)) + f",{sum(r)!r}\n" for r in rows.tolist()))
    return path


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

    @pytest.mark.parametrize("head", ["none", "regression"])
    def test_diverging_online_training_is_error(self, tmp_path, capsys, head):
        data = write_features(tmp_path / "unit.csv", 1.0)
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--label-column", "lab", "--head", head,
                   "--model", str(model), *DIVERGING])
        assert rc == 2
        assert capsys.readouterr().err == DIVERGED_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    def test_online_training_past_the_search_range_is_error(self, tmp_path, capsys):
        data = write_features(tmp_path / "unit.csv", 1.0)
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--label-column", "lab", "--head", "none",
                   "--model", str(model), *DIVERGING_FINITE])
        assert rc == 2
        assert capsys.readouterr().err == OUT_OF_RANGE_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    @pytest.mark.parametrize("n_iter", ["1", "2", "3"])
    def test_diverging_batch_training_is_error(self, tmp_path, capsys, n_iter):
        data, model = write_batch_diverging(tmp_path / "d.csv"), tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--model", str(model), *DIVERGING_BATCH,
                   "--n-iter-unsupervised", n_iter])
        assert rc == 2
        assert capsys.readouterr().err == BATCH_DIVERGED_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    def test_batch_sums_past_the_float_range_are_error(self, tmp_path, capsys):
        data, model = tmp_path / "big.csv", tmp_path / "m.json"
        rows = 1e307 * np.random.default_rng(3).uniform(0.5, 1.0, size=(100, 2))
        data.write_text("a,b\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        rc = main(["train", "--data", str(data), "--model", str(model), "--update-mode", "batch",
                   "--metric", "manhattan", "--n-row", "2", "--n-column", "5",
                   "--n-iter-unsupervised", "5"])
        assert rc == 2
        assert capsys.readouterr().err == BATCH_OVERFLOW_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    def test_diverging_gaussian_training_is_error(self, tmp_path, capsys):
        data = write_features(tmp_path / "unit.csv", 1.0)
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--model", str(model), *DIVERGING_GAUSSIAN])
        assert rc == 2
        assert capsys.readouterr().err == GAUSSIAN_DIVERGED_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    def test_diverging_regression_head_is_error(self, tmp_path, capsys):
        data, model = write_sums(tmp_path / "sums.csv"), tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--label-column", "target",
                   "--model", str(model), *DIVERGING_HEAD])
        assert rc == 2
        assert capsys.readouterr().err == HEAD_DIVERGED_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    def test_regression_labels_past_the_float_range_are_error(self, tmp_path, capsys):
        data, model = write_wide_targets(tmp_path / "wide.csv", 1), tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--label-column", "target",
                   "--head", "regression", "--model", str(model),
                   "--n-row", "3", "--n-column", "3"])
        assert rc == 2
        assert capsys.readouterr().err == WIDE_TARGETS_ERROR
        assert not model.exists() and not (tmp_path / "m.resolved.json").exists()

    @pytest.mark.parametrize("scale", [[], ["--minmax-scale"]])
    def test_feature_range_past_the_float_range_is_error(self, tmp_path, capsys, scale):
        data, model = write_wide_feature(tmp_path / "wide.csv", 1), tmp_path / "m.json"
        rc = main(["train", "--data", str(data), "--label-column", "y", "--head", "regression",
                   "--model", str(model), "--n-row", "2", "--n-column", "2",
                   "--n-iter-unsupervised", "10", "--n-iter-supervised", "10", *scale])
        assert rc == 2
        assert capsys.readouterr().err == WIDE_FEATURE_ERROR
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.csv"]

    @pytest.mark.parametrize("message, error", [
        ("Unable to allocate 21.8 TiB for an array", "Unable to allocate 21.8 TiB for an array"),
        ("", "an allocation failed"),
    ])
    def test_out_of_memory_is_error(self, tmp_path, reg_csv, capsys, monkeypatch, message,
                                    error):
        """A grid that fits an index but not in memory: the weights' allocation
        fails, which the test stands in for rather than asking for it."""
        def init_weights(*args):
            raise MemoryError(message)

        monkeypatch.setattr(somkit.som, "init_weights", init_weights)
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--label-column", "target",
                   "--head", "regression", "--model", str(model), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == f"somkit: error: out of memory: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reg.csv"]

    @pytest.mark.parametrize("key, value, error", [
        ("lr_start", -0.5, "lr_schedule: schedule start must be positive, got -0.5"),
        ("radius_start", float("nan"),
         "radius_schedule: schedule start must be positive, got nan"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("n_row", 0, "grid must have at least one node"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_bad_flag_value_is_usage_error(self, tmp_path, reg_csv, capsys, source, key, value,
                                           error):
        """A value SomConfig rejects is worded alike from a flag and from a
        config file, which the message then names."""
        flag = "--" + key.replace("_", "-")
        # FAST without the flag of ``key``, which would override the file
        fast = [v for pair in zip(FAST[::2], FAST[1::2]) if pair[0] != flag for v in pair]
        if source == "flag":
            given = [flag, str(value)]
        else:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({key: value}))
            given = ["--config", str(cfg_file)]
            error = f"{cfg_file}: {error}"
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--model", str(model), *given, *fast])
        assert rc == 1
        assert capsys.readouterr().err == f"somkit: error: {error}\n"
        assert not model.exists()

    @pytest.mark.parametrize("key, value, error", [
        *[(key, 2**70, f"{key} must be <= {np.iinfo(np.intp).max}, got {2**70}")
          for key in ("n_iter_unsupervised", "n_iter_supervised", "n_row", "n_column")],
        ("n_row", 2**1100, f"n_row must be <= {np.iinfo(np.intp).max}, got {2**1100}"),
        ("radius_start", 1e200, "radius_schedule: start 1e+200 is too large, as the "
                                "kernel's 2 sigma^2 overflows"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_size_past_an_index_is_usage_error(self, tmp_path, blob_csv, capsys, command,
                                               source, key, value, error):
        """Grid sides and iteration counts past an index, and radii whose
        square overflows, are usage errors, not tracebacks or numpy warnings
        from the schedules, the grid or the kernel."""
        flag = "--" + key.replace("_", "-")
        if source == "flag":
            given = [flag, str(value)]
        else:
            cfg_file = tmp_path / "run.json"
            cfg_file.write_text(json.dumps({key: value}))
            given, error = ["--config", str(cfg_file)], f"{cfg_file}: {error}"
        small = [v for pair in [("--n-row", "2"), ("--n-column", "2"),
                                ("--n-iter-unsupervised", "20"), ("--n-iter-supervised", "20")]
                 if pair[0] != flag for v in pair]
        model, out = tmp_path / "m.json", tmp_path / "cv.txt"
        run = {"train": ["--model", str(model)], "crossval": ["--k", "2", "--output", str(out)]}
        rc = main([command, "--data", str(blob_csv), "--label-column", "label",
                   "--head", "classification", *run[command], *given, *small])
        assert rc == 1
        assert capsys.readouterr().err == f"somkit: error: {error}\n"
        assert not model.exists() and not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["--n-row", "1.5"], "argument --n-row: invalid int value: '1.5'"),
        (["--metric", "cosine"], "argument --metric: invalid choice: 'cosine' (choose from "
                                 "'euclidean', 'manhattan', 'tanimoto', 'mahalanobis')"),
        (["--seed", "-1e+308"], "argument --seed: expected one argument"),
        (["--warp-speed", "9"], "unrecognized arguments: --warp-speed 9"),
    ])
    def test_flag_parse_error_is_one_somkit_line(self, tmp_path, reg_csv, capsys, argv, error):
        rc = main(["train", "--data", str(reg_csv), "--model", str(tmp_path / "m.json"), *argv])
        assert rc == 1
        assert capsys.readouterr().err == f"somkit: error: {error}\n"

    def test_config_file_value_rejected_with_a_bad_flag_is_not_named(self, tmp_path, reg_csv,
                                                                     capsys):
        """The file is named only where the flags alone are accepted."""
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_row": 0}))
        model = tmp_path / "m.json"
        rc = main(["train", "--data", str(reg_csv), "--model", str(model),
                   "--config", str(cfg_file), "--seed", "-1", "--n-column", "5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("somkit: error: grid must")
        assert not model.exists()

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
        # ints past the float range, which arithmetic would not convert
        {"lr_end": 2**1100}, {"radius_start": -(2**1100)},
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

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_required_and_default_keys_are_the_commands_params(self, name):
        command = _COMMANDS[name]
        assert {*command.required, *command.defaults} <= set(command.params)

    def test_a_bad_config_file_value_is_reported_before_a_missing_value(self, tmp_path,
                                                                        capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n_row": 0}))
        rc = main(["predict", "--config", str(cfg_file), "--model", str(tmp_path / "m.json"),
                   "--output", str(tmp_path / "p.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"somkit: error: {cfg_file}: ")

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


# an edit that sets an entry to this string writes the literal 1e999, which
# JSON reads as infinity
OVERFLOWING = "1e999"

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
    "negative feature_dim": (lambda p: p.update(feature_dim=-1), "'feature_dim'"),
    "negative seed": (lambda p: p["config"].update(seed=-1), "malformed config"),
    "iteration count past an index": (
        lambda p: p["config"].update(n_iter_supervised=2**70),
        f"malformed config: n_iter_supervised must be <= {np.iinfo(np.intp).max}"),
    "overflowing weight": (lambda p: p["weights"].__setitem__(0, OVERFLOWING),
                           "'weights' holds a number outside the float64 range"),
    "overflowing cov_inv entry": (lambda p: p["cov_inv"][0].__setitem__(0, OVERFLOWING),
                                  "'cov_inv' holds a number outside the float64 range"),
    "overflowing scaling min": (lambda p: p["scaling"]["mins"].__setitem__(0, OVERFLOWING),
                                "'mins' holds a number outside the float64 range"),
    "overflowing scaling range": (
        lambda p: p["scaling"]["ranges"].__setitem__(0, OVERFLOWING),
        "'ranges' holds a number outside the float64 range"),
    "overflowing head value": (lambda p: p["head"]["values"].__setitem__(0, OVERFLOWING),
                               "'values' holds a number outside the float64 range"),
    "negative scaling range": (lambda p: p["scaling"]["ranges"].__setitem__(0, -1),
                               "'ranges' holds a negative number"),
    "boolean format version": (lambda p: p.update(format_version=True),
                               "unsupported model format version True"),
    "float format version": (lambda p: p.update(format_version=1.0),
                             "unsupported model format version 1.0"),
    "cov_inv whose symmetric part overflows": (
        lambda p: p["cov_inv"][0].__setitem__(0, 1e308),
        "inverse covariance must be finite, and so must V + V^T"),
}


# case -> (edit of a classification model's JSON, expected error text); the
# model has one feature, so a feature_dim of true would fit its weights
MALFORMED_CLASSIFICATION_MODELS = {
    "fractional class code": (lambda p: p["head"]["codes"].__setitem__(0, 1.5), "'codes'"),
    "boolean class code": (lambda p: p["head"]["codes"].__setitem__(0, True), "'codes'"),
    "boolean feature_dim": (lambda p: p.update(feature_dim=True), "'feature_dim'"),
    "class past int64": (lambda p: p["head"]["class_set"].__setitem__(0, 2**70),
                         "'class_set' holds a number outside the int64 range"),
    "class code past int64": (lambda p: p["head"]["codes"].__setitem__(0, 2**70),
                              "'codes' holds a number outside the int64 range"),
    "null class": (lambda p: p["head"]["class_set"].__setitem__(0, None),
                   "'class_set' must hold strings or numbers"),
}


class TestMalformedModel:
    @pytest.fixture(autouse=True)
    def every_model_gets_a_companion(self, monkeypatch):
        monkeypatch.setattr(somkit.model_io, "_COMPANION_BYTES", 0)

    def _predict_edited(self, tmp_path, capsys, data, train_flags, mutate):
        """Exit code and stderr of predict with a trained model edited by
        ``mutate``; the edit leaves the companion that train wrote in place."""
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--label-column", "target", *train_flags,
                     "--model", str(model_path), *FAST]) == 0
        assert (tmp_path / "m.json.arrays").is_file()
        payload = json.loads(model_path.read_text())
        mutate(payload)
        model_path.write_text(json.dumps(payload).replace(json.dumps(OVERFLOWING), OVERFLOWING))
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
    def test_out_of_memory_is_error(self, tmp_path, reg_csv, capsys, monkeypatch):
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(reg_csv), "--label-column", "target",
                     "--head", "regression", "--model", str(model), *FAST]) == 0

        def nearest(*args):
            raise MemoryError("Unable to allocate 8.0 GiB for an array")

        monkeypatch.setattr(somkit.som, "_nearest", nearest)
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--data", str(reg_csv),
                   "--label-column", "target", "--output", str(tmp_path / "p.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "somkit: error: out of memory: Unable to allocate 8.0 GiB for an array\n")
        assert not (tmp_path / "p.csv").exists()

    def test_row_too_far_outside_the_scaling_is_error(self, tmp_path, capsys):
        """A row 1e308 above a scaling minimum of -1e308 overflows in the scaling."""
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n1,0,1\n-1e308,1,2\n0,0.5,3\n5,0.2,4\n")
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--label-column", "y",
                     "--head", "regression", "--model", str(model), "--minmax-scale",
                     *FAST]) == 0
        (tmp_path / "far.csv").write_text("a,b,y\n1e308,0,1\n")
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--data", str(tmp_path / "far.csv"),
                   "--label-column", "y", "--output", str(tmp_path / "p.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "somkit: error: feature 0 holds a number too far outside its min-max scaling "
            "(minimum -1e+308, range 1e+308); scale it down\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "d.csv", "far.csv", "m.json", "m.resolved.json"]

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

    @pytest.mark.parametrize("command", ["train", "predict", "export-maps"])
    def test_a_run_without_a_head_reads_no_label_column(self, tmp_path, reg_csv, monkeypatch,
                                                        command):
        """The label column is left out of the features unread: numpy's reader
        makes one pass over the file, for the features."""
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(reg_csv), "--label-column", "target",
                     "--head", "regression", "--model", str(model), *FAST]) == 0
        outputs = {"train": ["--model", str(tmp_path / "headless.json"), *FAST],
                   "predict": ["--model", str(model), "--output", str(tmp_path / "p.csv")],
                   "export-maps": ["--model", str(model), "--out-dir", str(tmp_path / "maps")]}
        columns, loadtxt = [], np.loadtxt

        def spy(*args, **kwargs):
            columns.append(kwargs["usecols"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        assert main([command, "--data", str(reg_csv), "--label-column", "target",
                     *outputs[command]]) == 0
        assert columns == [[0, 1]]

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


    @pytest.mark.parametrize("command", ["predict", "evaluate", "export-maps"])
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("width", [2, 4])
    def test_data_of_another_width_is_error(self, tmp_path, capsys, command, scaled, width):
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(write_features(tmp_path / "train.csv", 1.0)),
                     "--label-column", "lab", "--head", "classification",
                     "--minmax-scale" if scaled else "--no-minmax-scale",
                     "--model", str(model_path), *FAST]) == 0
        rows = np.random.default_rng(1).random((40, width)).tolist()
        data = tmp_path / "apply.csv"
        data.write_text(",".join(f"f{j}" for j in range(width)) + ",lab\n" + "".join(
            ",".join(map(repr, r)) + f",{i % 2}\n" for i, r in enumerate(rows)))
        out = {"predict": ["--output", str(tmp_path / "p.csv")],
               "evaluate": [], "export-maps": ["--out-dir", str(tmp_path / "maps")]}[command]
        capsys.readouterr()
        files = sorted(tmp_path.iterdir())
        rc = main([command, "--model", str(model_path), "--data", str(data),
                   "--label-column", "lab", *out])
        assert rc == 2
        expects = "the min-max scaling expects" if scaled else "grid expects"
        assert capsys.readouterr().err == (
            f"somkit: error: data has shape (40, {width}), {expects} dimension 3\n")
        assert sorted(tmp_path.iterdir()) == files  # not even an empty --out-dir


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

    def test_predictions_whose_squared_errors_overflow_are_error(self, tmp_path, reg_csv,
                                                                  capsys):
        """Head values of 1e308 overflow r_squared's sum of squares: a worded
        error, not numpy's RuntimeWarning and a report of -inf."""
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(reg_csv), "--label-column", "target",
                     "--head", "regression", "--model", str(model_path), *FAST]) == 0
        payload = json.loads(model_path.read_text())
        payload["head"]["values"][0] = 1e308
        model_path.write_text(json.dumps(payload))
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--model", str(model_path), "--data", str(reg_csv),
                   "--label-column", "target", "--output", str(report)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "somkit: error: r_squared: the squared differences of the labels or predictions "
            "overflow; scale the labels down\n")
        assert not report.exists()

    @pytest.mark.parametrize("command", ["evaluate", "crossval"])
    def test_classification_reports_do_not_import_numpy_ma(self, tmp_path, blob_csv, command):
        """numpy.ma costs every process that imports it about 16 ms."""
        model_path = tmp_path / "m.json"
        assert main(["train", "--data", str(blob_csv), "--label-column", "label",
                     "--head", "classification", "--model", str(model_path), *FAST]) == 0
        args = {
            "evaluate": ["evaluate", "--model", str(model_path)],
            "crossval": ["crossval", "--head", "classification", "--k", "3", *FAST],
        }[command]
        args += ["--data", str(blob_csv), "--label-column", "label",
                 "--output", str(tmp_path / "report.txt")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys\nfrom somkit.cli import main\n"
                f"rc = main({args!r})\nprint(rc, 'numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.stdout, proc.stderr) == ("0 False\n", "")

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


def _trained_alone(config, data, head, scale, fold):
    """The model of one fold trained by the public fits, with the fold's streams."""
    scaling = None
    if scale:
        data, scaling = minmax_scale(data)
    grid, cov_inv = fit_unsupervised(data.X, config, phase_rng(config.seed, "unsupervised", fold))
    fit_head = {"regression": fit_regressor, "classification": fit_classifier}.get(head)
    head_model = None if fit_head is None else fit_head(
        grid, data.X, data.y, config, phase_rng(config.seed, "supervised", fold), cov_inv)
    return SomModel(config, grid, cov_inv, scaling, head_model)


@pytest.mark.parametrize("case", sorted(STACKED_FOLD_CASES))
def test_folds_trained_together_equal_folds_trained_alone(tmp_path, monkeypatch, case):
    """Every fold of crossval's stacked training saves the bytes of the public
    fits run on that fold alone."""
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
    models = _train_models(config, [train for train, _ in folds], head, scale,
                           [(i,) for i in range(len(folds))])
    monkeypatch.undo()
    if case.endswith("-ties"):
        assert reranks
    for i, ((train, _), model) in enumerate(zip(folds, models)):
        save_model(model, tmp_path / "together.json")
        save_model(_trained_alone(config, train, head, scale, i), tmp_path / "alone.json")
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

    def test_diverging_online_training_is_error(self, tmp_path, capsys):
        data, out = write_features(tmp_path / "unit.csv", 1.0), tmp_path / "cv.txt"
        rc = main(["crossval", "--data", str(data), "--label-column", "lab",
                   "--head", "classification", "--k", "3", "--output", str(out), *DIVERGING])
        assert rc == 2
        assert capsys.readouterr().err == DIVERGED_ERROR
        assert not out.exists()

    def test_diverging_regression_head_is_error(self, tmp_path, capsys):
        data, out = write_sums(tmp_path / "sums.csv"), tmp_path / "cv.txt"
        rc = main(["crossval", "--data", str(data), "--label-column", "target",
                   "--k", "3", "--output", str(out), *DIVERGING_HEAD])
        assert rc == 2
        assert capsys.readouterr().err == HEAD_DIVERGED_ERROR
        assert not out.exists()

    def test_regression_labels_past_the_float_range_are_error(self, tmp_path, capsys):
        # each training fold holds at least 4 of the 5 rows of 1e308 and of -1e308
        data, out = write_wide_targets(tmp_path / "wide.csv", 5), tmp_path / "cv.txt"
        rc = main(["crossval", "--data", str(data), "--label-column", "target",
                   "--head", "regression", "--k", "5", "--output", str(out), *FAST])
        assert rc == 2
        assert capsys.readouterr().err == WIDE_TARGETS_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("scale", [[], ["--minmax-scale"]])
    def test_feature_range_past_the_float_range_is_error(self, tmp_path, capsys, scale):
        # each training fold holds at least 4 of the 5 rows of 1e308 and of -1e308
        data, out = write_wide_feature(tmp_path / "wide.csv", 5), tmp_path / "cv.txt"
        rc = main(["crossval", "--data", str(data), "--label-column", "y",
                   "--head", "regression", "--k", "5", "--output", str(out), *FAST, *scale])
        assert rc == 2
        assert capsys.readouterr().err == WIDE_FEATURE_ERROR
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.csv"]

    @pytest.mark.parametrize("flag, value, error", [
        ("--k", "1", "k must be >= 2, got 1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, blob_csv, capsys, flag, value, error):
        rc = main(["crossval", "--data", str(blob_csv), "--label-column", "label",
                   "--head", "classification", "--k", "3", flag, value, *FAST])
        assert rc == 1
        assert capsys.readouterr().err == f"somkit: error: {error}\n"


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


# a short row and a long row; their commas add up to those of two full rows,
# and a run without a head reads no field of the last column
@pytest.mark.parametrize("command", ["predict", "export-maps", "train"])
def test_ragged_rows_before_a_last_label_exit_2_and_write_nothing(tmp_path, capsys, command):
    train = tmp_path / "train.csv"
    train.write_text("a,b,y\n" + "".join(f"{i % 5},{i % 3},{i % 2}\n" for i in range(30)))
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(train), "--label-column", "y",
                 "--head", "classification", "--model", str(model_path), *FAST]) == 0
    data = tmp_path / "ragged.csv"
    data.write_text("a,b,y\n1,2\n3,4,5\n6,7,8,9\n")
    out = tmp_path / "out"
    argv = {"predict": ["--model", str(model_path), "--output", str(out)],
            "export-maps": ["--model", str(model_path), "--out-dir", str(out)],
            "train": ["--model", str(out), *FAST]}[command]
    capsys.readouterr()
    assert main([command, "--data", str(data), "--label-column", "y", *argv]) == 2
    assert capsys.readouterr().err == (
        f"somkit: data error: {data}: row 1 has 2 fields, expected 3\n")
    assert not out.exists()


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
