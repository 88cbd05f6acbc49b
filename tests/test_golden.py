"""Golden outputs: fixed-seed CLI runs must stay byte-identical.

Each case trains a desk-sized map through the CLI, predicts with it, and
compares the SHA-256 of ``model.json``, of the predictions CSV and of the
resolved-config sidecar (its path entries left out) with hashes recorded
before the code they cover was refactored. Together the cases cover the
four metrics, both update modes, both supervised heads, both kernels, class
weighting and every learning-rate and radius schedule kind, some of them
set through a ``--config`` file. Two ``crossval --k 3`` reports (without
their path-bearing ``resolved_config`` line) and predictions from model
files of format version 1 kept under ``tests/data`` are pinned the same
way. The inputs are generated here from numpy alone, so a change to
``somkit``'s synthetic data helpers cannot change them.

The hashes pin the arithmetic of this numpy build and its BLAS: batch mode
and the mahalanobis covariance go through matrix products whose rounding
another BLAS may legitimately change. A refactor that is meant to keep
outputs identical must keep every hash; one that changes numerics on
purpose records the new hashes together with the reason.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from somkit.cli import main

DATA_DIR = Path(__file__).parent / "data"


def _write_csv(path, X, labels):
    lines = [",".join([f"f{i}" for i in range(X.shape[1])] + ["label"])]
    lines += [",".join(map(repr, row)) + "," + lab for row, lab in zip(X.tolist(), labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _regression_data(rng):
    X = rng.uniform(0.0, 1.0, size=(200, 2))
    y = X[:, 0] + X[:, 1] + rng.normal(0.0, 0.05, size=200)
    return X, [repr(v) for v in y.tolist()]


def _blob_data(rng):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    labels = rng.integers(3, size=200)
    X = centers[labels] + rng.normal(size=(200, 2))
    return X, [f"c{k}" for k in labels.tolist()]


def _imbalanced_blob_data(rng):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    labels = rng.choice(3, size=200, p=[0.7, 0.2, 0.1])
    X = centers[labels] + rng.normal(size=(200, 2))
    return X, [f"c{k}" for k in labels.tolist()]


def _binary_data(rng):
    prototypes = rng.integers(0, 2, size=(3, 10))
    labels = rng.integers(3, size=200)
    flips = rng.random((200, 10)) < 0.15
    X = np.where(flips, 1 - prototypes[labels], prototypes[labels]).astype(float)
    return X, [f"c{k}" for k in labels.tolist()]


def _as_tanimoto_map(model_path):
    """Round a trained map's weights to 0/1 and switch it to the tanimoto metric.

    Training under tanimoto fails: initial and updated weights leave {0, 1},
    and tanimoto BMU search rejects them. So this case drives tanimoto BMU
    search through ``predict`` on a binary map.
    """
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    payload["weights"] = [float(w >= 0.5) for w in payload["weights"]]
    payload["config"]["metric"] = "tanimoto"
    model_path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


# name -> (data, head, CLI flags, --config file values or None, step between
# train and predict)
CASES = {
    "euclidean-online-regression": (
        _regression_data, "regression", ["--metric", "euclidean"], None, None),
    "euclidean-batch-classification": (
        _blob_data, "classification", ["--metric", "euclidean", "--update-mode", "batch"],
        None, None),
    "manhattan-online-classification": (
        _blob_data, "classification", ["--metric", "manhattan"], None, None),
    "manhattan-batch-regression": (
        _regression_data, "regression",
        ["--metric", "manhattan", "--update-mode", "batch", "--minmax-scale"], None, None),
    "mahalanobis-online-regression": (
        _regression_data, "regression", ["--metric", "mahalanobis", "--minmax-scale"],
        None, None),
    "mahalanobis-batch-classification": (
        _blob_data, "classification", ["--metric", "mahalanobis", "--update-mode", "batch"],
        None, None),
    "tanimoto-predict-classification": (
        _binary_data, "classification", ["--metric", "euclidean"], None, _as_tanimoto_map),
    "mexican-hat-online-regression": (
        _regression_data, "regression", ["--kernel", "mexican-hat"], None, None),
    "mexican-hat-batch-classification": (
        _blob_data, "classification", [],
        {"kernel": "mexican-hat", "update_mode": "batch"}, None),
    "class-weighting-classification": (
        _imbalanced_blob_data, "classification", ["--class-weighting"], None, None),
    "class-weighting-config-classification": (
        _imbalanced_blob_data, "classification", ["--metric", "manhattan"],
        {"class_weighting": True, "lr_schedule": "linear", "lr_start": 0.8}, None),
    "lr-inverse-regression": (
        _regression_data, "regression", ["--lr-schedule", "inverse", "--lr-start", "0.9"],
        None, None),
    "lr-linear-regression": (
        _regression_data, "regression", [], {"lr_schedule": "linear", "lr_start": 0.7},
        None),
    "lr-power-classification": (
        _blob_data, "classification", [], {"lr_schedule": "power", "lr_start": 0.4}, None),
    "lr-exponential-classification": (
        _blob_data, "classification", ["--lr-schedule", "exponential", "--lr-start", "0.6"],
        None, None),
    "radius-exponential-regression": (
        _regression_data, "regression", ["--minmax-scale"],
        {"radius_schedule": "exponential", "radius_start": 3}, None),
    "radius-start-end-classification": (
        _blob_data, "classification",
        ["--radius-schedule", "start-end", "--radius-start", "4.5", "--radius-end", "0.5"],
        None, None),
    "radius-start-end-config-regression": (
        _regression_data, "regression", [],
        {"radius_schedule": "start-end", "radius_end": 0.25, "minmax_scale": True,
         "kernel": "mexican-hat", "lr_schedule": "exponential"}, None),
}


# name -> (sha256 of model.json, sha256 of the predictions CSV, sha256 of the
# model.resolved.json sidecar without its path entries)
GOLDEN = {
    "class-weighting-classification": (
        "aae650dc389cb2f97c54ceca39965db9370f2787f916072a62be8b53a641e314",
        "7b6f6fdb99e3b432d269003d0a016819a16c6ad0a8041441e7fa81b26a06ba73",
        "ea2a011002d1570c167581d0d9605dc310dbdf2de148305f71c815bc22a619fd"),
    "class-weighting-config-classification": (
        "1c42d4bf0075061cb5114041558e6a034b2595102ec6c943afed3dc9e0d80af6",
        "1edf898dfa1db0cba1b5f31d6ffd915e412c6451aba95af8f64cb9809c53cb26",
        "5f3b579ec8ca98b473cd98bdb78efb6cfc8d5118b65982add2475da64a07823e"),
    "euclidean-batch-classification": (
        "acc933c4dceaceade3e64c285c42fe8deb674b1fbbf0389332a0dab6dee954d0",
        "dbc5e7c199eeb567476c6716e9553fa2d61215b851daee52f3e8383a10d51ca6",
        "6aaad86d149c2f22f17f1773c6d7bdc3717e777a7c4a080b4e438aa96b1adf9b"),
    "euclidean-online-regression": (
        "f37cf8e63af75f08be8111d60d261eb3f562847cf00262e40ae01bdff6cea5a8",
        "3f3c40fd3cfeecbfa5ccd0eb484d13632301b3268d4221c0a091103ade04e19a",
        "cf1decaa2f4c7c38dfd9f81829cbd4efa56fe3722152da843fe754d351642c22"),
    "lr-exponential-classification": (
        "ca2ffea619b57696d6f1d4756a45b653a9224bf8f8e38ee504f137769b36549d",
        "71d7bdd483665ee53b9b654de83c4de505afe30f516bdbd42d8817b57f535b8e",
        "17e2325132cc1340fd580c8bf86a46d6d55025b9f7780c52a3b8a9162ef45d80"),
    "lr-inverse-regression": (
        "04b5018258b3ce3e12d9e33224ada13911c4fe4ff46dfb8be2ffbc055c9dadbe",
        "3efe0bb26814a53e5e436c5a77792c9ff83b7ab08d48bcf23579d65e4b219066",
        "c93eb329c3ebc940d0dd0fc56ed781a953716dbf1ef390a68ee1f9718a982479"),
    "lr-linear-regression": (
        "624635b3498caaedabb3c7405398ab5a870aff7d2f36c95032ef6ab4cef0b11e",
        "c2ac5906d23e968f333159eaf88ea9cecf41e2dc549e31c03ed7b8c2722f2c7d",
        "93163fe8b2c9b68fa2c6b629e28ac7539814c01fdee739fa9069477e1dd245bc"),
    "lr-power-classification": (
        "b9ba48e10fa3ed268c40f5088afb065485614d7fe0fc67831ccbd5c96de90ced",
        "5bdbb4ad1079aba2283a46d7277c65a6f0cbd573afa701a5cbca7b989abe5016",
        "5777e7b5f166bf8b4f80ec907dd97c87083a6f7ae4317d34b017be285aa5ae10"),
    "mahalanobis-batch-classification": (
        "260dae685b2a01ab35b29d806869e5ece59b19ae44d531b6789987a8aed66ff3",
        "680ae60e959d9ba4108d009de81427dee1bb2c391c1c46c47f24c3d7e6def0a9",
        "14c22690dc0bbf3dfe3ebeee1ee076b2da5677417ced55414cb7c685e75f5543"),
    "mahalanobis-online-regression": (
        "1a6fa1feb6dda8efe625cffcf845b73eb7ef241bfd82140dff234bf68e838aa9",
        "88b05ee30259c3be9f4d42faadcf1d5a6c4cfa7c8b0784efa0feb5cab9447098",
        "84675fa0e8f3fdfd51a39fc45ad2bc5ab1f5df9ee87021ff61a5e63afcd054c3"),
    "manhattan-batch-regression": (
        "924af900c0e6ed747da10af58134e2c2bddba8e1c910db15f2893b8783b853b3",
        "b41a6491c96e4c3633d79dc3008a80e9da9d35ae9fac2a922fa368df91f8ff7d",
        "100b3b664adc5955ceb6b9aae8db532145574ca7f5d7bf530b172eaf539f16d3"),
    "manhattan-online-classification": (
        "159847bd9d3556ec52ce6e17395c8a43703759150a84d2acd34f4d9d902aa3b3",
        "83ae379837f26034f3013f8b349c532f06665da5460721f374fc03d379cfdc2e",
        "8333ac0fd435b618a27ae5a02c242fd5984621a866de8f810ee57ec1224df06a"),
    "mexican-hat-batch-classification": (
        "532760a2df9da1f81746c300cdd8e03c0c18af72cf85bf1b8761aa1464c505d1",
        "0f3fac6f5b6f5730369c36f5e0d2d7533dbe88e4c6a9d1fda50590576ba25d65",
        "2dc1a548c579996783988df57c70fad7fe175a85696476089f1b21764dc0ff7b"),
    "mexican-hat-online-regression": (
        "5c65f88bd9f7358ba2a1931b04d9ce335489143b7640bb9d04109462f0b6cbb3",
        "a2b1425c0ffd175f7a6ba5e2aadce47ced53443875949731f4291f65f02a6bf8",
        "acf2ac80c74e9c031cd04259c98e20b8fccce605ac6ae174f93f00107eef501a"),
    "radius-exponential-regression": (
        "6e5034fcc39f25df904d87cc4806e4190688a82e374831860c90344f9e31eab1",
        "e36da04abe9bd5501162f4fea528f83f6567911b0d12bbc797f29cbef5ebff4d",
        "c647870cc12f22358c5dca3d3cdb1563257b2813f1d18de87c1e06e571f16d0e"),
    "radius-start-end-classification": (
        "5c103f9b87b29a7958aa92a76f31e4692abb1dd90980a18bbb4ae1f28daa2dc0",
        "348ab1d57067990e95899580799ea3a872b292f04ab654570da3ca88e4d14253",
        "29de1a853e2ff8e20a244fb0d2236c605135a9599f8f41c0f11ce4435e29cbdb"),
    "radius-start-end-config-regression": (
        "519949da4541d1fc8e747b03cfe0b8a05e52675086eef9a824eddb5c93c144b4",
        "178d4338f226ab0843a8f8eacebe130a6752e9ee5e8d94fde6d9abed6f56c6fa",
        "f6ca9dfdc96ab3162897aedc4e018b1810a6ad26eb0eab9d3b8e73bdedf38aaf"),
    "tanimoto-predict-classification": (
        "4b8860ba9cbfe4f6e985533c915242f1a7b7f86044bc4b56b93499495361bc41",
        "dc5cc6af8994f2a697689e6b4a388565f05cc5a0a48dd5dcd0dc7f810658edb9",
        "80fbb787057a4d3303a98181ea4472448c82d1836a19ef75de2b6405b00b3218"),
}

# head -> sha256 of a ``crossval --k 3`` report without its resolved_config line
GOLDEN_CROSSVAL = {
    "classification":
        "b14c0ef18df17ae07464e6047abeae197cbbc2e24e74d25a474aac1a1a52c476",
    "regression":
        "37b01b8518d98274635c5ee73f87aaf26c8f2b12aa70cffb35d69392ff9877df",
}

# fixture under tests/data -> sha256 of the predictions CSV for _regression_data
# (regression) or _blob_data (classification)
GOLDEN_V1_MODELS = {
    "v1_classification_euclidean.json":
        "be5f7b20b4520af131e7c371af4f1819edbfa9e029315ac65f4ad3c0e665bb2f",
    "v1_classification_mahalanobis.json":
        "7a064acb05fa1c4d6a1842ae2f9d4b021338465e71af474a61655f2ba4d64fcf",
    "v1_regression_mahalanobis_scaled.json":
        "b72f7a1cddd92dba5a628aa18037b0e9b38eb053aa4fc53c5d25b504a4544dae",
}

COMMON = ["--n-row", "8", "--n-column", "8", "--n-iter-unsupervised", "300",
          "--n-iter-supervised", "300", "--seed", "7"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_csv(tmp_path, make_data):
    X, labels = make_data(np.random.default_rng(20190327))
    data = tmp_path / "data.csv"
    _write_csv(data, X, labels)
    return data


def _config_flags(tmp_path, values):
    if values is None:
        return []
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return ["--config", str(path)]


def _run_case(tmp_path, name):
    make_data, head, flags, config, post = CASES[name]
    data = _data_csv(tmp_path, make_data)
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["train", "--data", str(data), "--label-column", "label", "--head", head,
                 "--model", str(model), *COMMON, *flags,
                 *_config_flags(tmp_path, config)]) == 0
    sidecar = json.loads((tmp_path / "model.resolved.json").read_text(encoding="utf-8"))
    del sidecar["data"], sidecar["model"]
    if post is not None:
        post(model)
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--label-column", "label", "--output", str(pred)]) == 0
    return (_sha256(model.read_bytes()), _sha256(pred.read_bytes()),
            _sha256(json.dumps(sidecar, sort_keys=True).encode()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(tmp_path, name):
    assert _run_case(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("head", sorted(GOLDEN_CROSSVAL))
def test_golden_crossval_report(tmp_path, head):
    make_data = _regression_data if head == "regression" else _blob_data
    data = _data_csv(tmp_path, make_data)
    report = tmp_path / "cv.txt"
    config = {"minmax_scale": True} if head == "regression" else {"kernel": "mexican-hat"}
    assert main(["crossval", "--data", str(data), "--label-column", "label",
                 "--head", head, "--k", "3", "--output", str(report), *COMMON,
                 *_config_flags(tmp_path, config)]) == 0
    lines = report.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[-1].startswith("resolved_config: ")
    assert _sha256("".join(lines[:-1]).encode()) == GOLDEN_CROSSVAL[head]


@pytest.mark.parametrize("fixture", sorted(GOLDEN_V1_MODELS))
def test_format_v1_model_fixture_predicts(tmp_path, fixture):
    make_data = _regression_data if "regression" in fixture else _blob_data
    data = _data_csv(tmp_path, make_data)
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA_DIR / fixture), "--data", str(data),
                 "--label-column", "label", "--output", str(pred)]) == 0
    assert _sha256(pred.read_bytes()) == GOLDEN_V1_MODELS[fixture]
