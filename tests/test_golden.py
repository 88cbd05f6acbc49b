"""Golden outputs: fixed-seed CLI runs must stay byte-identical.

Each case trains a desk-sized map through the CLI, predicts with it, and
compares the SHA-256 of ``model.json`` and of the predictions CSV with the
hashes recorded before any hot path was optimised. Together the cases cover
the four metrics, both update modes and both supervised heads. The inputs
are generated here from numpy alone, so a change to ``somkit``'s synthetic
data helpers cannot change them.

The hashes pin the arithmetic of this numpy build and its BLAS: batch mode
and the mahalanobis covariance go through matrix products whose rounding
another BLAS may legitimately change. A refactor that is meant to keep
outputs identical must keep every hash; one that changes numerics on
purpose records the new hashes together with the reason.
"""

import hashlib
import json

import numpy as np
import pytest

from somkit.cli import main


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


# name -> (data, head, CLI flags, step between train and predict)
CASES = {
    "euclidean-online-regression": (
        _regression_data, "regression", ["--metric", "euclidean"], None),
    "euclidean-batch-classification": (
        _blob_data, "classification", ["--metric", "euclidean", "--update-mode", "batch"],
        None),
    "manhattan-online-classification": (
        _blob_data, "classification", ["--metric", "manhattan"], None),
    "manhattan-batch-regression": (
        _regression_data, "regression",
        ["--metric", "manhattan", "--update-mode", "batch", "--minmax-scale"], None),
    "mahalanobis-online-regression": (
        _regression_data, "regression", ["--metric", "mahalanobis", "--minmax-scale"],
        None),
    "mahalanobis-batch-classification": (
        _blob_data, "classification", ["--metric", "mahalanobis", "--update-mode", "batch"],
        None),
    "tanimoto-predict-classification": (
        _binary_data, "classification", ["--metric", "euclidean"], _as_tanimoto_map),
}


# name -> (sha256 of model.json, sha256 of the predictions CSV)
GOLDEN = {
    "euclidean-batch-classification": (
        "acc933c4dceaceade3e64c285c42fe8deb674b1fbbf0389332a0dab6dee954d0",
        "dbc5e7c199eeb567476c6716e9553fa2d61215b851daee52f3e8383a10d51ca6"),
    "euclidean-online-regression": (
        "f37cf8e63af75f08be8111d60d261eb3f562847cf00262e40ae01bdff6cea5a8",
        "3f3c40fd3cfeecbfa5ccd0eb484d13632301b3268d4221c0a091103ade04e19a"),
    "mahalanobis-batch-classification": (
        "260dae685b2a01ab35b29d806869e5ece59b19ae44d531b6789987a8aed66ff3",
        "680ae60e959d9ba4108d009de81427dee1bb2c391c1c46c47f24c3d7e6def0a9"),
    "mahalanobis-online-regression": (
        "1a6fa1feb6dda8efe625cffcf845b73eb7ef241bfd82140dff234bf68e838aa9",
        "88b05ee30259c3be9f4d42faadcf1d5a6c4cfa7c8b0784efa0feb5cab9447098"),
    "manhattan-batch-regression": (
        "924af900c0e6ed747da10af58134e2c2bddba8e1c910db15f2893b8783b853b3",
        "b41a6491c96e4c3633d79dc3008a80e9da9d35ae9fac2a922fa368df91f8ff7d"),
    "manhattan-online-classification": (
        "159847bd9d3556ec52ce6e17395c8a43703759150a84d2acd34f4d9d902aa3b3",
        "83ae379837f26034f3013f8b349c532f06665da5460721f374fc03d379cfdc2e"),
    "tanimoto-predict-classification": (
        "4b8860ba9cbfe4f6e985533c915242f1a7b7f86044bc4b56b93499495361bc41",
        "dc5cc6af8994f2a697689e6b4a388565f05cc5a0a48dd5dcd0dc7f810658edb9"),
}


def _run_case(tmp_path, name):
    make_data, head, flags, post = CASES[name]
    X, labels = make_data(np.random.default_rng(20190327))
    data = tmp_path / "data.csv"
    _write_csv(data, X, labels)
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    common = ["--n-row", "8", "--n-column", "8", "--n-iter-unsupervised", "300",
              "--n-iter-supervised", "300", "--seed", "7"]
    assert main(["train", "--data", str(data), "--label-column", "label", "--head", head,
                 "--model", str(model), *common, *flags]) == 0
    if post is not None:
        post(model)
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--label-column", "label", "--output", str(pred)]) == 0
    return (hashlib.sha256(model.read_bytes()).hexdigest(),
            hashlib.sha256(pred.read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(tmp_path, name):
    assert _run_case(tmp_path, name) == GOLDEN[name]
