"""Golden outputs: fixed-seed CLI runs must stay byte-identical.

Each case trains a desk-sized map through the CLI, predicts with it, and
compares the SHA-256 of ``model.json``, of the predictions CSV and of the
resolved-config sidecar (its path entries left out) with hashes recorded
before the code they cover was refactored. Together the cases cover the
four metrics, both update modes, both supervised heads, both kernels, class
weighting and every learning-rate and radius schedule kind, some of them
set through a ``--config`` file. Other cases pin paths of the sampled
training loop: online fits whose nodes collapse onto two points, one of
them with nodes that tie in the BMU search and are re-ranked exactly, a
mexican-hat class-weighted head whose raw flip probability leaves [0, 1] on
both sides, and heads trained for zero iterations. Pinned the same way are two
``crossval --k 3`` reports, the ``predict`` sidecar, an ``evaluate`` report
with a train section, ``export-maps`` for each head kind, predictions from
model files of format version 1 kept under ``tests/data``, and the
``--help`` text of ``somkit`` and of each command at 80 columns. Records
are hashed without their path entries, which differ between runs. The
inputs are generated here from numpy alone, so a change to ``somkit``'s
synthetic data helpers cannot change them.

The hashes pin the arithmetic of this numpy build and its BLAS: batch mode
and the mahalanobis covariance go through matrix products whose rounding
another BLAS may legitimately change. The ``--help`` hashes pin this
Python's argparse layout. A refactor that is meant to keep
outputs identical must keep every hash; one that changes numerics on
purpose records the new hashes together with the reason.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import somkit.cli
import somkit.distances
from somkit import seeding
from somkit.cli import main
from somkit.schedules import learning_rate, neighborhood_radius
from somkit.som import SomConfig, kernel_values
from somkit.supervised import class_weights

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


def _two_point_data(rng):
    """200 copies of two points: online training collapses nodes onto each point."""
    points = rng.uniform(0.0, 1.0, size=(2, 2))
    X = points[rng.integers(2, size=200)]
    return X, [repr(v) for v in X.sum(axis=1).tolist()]


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
    "ties-online-regression": (
        _two_point_data, "regression", ["--lr-start", "1.0"], None, None),
    # At radius 1e9 the kernel rounds to 1 on every node, so the first pull
    # moves every node onto the datapoint and the nodes stay equal, or within
    # rounding, until the radius shrinks: their BMU scores tie.
    "duplicate-nodes-online-regression": (
        _two_point_data, "regression",
        ["--lr-start", "1.0", "--radius-schedule", "start-end", "--radius-start", "1e9",
         "--radius-end", "1.0"], None, None),
    "mexican-hat-class-weighting-classification": (
        _imbalanced_blob_data, "classification", ["--kernel", "mexican-hat", "--class-weighting"],
        None, None),
    "no-supervised-iterations-regression": (
        _regression_data, "regression", ["--n-iter-supervised", "0"], None, None),
    "no-supervised-iterations-classification": (
        _blob_data, "classification", ["--n-iter-supervised", "0"], None, None),
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
        "743a9b9f2c704b7b6ae580f2fac448b85fbd44eb33b4419dfc725604bc6730e6",
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
        "d04af2c1d121100e34bafff02b9cc2cdac709e4b759fd6884d7ee3abb823654c",
        "680ae60e959d9ba4108d009de81427dee1bb2c391c1c46c47f24c3d7e6def0a9",
        "14c22690dc0bbf3dfe3ebeee1ee076b2da5677417ced55414cb7c685e75f5543"),
    "mahalanobis-online-regression": (
        "1a6fa1feb6dda8efe625cffcf845b73eb7ef241bfd82140dff234bf68e838aa9",
        "88b05ee30259c3be9f4d42faadcf1d5a6c4cfa7c8b0784efa0feb5cab9447098",
        "84675fa0e8f3fdfd51a39fc45ad2bc5ab1f5df9ee87021ff61a5e63afcd054c3"),
    "manhattan-batch-regression": (
        "d6c3f82d21e7604c2031286d192259a4fb4fd49c10c03d1d3fb8da15d1974917",
        "b41a6491c96e4c3633d79dc3008a80e9da9d35ae9fac2a922fa368df91f8ff7d",
        "100b3b664adc5955ceb6b9aae8db532145574ca7f5d7bf530b172eaf539f16d3"),
    "manhattan-online-classification": (
        "159847bd9d3556ec52ce6e17395c8a43703759150a84d2acd34f4d9d902aa3b3",
        "83ae379837f26034f3013f8b349c532f06665da5460721f374fc03d379cfdc2e",
        "8333ac0fd435b618a27ae5a02c242fd5984621a866de8f810ee57ec1224df06a"),
    "mexican-hat-batch-classification": (
        "d3b0951781129c81370beccf58b2b4a3e3e35e1ca5180300cce6c624c572879d",
        "0f3fac6f5b6f5730369c36f5e0d2d7533dbe88e4c6a9d1fda50590576ba25d65",
        "2dc1a548c579996783988df57c70fad7fe175a85696476089f1b21764dc0ff7b"),
    "mexican-hat-class-weighting-classification": (
        "29008a8c79683bba2f4dfc90cd9c784291a43a357a78f30939f30f10605a1355",
        "a84a7a10ce2368c60f92add648bde4adf252ab7ad664434364ba08af5f2256ec",
        "9bc625673df19415a04253ed2399a824fb3d90a64fc8e21619486f3b1cb349e8"),
    "mexican-hat-online-regression": (
        "5c65f88bd9f7358ba2a1931b04d9ce335489143b7640bb9d04109462f0b6cbb3",
        "a2b1425c0ffd175f7a6ba5e2aadce47ced53443875949731f4291f65f02a6bf8",
        "acf2ac80c74e9c031cd04259c98e20b8fccce605ac6ae174f93f00107eef501a"),
    "no-supervised-iterations-classification": (
        "673e1516f6f8d1944d86b5cd5987a170977772ff9b4324305ccae07fcaf38f11",
        "3e470ae34811e446aacf6ecc422a81deff42aa8e0f7c96aeb78c363b005e6c11",
        "b56e09917cc3bcb8bd27235e5778113f9fe0556fa73ebb9ba1aa9e3eb883ab51"),
    "no-supervised-iterations-regression": (
        "90395d0510a4bd05a05c3978fff6f7d429b68a7ce15f7a02ecaccc305832e217",
        "6fe2a87a2b70d0586989273abf796798963168bf7565edcde1bb0a00dedc8d83",
        "884e9a79c6b04957adb8ac0b7d392bbae217f3a57385ab84bfab0fe348a74418"),
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
    "ties-online-regression": (
        "cf9013e11a3fd4b7cff914ee42e5f013f45b8f694d67c86aba5548fe3f3c2831",
        "ad4c478c5de78edf728398a15f88cfed7a55f42e75a8dc02f537b507bf04e4f9",
        "82063f13a1b9e14dc8ab7bd9191bafc77d546a6031f086e2813895385b83f351"),
    "duplicate-nodes-online-regression": (
        "656224254e9db01ce5550142e2f364846b3450b3eff05dd3c6d0864498364655",
        "f34c3e50794a175e27cfa4f08b85346d66a18cb092691776e236bdbb959a14db",
        "92b4a4d8fb7605262e53543329b2a4ec0c877edf6fd7c630b5c7a80ba2af4df5"),
}

# head -> sha256 of a ``crossval --k 3`` report without its resolved_config line
GOLDEN_CROSSVAL = {
    "classification":
        "b14c0ef18df17ae07464e6047abeae197cbbc2e24e74d25a474aac1a1a52c476",
    "regression":
        "37b01b8518d98274635c5ee73f87aaf26c8f2b12aa70cffb35d69392ff9877df",
}

# head -> sha256 of the record on that report's resolved_config line, without
# its path entries
GOLDEN_CROSSVAL_RECORD = {
    "classification":
        "72676b6c532cc20481b46207120f1c52051832b5368cef5c49eaa01f43f6f22b",
    "regression":
        "03354961820f1d030e528718dea603592ff05d2b288c4f31c5b098567ca08c7e",
}

# case -> {output -> sha256}; each record is hashed without its path entries
GOLDEN_COMMANDS = {
    "evaluate-train-data-classification": {
        "report": "db47706e1c9088fde245da4e19165777f2c8636191c500709b4d3b783b14a6dc",
        "record": "697c518d6cd5b416bb6ce4859edc21678d408dca8424480f233c9cf34a1366a2"},
    "export-maps-classification": {
        "bmu_histogram.csv": "5c5d9ddf8edc6a9acb7296c748686900512c363e1d1bff29db6c3004164c0802",
        "output_map.csv": "8fefdf7b89edb6317ceb5853316524c009913c06ee6c2a8deb120771b26eed4d",
        "maps.resolved.json":
            "daf9b3405d22874fcc15fc1e079cd8ffe1296e68d2f9c19268e41bf48a15e7ce"},
    "export-maps-none": {
        "bmu_histogram.csv": "5c5d9ddf8edc6a9acb7296c748686900512c363e1d1bff29db6c3004164c0802",
        "maps.resolved.json":
            "daf9b3405d22874fcc15fc1e079cd8ffe1296e68d2f9c19268e41bf48a15e7ce"},
    "export-maps-regression": {
        "bmu_histogram.csv": "421a5990d5f5fe73fc28f86da721829c2761006e64a21d1ab44aa1254eae6f65",
        "output_map.csv": "782a5f97babd42905a2ac17b18ed097377feeeab837986bd421458e95d73edd6",
        "maps.resolved.json":
            "daf9b3405d22874fcc15fc1e079cd8ffe1296e68d2f9c19268e41bf48a15e7ce"},
    "predict-regression": {
        "pred.resolved.json":
            "59bc2836ffe3980b6f73a789c86f31c3ebfad07ceddae0d238d3986481a3feb4"},
}

# command line before --help -> sha256 of the help text at COLUMNS=80
GOLDEN_HELP = {
    "somkit": "b466d71dd1eaf10fee1a3c0dc081ef8ad36bd63435c8ac3e82cb67e5f6668ab5",
    "crossval": "016e00653be294bcabf2f8985d4bffda722bca5f4928e81b41c74158a5c1e6f2",
    "evaluate": "a6f4207b43a24ce2cdb7cdba0a543841a5534cb2bb07dff5b68e41b98067d45f",
    "export-maps": "b766d14488cea5c118383401c1883038a0ffbdcd121f5e1525bddc3bd61d3fa0",
    "predict": "64d528973523f21ce9d84733f46082c73be3e23ecdfefa17f23201d9386dcb59",
    "train": "5112627295af4612d76242a35cf288694fbad414bf699f936407424ba0dc5e40",
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


def _record_sha256(record, *paths):
    """Hash of a resolved-config record without its entries ``paths``, which must exist."""
    for key in paths:
        del record[key]
    return _sha256(json.dumps(record, sort_keys=True).encode())


def _run_case(tmp_path, name):
    make_data, head, flags, config, post = CASES[name]
    data = _data_csv(tmp_path, make_data)
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["train", "--data", str(data), "--label-column", "label", "--head", head,
                 "--model", str(model), *COMMON, *flags,
                 *_config_flags(tmp_path, config)]) == 0
    sidecar = json.loads((tmp_path / "model.resolved.json").read_text(encoding="utf-8"))
    if post is not None:
        post(model)
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--label-column", "label", "--output", str(pred)]) == 0
    return (_sha256(model.read_bytes()), _sha256(pred.read_bytes()),
            _record_sha256(sidecar, "data", "model"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(tmp_path, name):
    assert _run_case(tmp_path, name) == GOLDEN[name]


def test_tie_case_reranks_during_the_online_fit(tmp_path, monkeypatch):
    """The duplicate-nodes case pins outputs that went through the BMU search's exact re-rank."""
    fitting, reranks = [], []
    fit, exact = somkit.cli.fit_unsupervised, somkit.distances._exact

    def counted_fit(*args, **kwargs):
        fitting.append(True)
        try:
            return fit(*args, **kwargs)
        finally:
            fitting.pop()

    def counted_exact(*args, **kwargs):
        reranks.extend(fitting)
        return exact(*args, **kwargs)

    monkeypatch.setattr(somkit.cli, "fit_unsupervised", counted_fit)
    monkeypatch.setattr(somkit.distances, "_exact", counted_exact)
    name = "duplicate-nodes-online-regression"
    assert _run_case(tmp_path, name) == GOLDEN[name]
    assert reranks


class _DrawRecorder:
    """A generator that records what ``integers`` returned."""

    def __init__(self, rng):
        self._rng, self.draws = rng, []

    def integers(self, *args, **kwargs):
        self.draws.append(self._rng.integers(*args, **kwargs))
        return self.draws[-1]

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_class_weighting_case_takes_flip_probabilities_past_0_and_1(tmp_path, monkeypatch):
    """In the mexican-hat class-weighting case the raw flip probability
    class-weight x learning-rate x kernel leaves [0, 1] on both sides."""
    recorders = []

    def recording_rng(seed, phase, *extra):
        rng = seeding.phase_rng(seed, phase, *extra)
        if phase == "supervised":
            recorders.append(_DrawRecorder(rng))
            return recorders[-1]
        return rng

    monkeypatch.setattr(somkit.cli, "phase_rng", recording_rng)
    name = "mexican-hat-class-weighting-classification"
    assert _run_case(tmp_path, name) == GOLDEN[name]
    (recorder,) = recorders
    _, labels = _imbalanced_blob_data(np.random.default_rng(20190327))
    weights = class_weights(labels, enabled=True)
    config = SomConfig(n_row=8, n_column=8, n_iter_unsupervised=300, n_iter_supervised=300)
    lr = replace(config.lr_schedule, t_max=300)
    radius = replace(config.radius_schedule, t_max=300)
    assert len(recorder.draws) == 300
    # the kernel is 1 at the BMU
    at_bmu = [weights[labels[j]] * learning_rate(t, lr) for t, j in enumerate(recorder.draws)]
    assert max(at_bmu) > 1
    # every node of an 8x8 grid has another at offset (4 or -4, 4 or -4)
    far = [kernel_values(np.hypot(4, 4), neighborhood_radius(t, radius), "mexican-hat")
           for t in range(300)]
    assert min(far) < 0 and min(at_bmu) > 0


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
    record = json.loads(lines[-1].removeprefix("resolved_config: "))
    assert _record_sha256(record, "data", "output") == GOLDEN_CROSSVAL_RECORD[head]


def _command_outputs(tmp_path, case):
    """Train a model for ``case`` and run its command; hash what the command wrote."""
    command, head = case.rsplit("-", 1)
    data = _data_csv(tmp_path, _regression_data if head == "regression" else _blob_data)
    model = tmp_path / "model.json"
    head_flags = [] if head == "none" else ["--head", head]
    assert main(["train", "--data", str(data), "--label-column", "label", *head_flags,
                 "--model", str(model), *COMMON]) == 0
    paths = ["--model", str(model), "--data", str(data), "--label-column", "label"]
    if command == "predict":
        assert main(["predict", *paths, "--output", str(tmp_path / "pred.csv")]) == 0
        record = json.loads((tmp_path / "pred.resolved.json").read_text(encoding="utf-8"))
        return {"pred.resolved.json": _record_sha256(record, "model", "data", "output")}
    if command == "evaluate-train-data":
        report = tmp_path / "report.txt"
        assert main(["evaluate", *paths, "--train-data", str(data),
                     "--output", str(report)]) == 0
        lines = report.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[-1].startswith("resolved_config: ")
        record = json.loads(lines[-1].removeprefix("resolved_config: "))
        return {"report": _sha256("".join(lines[:-1]).encode()),
                "record": _record_sha256(record, "model", "data", "train_data", "output")}
    out_dir = tmp_path / "maps"
    assert main(["export-maps", *paths, "--out-dir", str(out_dir)]) == 0
    record = json.loads((out_dir / "maps.resolved.json").read_text(encoding="utf-8"))
    hashes = {"maps.resolved.json": _record_sha256(record, "model", "data", "out_dir")}
    for name in ("bmu_histogram.csv", "output_map.csv"):
        if (out_dir / name).exists():
            hashes[name] = _sha256((out_dir / name).read_bytes())
    return hashes


@pytest.mark.parametrize("case", sorted(GOLDEN_COMMANDS))
def test_golden_command_outputs(tmp_path, case):
    assert _command_outputs(tmp_path, case) == GOLDEN_COMMANDS[case]


@pytest.mark.parametrize("name", sorted(GOLDEN_HELP))
def test_golden_help(monkeypatch, capsys, name):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*([] if name == "somkit" else [name]), "--help"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_HELP[name]


@pytest.mark.parametrize("fixture", sorted(GOLDEN_V1_MODELS))
def test_format_v1_model_fixture_predicts(tmp_path, fixture):
    make_data = _regression_data if "regression" in fixture else _blob_data
    data = _data_csv(tmp_path, make_data)
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(DATA_DIR / fixture), "--data", str(data),
                 "--label-column", "label", "--output", str(pred)]) == 0
    assert _sha256(pred.read_bytes()) == GOLDEN_V1_MODELS[fixture]
