"""Seeded inputs and command lists of the four benchmark workloads.

Each workload is a fixed population (the scene's class spectra, the palette's
colour clusters, the correlated data's mixing matrix), drawn from the constant
``POPULATION_SEED``; the workload seed draws the rows sampled from it, the
train/test split and the CLI's ``--seed``, through
``numpy.random.SeedSequence(seed, spawn_key=(k,))``. So one seed fixes every
input file, and seeds differ the way two samples of one scene differ, not the
way two scenes do. The generators live here, not in
``somkit``, so that a change to the library's synthetic-data helpers cannot
change what the benchmark feeds it.

Sizes are set so that one round of a workload's commands takes a few seconds
on a 2-core machine; see README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Class sizes of the 16 labelled Salinas classes (54129 pixels in total);
# the scene workload keeps their proportions.
SALINAS_CLASS_SIZES = (
    2009, 3726, 1976, 1394, 2678, 3959, 3579, 11271,
    6203, 3278, 1068, 1927, 916, 1070, 7268, 1807,
)


@dataclass
class Command:
    """One ``somkit`` CLI invocation of a round."""

    key: str            # unique within the workload, e.g. "predict"
    kind: str           # the CLI subcommand; groups times under <kind>_s
    args: list[str]
    outputs: list[str]  # files whose bytes must not change between runs
    repeat: int = 1     # runs per untraced round; short commands take more samples


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # what the correctness checks need to know about the generated files
    train_csv: str                     # data the first model was trained on
    model: str                         # that model's JSON
    label_column: str | None
    predictions: list[tuple[str, str, str]] = field(default_factory=list)
    # (model, input csv, predictions csv) triples to spot-check
    reports: dict[str, tuple[str, str]] = field(default_factory=dict)
    # quality name -> (report file, metric line in it)
    maps: tuple[str, str] | None = None  # (bmu_histogram.csv, data csv) to re-derive
    floors: dict[str, tuple[str, float]] = field(default_factory=dict)
    # quality name -> (">=" or "<=", bound)


POPULATION_SEED = 20190327


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _population(workload: str) -> np.random.Generator:
    key = tuple(workload.encode())
    return np.random.default_rng(np.random.SeedSequence(POPULATION_SEED, spawn_key=key))


def _write_csv(path: Path, header: list[str], X: np.ndarray, labels=None, integer=False) -> None:
    fmt = str if integer else repr
    lines = [",".join(header)]
    cells = X.astype(np.int64).tolist() if integer else X.tolist()
    for i, row in enumerate(cells):
        line = ",".join(map(fmt, row))
        if labels is not None:
            line += "," + labels[i]
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _split(n: int, n_test: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def _grid_flags(n_row: int, n_column: int, n_unsup: int, n_sup: int, seed: int) -> list[str]:
    return [
        "--n-row", str(n_row), "--n-column", str(n_column),
        "--n-iter-unsupervised", str(n_unsup), "--n-iter-supervised", str(n_sup),
        "--seed", str(seed),
    ]


def desk(seed: int, workdir: Path) -> Workload:
    """Acceptance-suite scale: 2-d regression and 4-class blobs on a 20x20 grid."""
    rng = _rng(seed, 0)
    X = rng.uniform(0.0, 1.0, size=(600, 2))
    y = X[:, 0] + X[:, 1] + rng.normal(0.0, 0.05, size=600)
    train, test = _split(600, 300, _rng(seed, 1))
    labels = [repr(v) for v in y.tolist()]
    header = ["x0", "x1", "target"]
    _write_csv(workdir / "reg_all.csv", header, X, labels)
    _write_csv(workdir / "reg_train.csv", header, X[train], [labels[i] for i in train])
    _write_csv(workdir / "reg_test.csv", header, X[test], [labels[i] for i in test])

    # 4 unit-variance blobs on a square lattice with spacing 8
    rng = _rng(seed, 2)
    counts = [500] * 4
    centers = np.array([(8.0 * (i // 2), 8.0 * (i % 2)) for i in range(4)])
    Xb = np.vstack([centers[c] + rng.normal(0.0, 1.0, size=(k, 2)) for c, k in enumerate(counts)])
    yb = [str(c) for c, k in enumerate(counts) for _ in range(k)]
    _write_csv(workdir / "blobs.csv", ["x0", "x1", "label"], Xb, yb)

    grid = _grid_flags(20, 20, 2500, 2500, seed)
    reg = ["--label-column", "target"]
    commands = [
        Command("train", "train",
                ["train", "--data", "reg_train.csv", *reg, "--head", "regression",
                 "--model", "reg.json", *grid], ["reg.json"], repeat=3),
        Command("predict", "predict",
                ["predict", "--model", "reg.json", "--data", "reg_test.csv", *reg,
                 "--output", "reg_pred.csv"], ["reg_pred.csv"], repeat=3),
        Command("evaluate", "evaluate",
                ["evaluate", "--model", "reg.json", "--data", "reg_test.csv", *reg,
                 "--output", "reg_eval.txt"], ["reg_eval.txt"], repeat=3),
        Command("export_maps", "export_maps",
                ["export-maps", "--model", "reg.json", "--data", "reg_train.csv", *reg,
                 "--out-dir", "reg_maps"],
                ["reg_maps/bmu_histogram.csv", "reg_maps/output_map.csv"], repeat=3),
        Command("crossval_regression", "crossval",
                ["crossval", "--data", "reg_all.csv", *reg, "--head", "regression",
                 "--k", "5", "--output", "cv_reg.txt", *grid], ["cv_reg.txt"]),
        Command("crossval_classification", "crossval",
                ["crossval", "--data", "blobs.csv", "--label-column", "label",
                 "--head", "classification", "--k", "5", "--output", "cv_cls.txt", *grid],
                ["cv_cls.txt"]),
    ]
    return Workload(
        "desk", commands, "reg_train.csv", "reg.json", "target",
        predictions=[("reg.json", "reg_test.csv", "reg_pred.csv")],
        reports={"test_r2": ("reg_eval.txt", "r_squared"),
                 "test_oa": ("cv_cls.txt", "overall_accuracy_test"),
                 "crossval_r2": ("cv_reg.txt", "r_squared_test")},
        maps=("reg_maps/bmu_histogram.csv", "reg_train.csv"),
        floors={"test_r2": (">=", 0.90), "test_oa": (">=", 0.90),
                "crossval_r2": (">=", 0.90)},
    )


def _smooth_spectrum(rng: np.random.Generator, bands: np.ndarray) -> np.ndarray:
    base = rng.uniform(0.2, 0.5) + rng.uniform(-0.2, 0.3) * bands
    for _ in range(3):
        center, width = rng.uniform(0.0, 1.0), rng.uniform(0.05, 0.25)
        base = base + rng.uniform(-0.2, 0.4) * np.exp(-((bands - center) ** 2) / (2 * width**2))
    return np.clip(base, 0.05, None)


def scene(seed: int, workdir: Path) -> Workload:
    """Salinas-shaped land cover: 204 integer bands, 16 classes, 40x20 grid."""
    n_rows, n_bands, n_test = 3000, 204, 1000
    pop = _population("scene")
    bands = np.linspace(0.0, 1.0, n_bands)
    # 16 classes drawn around 6 materials, so some classes are hard to tell apart
    materials = [_smooth_spectrum(pop, bands) for _ in range(6)]
    spectra = np.array([
        materials[c % 6] * (1.0 + 0.6 * (_smooth_spectrum(pop, bands) - 0.4))
        for c in range(16)
    ]) * 4000.0

    sizes = np.array(SALINAS_CLASS_SIZES, dtype=float)
    counts = np.floor(sizes / sizes.sum() * n_rows).astype(int)
    counts[np.argsort(-(sizes / sizes.sum() * n_rows - counts))[: n_rows - counts.sum()]] += 1
    y = np.repeat(np.arange(16), counts)
    rng = _rng(seed, 0)
    brightness = rng.normal(1.0, 0.06, size=(n_rows, 1))
    X = spectra[y] * brightness + rng.normal(0.0, 60.0, size=(n_rows, n_bands))
    X = np.clip(np.rint(X), 0, None)
    labels = [str(c + 1) for c in y.tolist()]

    train, test = _split(n_rows, n_test, _rng(seed, 1))
    header = [f"band_{i + 1}" for i in range(n_bands)] + ["label"]
    _write_csv(workdir / "scene_train.csv", header, X[train], [labels[i] for i in train], True)
    _write_csv(workdir / "scene_test.csv", header, X[test], [labels[i] for i in test], True)

    # a fifth of the land-cover acceptance config (5000/20000), same 1:4 ratio
    grid = _grid_flags(40, 20, 1000, 4000, seed)
    lab = ["--label-column", "label"]
    commands = [
        Command("train", "train",
                ["train", "--data", "scene_train.csv", *lab, "--head", "classification",
                 "--model", "scene.json", *grid], ["scene.json"]),
        Command("predict", "predict",
                ["predict", "--model", "scene.json", "--data", "scene_test.csv", *lab,
                 "--output", "scene_pred.csv"], ["scene_pred.csv"]),
        Command("evaluate", "evaluate",
                ["evaluate", "--model", "scene.json", "--data", "scene_test.csv", *lab,
                 "--output", "scene_eval.txt"], ["scene_eval.txt"]),
    ]
    return Workload(
        "scene", commands, "scene_train.csv", "scene.json", "label",
        predictions=[("scene.json", "scene_test.csv", "scene_pred.csv")],
        reports={"test_oa": ("scene_eval.txt", "overall_accuracy")},
        floors={"test_oa": (">=", 0.60)},
    )


def palette(seed: int, workdir: Path) -> Workload:
    """Colour quantisation: a batch map of 6000 RGB pixels maps a 24000-pixel image."""
    n_image, n_sample, n_clusters = 24000, 6000, 12
    pop = _population("palette")
    centers = pop.uniform(30.0, 225.0, size=(n_clusters, 3))
    spreads = pop.uniform(6.0, 20.0, size=n_clusters)
    weights = pop.dirichlet(np.full(n_clusters, 2.0))
    rng = _rng(seed, 0)
    which = rng.choice(n_clusters, size=n_image, p=weights)
    X = centers[which] + spreads[which, None] * rng.normal(size=(n_image, 3))
    X = np.clip(np.rint(X), 0, 255)
    sample = np.sort(_rng(seed, 1).choice(n_image, size=n_sample, replace=False))
    _write_csv(workdir / "image.csv", ["r", "g", "b"], X, integer=True)
    _write_csv(workdir / "sample.csv", ["r", "g", "b"], X[sample], integer=True)

    commands = [
        Command("train", "train",
                ["train", "--data", "sample.csv", "--model", "palette.json",
                 "--update-mode", "batch", "--radius-schedule", "start-end",
                 "--radius-start", "10", "--radius-end", "1",
                 *_grid_flags(40, 20, 10, 0, seed)],
                ["palette.json"]),
        Command("export_maps", "export_maps",
                ["export-maps", "--model", "palette.json", "--data", "image.csv",
                 "--out-dir", "palette_maps"], ["palette_maps/bmu_histogram.csv"]),
    ]
    return Workload(
        "palette", commands, "sample.csv", "palette.json", None,
        maps=("palette_maps/bmu_histogram.csv", "image.csv"),
        # qe is in RGB units; the clusters' own spread is 6..20
        floors={"qe": ("<=", 12.0)},
    )


def correlated(seed: int, workdir: Path) -> Workload:
    """Mahalanobis regression on 32 correlated features in mixed units.

    Rows come from 8 clusters in a 32-d latent space, mixed by a random
    matrix so the features correlate, then put in units that differ by
    orders of magnitude. The target is mostly the cluster's value, so a map
    that separates the clusters in whitened space predicts it well.
    """
    n_rows, n_features, n_clusters, n_test = 2000, 32, 8, 500
    pop = _population("correlated")
    centers = 2.5 * pop.normal(size=(n_clusters, n_features))
    mixing = pop.normal(size=(n_features, n_features))
    units = 10.0 ** pop.uniform(-1.0, 1.5, size=n_features)
    offsets = pop.uniform(-50, 50, size=n_features)
    values = pop.normal(size=n_clusters)

    rng = _rng(seed, 0)
    cluster = rng.integers(n_clusters, size=n_rows)
    Z = centers[cluster] + rng.normal(size=(n_rows, n_features))
    X = (Z @ mixing) * units + offsets
    y = values[cluster] + 0.3 * Z[:, 0] / 2.7 + 0.1 * rng.normal(size=n_rows)
    labels = [repr(v) for v in y.tolist()]

    train, test = _split(n_rows, n_test, _rng(seed, 1))
    header = [f"f{i}" for i in range(n_features)] + ["target"]
    _write_csv(workdir / "corr_train.csv", header, X[train], [labels[i] for i in train])
    _write_csv(workdir / "corr_test.csv", header, X[test], [labels[i] for i in test])

    grid = _grid_flags(20, 20, 1500, 1500, seed)
    lab = ["--label-column", "target"]
    commands = [
        Command("train", "train",
                ["train", "--data", "corr_train.csv", *lab, "--head", "regression",
                 "--model", "corr.json", "--metric", "mahalanobis", "--minmax-scale", *grid],
                ["corr.json"]),
        Command("predict", "predict",
                ["predict", "--model", "corr.json", "--data", "corr_test.csv", *lab,
                 "--output", "corr_pred.csv"], ["corr_pred.csv"]),
        Command("evaluate", "evaluate",
                ["evaluate", "--model", "corr.json", "--data", "corr_test.csv", *lab,
                 "--output", "corr_eval.txt"], ["corr_eval.txt"]),
    ]
    return Workload(
        "correlated", commands, "corr_train.csv", "corr.json", "target",
        predictions=[("corr.json", "corr_test.csv", "corr_pred.csv")],
        reports={"test_r2": ("corr_eval.txt", "r_squared")},
        floors={"test_r2": (">=", 0.75)},
    )


WORKLOADS = {"desk": desk, "scene": scene, "palette": palette, "correlated": correlated}
