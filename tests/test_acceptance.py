"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. The last criterion needs a user-supplied land-cover CSV (see README)
and is skipped unless SOMKIT_SALINAS_CSV points at it.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from somkit.cli import main
from somkit.datasets import k_fold, load_csv, save_csv, synthetic_blobs, synthetic_regression, train_test_split
from somkit.distances import estimate_inverse_covariance, feature_distance
from somkit.metrics import (
    average_accuracy,
    cohens_kappa,
    confusion,
    overall_accuracy,
    r_squared,
)
from somkit.schedules import RADIUS_KINDS, LEARNING_RATE_KINDS, ScheduleSpec, learning_rate, neighborhood_radius
from somkit.seeding import phase_rng
from somkit.som import SomConfig, WeightGrid, find_bmu, fit_unsupervised
from somkit.supervised import (
    class_weights,
    fit_classifier,
    fit_regressor,
    predict_classification,
    predict_regression,
)

from oracles import grid_distance_matrix, kernel_matrix
from test_supervised import constant_p, flips_toward_sampled_class


def check(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def brute_force_bmu(grid, x, metric, cov_inv=None):
    best, best_d = None, math.inf
    for r in range(grid.n_row):
        for c in range(grid.n_column):
            d = feature_distance(grid.weights[r, c], x, metric, cov_inv)
            if d < best_d:
                best_d, best = d, (r, c)
    return best


def test_bmu_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n_row = int(rng.integers(1, 13))
        n_col = int(rng.integers(1, 13))
        n = int(rng.integers(1, 9))
        for metric in ("euclidean", "manhattan", "tanimoto", "mahalanobis"):
            cov_inv = None
            if metric == "tanimoto":
                w = rng.integers(0, 2, size=(n_row, n_col, n)).astype(float)
                x = rng.integers(0, 2, size=n).astype(float)
            else:
                w = rng.normal(size=(n_row, n_col, n))
                x = rng.normal(size=n)
                if metric == "mahalanobis":
                    cov_inv = estimate_inverse_covariance(rng.normal(size=(16, n)))
            grid = WeightGrid(w)
            if find_bmu(grid, x, metric, cov_inv) != brute_force_bmu(grid, x, metric, cov_inv):
                mismatches += 1
    elapsed = time.perf_counter() - start
    check(
        "BMU oracle equivalence (200 grids x 4 metrics)",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, {elapsed:.2f}s",
    )


def test_schedule_conformance():
    t_max = 1000
    closed_lr = {
        "inverse": lambda s, t: s.start / max(t, 1),
        "linear": lambda s, t: s.start * (1 - t / s.t_max),
        "power": lambda s, t: s.start ** (t / s.t_max),
        "exponential": lambda s, t: s.start * math.exp(-t / s.t_max),
        "start-end": lambda s, t: s.start * (s.end / s.start) ** (t / s.t_max),
    }
    points = (0, t_max // 4, t_max // 2, t_max - 1)
    ok = True
    for kind in LEARNING_RATE_KINDS:
        spec = ScheduleSpec(kind, 0.5, 0.05, t_max)
        values = [learning_rate(t, spec) for t in range(t_max)]
        ok &= all(abs(learning_rate(t, spec) - closed_lr[kind](spec, t)) <= 1e-12 for t in points)
        ok &= all(a >= b for a, b in zip(values, values[1:]))
    for kind in RADIUS_KINDS:
        spec = ScheduleSpec(kind, 7.0, 1.0, t_max)
        values = [neighborhood_radius(t, spec) for t in range(t_max)]
        ok &= all(
            abs(neighborhood_radius(t, spec) - max(closed_lr[kind](spec, t), 1e-6)) <= 1e-12
            for t in points
        )
        ok &= all(a >= b for a, b in zip(values, values[1:]))
    check("schedule conformance (5 lr kinds, 3 radius kinds)", ok)


def test_kernel_conformance():
    sigma = 3.0
    h_g = kernel_matrix((0, 0), sigma, "gaussian", (1, 7))
    h_m = kernel_matrix((0, 0), sigma, "mexican-hat", (1, 7))
    ok = (
        abs(h_g[0, 0] - 1.0) <= 1e-12
        and abs(h_g[0, 3] - math.exp(-0.5)) <= 1e-12
        and abs(h_g[0, 6] - math.exp(-2.0)) <= 1e-12
        and abs(h_m[0, 0] - 1.0) <= 1e-12
        and abs(h_m[0, 3]) <= 1e-12
        and abs(h_m[0, 6] - (-3 * math.exp(-2.0))) <= 1e-12
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        shape = (int(rng.integers(2, 15)), int(rng.integers(2, 15)))
        bmu = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
        s = float(rng.uniform(0.5, 6.0))
        h = kernel_matrix(bmu, s, "gaussian", shape)
        d = grid_distance_matrix(bmu, shape)
        order = np.argsort(d.ravel())
        hv = h.ravel()[order]
        ok &= bool(np.all(hv[:-1] >= hv[1:] - 1e-15))
    check("kernel conformance at d in {0, sigma, 2 sigma} + radial monotonicity", ok)


def test_class_weight_identity():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 8))
        y = np.concatenate([np.arange(k), rng.integers(0, k, size=int(rng.integers(0, 300)))])
        w = class_weights(y, enabled=True)
        n = len(y)
        counts = {c: int((y == c).sum()) for c in w}
        # the identity holds exactly in rational arithmetic ...
        exact = sum(Fraction(n, k * counts[c]) * counts[c] for c in w)
        ok &= exact == n
        # ... and the implementation returns the correctly rounded rationals
        ok &= all(w[c] == n / (k * counts[c]) for c in w)
    check("class-weight balance identity on 50 random label vectors", ok)


def test_stochastic_update_calibration():
    rng = np.random.default_rng(99)
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        # 10000 trials on a 5x5 grid as one classifier iteration at P = p on a
        # (10000 * 5) x 5 grid, whose draws fill it row by row
        flips = flips_toward_sampled_class((50_000, 5), rng, **constant_p(p))
        freq = flips.reshape(10_000, 5, 5).mean(axis=0)
        worst = max(worst, float(np.abs(freq - p).max()))
    check(
        "class-update flip frequency within 0.02 of P over 10000 trials",
        worst <= 0.02,
        f"worst deviation {worst:.4f}",
    )


def test_desk_scale_regression():
    start = time.perf_counter()
    passes = 0
    gaps, tests = [], []
    for seed in range(10):
        data = synthetic_regression(600, 0.05, phase_rng(seed, "data"))
        train, test = train_test_split(data, 0.5, phase_rng(seed, "split"))
        cfg = SomConfig(
            n_row=20, n_column=20, n_iter_unsupervised=2500, n_iter_supervised=2500, seed=seed
        )
        grid, _ = fit_unsupervised(train.X, cfg, phase_rng(seed, "unsupervised"))
        head = fit_regressor(grid, train.X, train.y, cfg, phase_rng(seed, "supervised"))
        r2_train = r_squared(train.y, predict_regression(grid, head, train.X))
        r2_test = r_squared(test.y, predict_regression(grid, head, test.X))
        tests.append(r2_test)
        gaps.append(abs(r2_train - r2_test))
        if r2_test >= 0.85 and abs(r2_train - r2_test) <= 0.10:
            passes += 1
    elapsed = time.perf_counter() - start
    check(
        "desk-scale regression: test R2 >= 0.85, gap <= 0.10 on >= 9/10 seeds",
        passes >= 9 and elapsed < 60.0,
        f"passes={passes}/10, median test R2 {np.median(tests):.3f}, "
        f"max gap {max(gaps):.3f}, {elapsed:.1f}s",
    )


def test_desk_scale_classification():
    start = time.perf_counter()
    data = synthetic_blobs(2000, 4, 8.0, phase_rng(0, "data"))
    folds = k_fold(data, 5, phase_rng(0, "fold"))
    oa_test, oa_train, kappas = [], [], []
    for i, (train, test) in enumerate(folds):
        cfg = SomConfig(
            n_row=20, n_column=20, n_iter_unsupervised=2000, n_iter_supervised=5000, seed=0
        )
        grid, _ = fit_unsupervised(train.X, cfg, phase_rng(0, "unsupervised", i))
        head = fit_classifier(grid, train.X, train.y, cfg, phase_rng(0, "supervised", i))
        cm_test = confusion(test.y, predict_classification(grid, head, test.X))
        cm_train = confusion(train.y, predict_classification(grid, head, train.X))
        oa_test.append(overall_accuracy(cm_test))
        oa_train.append(overall_accuracy(cm_train))
        kappas.append(cohens_kappa(cm_test))
    elapsed = time.perf_counter() - start
    mean_test = float(np.mean(oa_test))
    mean_train = float(np.mean(oa_train))
    mean_kappa = float(np.mean(kappas))
    ok = (
        mean_test >= 0.95
        and abs(mean_train - mean_test) <= 0.05
        and mean_kappa >= 0.90
        and elapsed < 120.0
    )
    check(
        "desk-scale classification: 5-fold mean OA >= 0.95, gap <= 0.05, kappa >= 0.90",
        ok,
        f"OA_test {mean_test:.4f}, OA_train {mean_train:.4f}, "
        f"kappa {mean_kappa:.4f}, {elapsed:.1f}s",
    )


def test_metric_hand_values():
    y_true = ["A", "A", "B", "B"]
    y_pred = ["A", "B", "B", "B"]
    cm = confusion(y_true, y_pred)
    ok = (
        r_squared([0, 1, 2], [0, 1, 1]) == 0.5
        and overall_accuracy(cm) == 0.75
        and average_accuracy(cm) == 0.75
        and cohens_kappa(cm) == 0.5
    )
    check("metric hand values: R2=0.5, OA=0.75, AA=0.75, kappa=0.5 exact", ok)


def test_crossval_determinism(tmp_path):
    data = synthetic_blobs(150, 3, 10.0, np.random.default_rng(4))
    csv_path = tmp_path / "blobs.csv"
    save_csv(data, csv_path, label_column="label")
    out = tmp_path / "report.txt"
    args = [
        "crossval", "--data", str(csv_path), "--label-column", "label",
        "--head", "classification", "--k", "5", "--seed", "1234",
        "--n-row", "6", "--n-column", "6",
        "--n-iter-unsupervised", "200", "--n-iter-supervised", "400",
        "--output", str(out),
    ]
    rc1 = main(args)
    first = out.read_bytes()
    rc2 = main(args)
    second = out.read_bytes()
    check(
        "crossval determinism: identical master seed, byte-identical reports",
        rc1 == 0 and rc2 == 0 and first == second,
    )


@pytest.mark.skipif(
    "SOMKIT_SALINAS_CSV" not in os.environ,
    reason="set SOMKIT_SALINAS_CSV to the converted land-cover CSV to run",
)
def test_salinas_land_cover():
    data = load_csv(os.environ["SOMKIT_SALINAS_CSV"], "label", "categorical")
    assert data.n_features == 204, "expected the 204 retained bands"
    folds = k_fold(data, 5, phase_rng(0, "fold"))
    oa, kappa = [], []
    for i, (train, test) in enumerate(folds):
        cfg = SomConfig(
            n_row=40, n_column=20, n_iter_unsupervised=5000, n_iter_supervised=20000, seed=0
        )
        grid, _ = fit_unsupervised(train.X, cfg, phase_rng(0, "unsupervised", i))
        head = fit_classifier(grid, train.X, train.y, cfg, phase_rng(0, "supervised", i))
        cm = confusion(test.y, predict_classification(grid, head, test.X))
        oa.append(overall_accuracy(cm))
        kappa.append(cohens_kappa(cm))
    mean_oa, mean_kappa = float(np.mean(oa)), float(np.mean(kappa))
    check(
        "land-cover 5-fold CV: OA within 0.666..0.766, kappa within 0.634..0.734",
        0.666 <= mean_oa <= 0.766 and 0.634 <= mean_kappa <= 0.734,
        f"OA {mean_oa:.4f}, kappa {mean_kappa:.4f}",
    )
