"""Evaluation metrics: R^2, overall/average accuracy, Cohen's kappa.

Classification metrics operate on a :class:`ConfusionMatrix` whose class
set is the sorted union of observed true and predicted classes, so classes
seen only on one side carry zero marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UndefinedMetricError(ValueError):
    """A metric's defining ratio is degenerate for the given inputs."""


@dataclass
class ConfusionMatrix:
    """Counts indexed by (true class, predicted class)."""

    counts: np.ndarray
    class_set: list

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=int)
        k = len(self.class_set)
        if self.counts.shape != (k, k):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match {k} classes"
            )
        if (self.counts < 0).any():
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("r_squared needs two equal-length nonempty vectors")
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
        ss_res = float(((y_true - y_pred) ** 2).sum())
    if not np.isfinite([ss_tot, ss_res]).all():
        raise ValueError("r_squared: the squared differences of the labels or predictions "
                         "overflow; scale the labels down")
    if ss_tot == 0.0:
        raise UndefinedMetricError("r_squared is undefined for constant y_true")
    return 1.0 - ss_res / ss_tot


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Confusion matrix over the sorted union of observed classes."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("confusion needs two equal-length nonempty vectors")
    # the codes come with the classes: np.unique without them would import numpy.ma
    class_set, codes = np.unique(np.concatenate([y_true, y_pred]), return_inverse=True)
    k = class_set.size
    pairs = codes[: y_true.size] * k + codes[y_true.size:]
    return ConfusionMatrix(np.bincount(pairs, minlength=k * k).reshape(k, k), class_set.tolist())


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of correctly classified datapoints."""
    if cm.total == 0:
        raise ValueError("overall accuracy needs at least one pair")
    return float(np.trace(cm.counts)) / cm.total


def average_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall."""
    row_sums = cm.counts.sum(axis=1)
    if (row_sums == 0).any():
        missing = [c for c, s in zip(cm.class_set, row_sums) if s == 0]
        raise UndefinedMetricError(
            f"average accuracy undefined: classes with no true instances: {missing}"
        )
    recalls = np.diag(cm.counts) / row_sums
    return float(recalls.mean())


def cohens_kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (OA - theta) / (1 - theta).

    theta is the marginal chance-agreement probability,
    sum_k row_k * col_k / total^2.
    """
    total = cm.total
    if total == 0:
        raise ValueError("kappa needs at least one pair")
    row = cm.counts.sum(axis=1)
    col = cm.counts.sum(axis=0)
    theta = float((row * col).sum()) / (total * total)
    if theta == 1.0:
        raise UndefinedMetricError("kappa undefined: chance agreement is 1")
    oa = overall_accuracy(cm)
    return (oa - theta) / (1.0 - theta)


@dataclass
class EvaluationReport:
    """Named metric values plus optional confusion matrix and per-fold reports."""

    title: str
    metrics: dict = field(default_factory=dict)
    cm: ConfusionMatrix | None = None
    folds: list = field(default_factory=list)

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        for name, value in self.metrics.items():
            lines.append(f"{name} {value:.6f}")
        if self.cm is not None:
            lines.append("confusion_matrix (rows=true, cols=predicted):")
            labels = [str(c) for c in self.cm.class_set]
            lines.append("classes: " + " ".join(labels))
            for label, row in zip(labels, self.cm.counts):
                lines.append(label + " " + " ".join(str(int(v)) for v in row))
        for fold in self.folds:
            lines.append("")
            lines.append(fold.render())
        return "\n".join(lines)


def mean_report(title: str, folds: list[EvaluationReport]) -> EvaluationReport:
    """Fold-mean of every metric shared by all fold reports."""
    if not folds:
        raise ValueError("need at least one fold report")
    means = {
        name: float(np.mean([f.metrics[name] for f in folds]))
        for name in folds[0].metrics
    }
    return EvaluationReport(title, means, folds=list(folds))
