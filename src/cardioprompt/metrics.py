"""Confusion counting, the seven report metrics, and trivial baselines.

Cost-sensitive accuracy is correct / (correct + w_fp*FP + w_fn*FN); with the
default weights (0.2, 0.8) this reproduces published reference rows to 1e-3.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .config import CostWeights
from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsRow:
    precision: float
    recall: float
    f1: float
    accuracy: float
    fp_cost: float
    fn_cost: float
    cost_sensitive_accuracy: float

    def as_tuple(self) -> tuple[float, ...]:
        """The seven metrics in field order, which is the report's column order."""
        return astuple(self)


def confusion(preds: Sequence[int], truth: Sequence[int]) -> ConfusionMatrix:
    """Count the four cells; positive class is 1."""
    preds = np.asarray(preds, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if preds.shape != truth.shape:
        raise ValidationError(f"length mismatch: {preds.shape[0]} predictions vs {truth.shape[0]} labels")
    for arr, what in ((preds, "predictions"), (truth, "labels")):
        bad = set(arr.tolist()) - {0, 1}
        if bad:
            raise ValidationError(f"{what} must be 0/1, found {sorted(bad)}")
    return ConfusionMatrix(
        tp=int(((preds == 1) & (truth == 1)).sum()),
        tn=int(((preds == 0) & (truth == 0)).sum()),
        fp=int(((preds == 1) & (truth == 0)).sum()),
        fn=int(((preds == 0) & (truth == 1)).sum()),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0/0 defined as 0


def classification_metrics(cm: ConfusionMatrix) -> tuple[float, float, float, float]:
    """(precision, recall, f1, accuracy) with 0/0 ratios defined as 0."""
    if cm.total == 0:
        raise ValidationError("empty confusion matrix")
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    accuracy = (cm.tp + cm.tn) / cm.total
    return precision, recall, f1, accuracy


def cost_metrics(cm: ConfusionMatrix, w: CostWeights = CostWeights()) -> tuple[float, float, float]:
    """(fp_cost, fn_cost, cost-sensitive accuracy)."""
    if cm.total == 0:
        raise ValidationError("empty confusion matrix")
    fp_cost = w.w_fp * cm.fp
    fn_cost = w.w_fn * cm.fn
    correct = cm.tp + cm.tn
    csa = _ratio(correct, correct + fp_cost + fn_cost)
    return fp_cost, fn_cost, csa


def metrics_row(cm: ConfusionMatrix, w: CostWeights = CostWeights()) -> MetricsRow:
    return MetricsRow(*classification_metrics(cm), *cost_metrics(cm, w))


def baseline_predict(kind: str, n: int, seed: int = 0) -> list[int]:
    """Non-informed baselines: all-ones, all-zeros, or a seeded fair coin."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    if kind == "maj1":
        return [1] * n
    if kind == "maj0":
        return [0] * n
    if kind == "random":
        rng = np.random.default_rng(seed)
        return [int(v) for v in rng.integers(0, 2, size=n)]
    raise ValidationError(f"unknown baseline kind {kind!r}")
