"""AdaBoost over depth-1 decision stumps (discrete two-class variant).

Labels are mapped to -1/+1 internally. Stump leaves predict the weighted
majority of their side, which guarantees each round's weighted error is at
most 0.5 (a stump is never worse than the best constant predictor on the same
weights). learning_rate scales every alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .tree import Classifier, DecisionTree, as_labeled, as_rows


@dataclass
class AdaBoostStumps(Classifier):
    n_estimators: int = 50
    learning_rate: float = 1.0

    stumps: list[DecisionTree] = field(default_factory=list, repr=False)
    alphas: list[float] = field(default_factory=list, repr=False)
    stump_errors: list[float] = field(default_factory=list, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = as_labeled(X, y)
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        n, self.n_features_ = X.shape
        y_pm = 2 * y - 1

        XT = np.ascontiguousarray(X.T)
        w = np.full(n, 1.0 / n)
        self.stumps, self.alphas, self.stump_errors = [], [], []
        for _ in range(self.n_estimators):
            stump = DecisionTree(max_depth=1, criterion="gini")
            h = (stump.grow(XT, y, w) >= 0.5).astype(int)  # stump.predict(X), tie predicts 1
            h_pm = 2 * h - 1
            err = float(w[h != y].sum() / w.sum())
            if err >= 0.5:
                if not self.stumps:  # degenerate data: keep one inert stump
                    self.stumps.append(stump)
                    self.alphas.append(0.0)
                    self.stump_errors.append(err)
                break
            self.stumps.append(stump)
            self.stump_errors.append(err)
            if err <= 0:
                # perfect stump: cap its weight and stop, nothing left to reweight
                self.alphas.append(self.learning_rate * 0.5 * np.log((1 - 1e-12) / 1e-12))
                break
            alpha = self.learning_rate * 0.5 * np.log((1 - err) / err)
            self.alphas.append(alpha)
            w = w * np.exp(-alpha * y_pm * h_pm)
            w = w / w.sum()
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Normalized vote margin in [-1, 1]."""
        X = as_rows(X, self.n_features_)
        margin = np.zeros(len(X))
        for stump, alpha in zip(self.stumps, self.alphas):
            margin += alpha * (2 * stump.predict(X) - 1)
        total = sum(self.alphas)
        return margin / total if total > 0 else margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) + 1.0) / 2.0

    def raw_importance(self) -> np.ndarray:
        """Alpha-weighted impurity decreases of the stumps."""
        acc = np.zeros(self.n_features_)
        for stump, alpha in zip(self.stumps, self.alphas):
            acc += max(alpha, 0.0) * stump.importance_raw_
        return acc
