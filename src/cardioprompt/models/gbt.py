"""Gradient-boosted trees with logistic loss, first-order only.

Each round fits a regression tree to the residual y - p and adds
learning_rate times its prediction to the additive score. Leaves carry plain
mean residuals (no Hessian reweighting), and the base score is the training
log-odds, so learning_rate 0 leaves the constant base-rate predictor.
colsample_bytree draws one feature subset per tree from the model's seed
stream. use_label_encoder and eval_metric are accepted for interface parity
but do not change the fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .logistic import _sigmoid
from .tree import Classifier, DecisionTree, as_labeled, as_rows


@dataclass
class GradientBoostedTrees(Classifier):
    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    colsample_bytree: float = 1.0
    use_label_encoder: bool = False  # inert, interface parity
    eval_metric: str = "logloss"  # "logloss" or "error"; inert, interface parity
    seed: int = 0

    base_score_: float = 0.0
    trees: list[DecisionTree] = field(default_factory=list, repr=False)
    tree_cols: list[np.ndarray] = field(default_factory=list, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = as_labeled(X, y)
        if not 0 < self.colsample_bytree <= 1:
            raise ValidationError("colsample_bytree must be in (0, 1]")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.eval_metric not in ("logloss", "error"):
            raise ValidationError(f"unknown eval_metric {self.eval_metric!r}")
        n, self.n_features_ = X.shape

        pbar = float(y.mean())
        pbar = min(max(pbar, 1e-12), 1 - 1e-12)  # pure classes keep a finite base
        self.base_score_ = float(np.log(pbar / (1 - pbar)))

        rng = np.random.default_rng(self.seed)
        n_cols = max(1, int(round(self.colsample_bytree * self.n_features_)))
        F = np.full(n, self.base_score_)
        XT = np.ascontiguousarray(X.T)
        ones = np.ones(n)
        self.trees, self.tree_cols = [], []
        for _ in range(self.n_estimators):
            cols = np.sort(rng.choice(self.n_features_, size=n_cols, replace=False))
            residual = y - _sigmoid(F)
            tree = DecisionTree(max_depth=self.max_depth, criterion="mse")
            fitted = tree.grow(XT[cols], residual, ones)
            self.trees.append(tree)
            self.tree_cols.append(cols)
            F = F + self.learning_rate * fitted
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = as_rows(X, self.n_features_)
        F = np.full(len(X), self.base_score_)
        for tree, cols in zip(self.trees, self.tree_cols):
            F = F + self.learning_rate * tree.predict_value(X[:, cols])
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def raw_importance(self) -> np.ndarray:
        """Summed variance reduction per original feature across all rounds."""
        acc = np.zeros(self.n_features_)
        for tree, cols in zip(self.trees, self.tree_cols):
            acc[cols] += tree.importance_raw_
        return acc
