"""Random forest of CART trees.

Prediction is the exact majority vote of the trees' hard labels (tie -> 1),
not an averaged probability. Each tree gets its own RNG stream spawned from
the forest seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .tree import DecisionTree, as_labeled, as_rows


@dataclass
class RandomForest:
    n_estimators: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    bootstrap: bool = True
    seed: int = 0

    trees: list[DecisionTree] = field(default_factory=list, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = as_labeled(X, y)
        if self.n_estimators < 1:
            raise ValidationError("need at least one tree")
        n, self.n_features_ = X.shape
        XT = np.ascontiguousarray(X.T)
        ones = np.ones(n)
        max_features = max(1, int(np.sqrt(self.n_features_)))
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(self.n_estimators)]

        def build(rng: np.random.Generator) -> DecisionTree:
            # one bootstrap draw first, then the tree consumes the stream for
            # per-node feature subsets; order fixed for reproducibility
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                criterion="gini",
                max_features=max_features,
                rng=rng,
            )
            tree.grow(XT[:, rows], y[rows], ones)
            return tree

        self.trees = [build(rng) for rng in streams]
        return self

    def _votes(self, X: np.ndarray) -> np.ndarray:
        X = as_rows(X, self.n_features_)
        return np.stack([t.predict(X) for t in self.trees])  # (n_trees, n_rows)

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self._votes(X)
        ones = votes.sum(axis=0)
        return (2 * ones >= len(self.trees)).astype(int)  # exact tie -> 1

    def raw_importance(self) -> np.ndarray:
        """Mean of per-tree normalized impurity decreases."""
        acc = np.zeros(self.n_features_)
        for t in self.trees:
            imp = t.importance_raw_
            s = imp.sum()
            acc += imp / s if s > 0 else 0.0
        return acc / len(self.trees)
