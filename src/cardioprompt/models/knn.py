"""Brute-force k-nearest-neighbor classifier with Minkowski distance.

Neighbor order is (distance, training row index), so equidistant neighbors
resolve to the lower index and results are stable. With distance weighting, a
query that coincides with at least one training point is decided entirely by
the zero-distance points. algorithm and leaf_size are accepted for interface
parity; brute force is always used, matching the semantics (not the speed) of
any tree-backed search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .tree import Classifier, as_labeled, as_rows


@dataclass
class KNNClassifier(Classifier):
    n_neighbors: int = 5
    weights: str = "uniform"  # "uniform" or "distance"
    algorithm: str = "auto"  # inert, interface parity
    leaf_size: int = 30  # inert, interface parity
    p: int = 2  # Minkowski exponent

    X_: np.ndarray | None = field(default=None, repr=False)
    y_: np.ndarray | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = as_labeled(X, y)
        if self.n_neighbors < 1:
            raise ValidationError("n_neighbors must be >= 1")
        if self.n_neighbors > len(y):
            raise ValidationError(f"n_neighbors={self.n_neighbors} exceeds {len(y)} training rows")
        if self.weights not in ("uniform", "distance"):
            raise ValidationError(f"unknown weights {self.weights!r}")
        if self.p < 1:
            raise ValidationError("p must be >= 1")
        self.X_, self.y_ = X, y.astype(int)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.X_ is None:
            raise ValidationError("model not fitted")
        X = as_rows(X, self.X_.shape[1])

        diff = np.abs(X[:, None, :] - self.X_[None, :, :])
        dist = diff.sum(-1) if self.p == 1 else (diff**self.p).sum(-1) ** (1.0 / self.p)

        n_train = len(self.y_)
        order = np.lexsort((np.broadcast_to(np.arange(n_train), dist.shape), dist), axis=1)
        kth = order[:, : self.n_neighbors]
        kdist = np.take_along_axis(dist, kth, axis=1)
        klabel = self.y_[kth]

        if self.weights == "uniform":
            wts = np.ones_like(kdist)
        else:
            zero = kdist == 0
            any_zero = zero.any(axis=1, keepdims=True)
            with np.errstate(divide="ignore"):
                inv = 1.0 / np.where(zero, 1.0, kdist)
            # coincident training points take the whole vote
            wts = np.where(any_zero, zero.astype(float), inv)

        return (wts * klabel).sum(axis=1) / wts.sum(axis=1)
