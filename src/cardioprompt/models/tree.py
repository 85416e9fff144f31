"""CART decision tree on numpy arrays, for standalone use and as the base
learner of the forest and boosting ensembles.

criterion "gini" grows a classifier on 0/1 labels; "mse" grows a regression
tree on real-valued targets (used for boosting residuals). Sample weights are
respected in both impurities and leaf values; min_samples_* limits count rows,
not weight, and a min_samples_leaf below 1 acts as 1. The ensembles validate
once and call `grow`, which also returns each training row's leaf value.

The module also holds what every estimator shares: the input checks
(`as_xy`, `as_labeled`, `as_rows`) and the tie rule (`Classifier`).

Exactness contract, to the bit: the fitted arrays depend on inputs and rng only.
- Each node computes its weight sum, leaf value and impurity once, with
  np.average's arithmetic over its rows in row order: the leaf value is
  np.multiply(y, w).sum() / w.sum(), the mse impurity the same average of the
  squared deviations, the gini impurity 2p(1-p).
- Split search sorts the node's rows stably per candidate column (ties in row
  order) and scores every (position, column) candidate from prefix sums in
  that order. The lowest score wins, ties going to the earliest position,
  then the lowest column.
- Nodes are numbered depth-first, left before right, and the max_features
  subset of each node is drawn from the rng in that order.
- The threshold is the midpoint of the two adjacent sorted values it splits,
  or the lower value where the midpoint rounds onto the upper one, so that
  lower <= threshold < upper and `X <= threshold` sends exactly the scored
  rows left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError

_LEAF = -1


def as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, checked to be a 2-D X with one row per label."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError("X must be 2-D and aligned with y")
    return X, y


def as_labeled(X, y) -> tuple[np.ndarray, np.ndarray]:
    """as_xy, with y checked to hold 0/1 labels only."""
    X, y = as_xy(X, y)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("labels must be 0/1")
    return X, y


def as_rows(X, n_features: int) -> np.ndarray:
    """X as a 2-D float array (a 1-D X is one row), checked to have `n_features` columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != n_features:
        raise ValidationError(f"expected {n_features} features, got {X.shape[1]}")
    return X


class Classifier:
    """The tie rule of every estimator that predicts from its class-1
    probability: a probability of exactly 0.5 predicts 1."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


@dataclass
class DecisionTree(Classifier):
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"
    max_features: int | None = None  # per-node subset size; None = all
    rng: np.random.Generator | None = None  # only needed with max_features

    # flat node arrays, index 0 = root
    feature: list[int] = field(default_factory=list, repr=False)
    threshold: list[float] = field(default_factory=list, repr=False)
    left: list[int] = field(default_factory=list, repr=False)
    right: list[int] = field(default_factory=list, repr=False)
    value: list[float] = field(default_factory=list, repr=False)
    n_features_: int = 0
    importance_raw_: np.ndarray | None = field(default=None, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None):
        X, y = as_xy(X, y)
        if self.criterion not in ("gini", "mse"):
            raise ValidationError(f"unknown criterion {self.criterion!r}")
        if self.criterion == "gini" and not np.isin(y, (0.0, 1.0)).all():
            raise ValidationError("gini criterion needs 0/1 labels")
        w = np.ones(len(y)) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        if (w < 0).any() or w.sum() <= 0:
            raise ValidationError("sample weights must be nonnegative with positive sum")
        if self.max_features is not None and self.rng is None:
            raise ValidationError("max_features needs an rng for the per-node draw")
        self.grow(np.ascontiguousarray(X.T), y, w)
        return self

    def grow(self, XT: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Fit on validated inputs, with XT the (features, rows) transpose of
        X. Returns the leaf value of every training row, which is
        predict_value(X)."""
        d, n = XT.shape
        self.n_features_ = d
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self.importance_raw_ = np.zeros(d)
        gini = self.criterion == "gini"
        max_depth = np.inf if self.max_depth is None else self.max_depth
        msl = max(self.min_samples_leaf, 1)  # 0 and below act as 1
        min_rows = max(self.min_samples_split, 2 * msl)  # at least 2: a split needs a row per side
        draw = self.max_features is not None and self.max_features < d
        all_cols = np.arange(d)
        wy = w * y
        wyy = None if gini else wy * y
        fitted = np.empty(n)

        def best_split(idx: np.ndarray, parent: float):
            """(column, threshold, gain) of the best split, or None."""
            cols = np.sort(self.rng.choice(d, size=self.max_features, replace=False)) if draw else all_cols
            # the node's rows sorted per column; ties keep row order
            rows = idx[XT[cols[:, None], idx].argsort(axis=1, kind="stable")]
            sv = XT[cols[:, None], rows]

            # split after sorted position i: left = positions 0..i; one row per column
            cw = w[rows].cumsum(axis=1)
            cwy = wy[rows].cumsum(axis=1)
            lw, lwy = cw[:, :-1], cwy[:, :-1]
            rw, rwy = cw[:, -1:] - lw, cwy[:, -1:] - lwy
            if gini:
                pl = np.where(lw > 0, lwy / np.maximum(lw, 1e-300), 0.0)
                pr = np.where(rw > 0, rwy / np.maximum(rw, 1e-300), 0.0)
                score = lw * 2 * pl * (1 - pl) + rw * 2 * pr * (1 - pr)
            else:  # weighted SSE via sum(y^2) - (sum y)^2 / w per side
                cwyy = wyy[rows].cumsum(axis=1)
                lyy, ryy = cwyy[:, :-1], cwyy[:, -1:] - cwyy[:, :-1]
                score = (lyy - lwy**2 / np.maximum(lw, 1e-300)) + (ryy - rwy**2 / np.maximum(rw, 1e-300))
            score[~(sv[:, 1:] > sv[:, :-1])] = np.inf  # no threshold between equal values
            score[:, : msl - 1] = np.inf  # fewer than min_samples_leaf rows on the left
            score[:, len(idx) - msl :] = np.inf  # or on the right
            pos, c = divmod(int(score.T.argmin()), len(cols))  # earliest position, then lowest column
            best = score[c, pos]
            gain = float(parent - best)
            if not np.isfinite(best) or gain <= 1e-12:
                return None
            lo, hi = float(sv[c, pos]), float(sv[c, pos + 1])
            thr = (lo + hi) / 2.0
            if not lo <= thr < hi:  # the midpoint rounded onto a neighbour, or overflowed
                thr = lo
            return int(cols[c]), thr, gain

        todo = [(np.arange(n), 0, self.left, _LEAF)]  # (rows, depth, links, parent); LIFO
        with np.errstate(divide="ignore", invalid="ignore"):
            while todo:
                idx, depth, links, parent = todo.pop()
                at = len(self.value)
                if parent != _LEAF:
                    links[parent] = at
                self.feature.append(_LEAF)
                self.threshold.append(0.0)
                self.left.append(_LEAF)
                self.right.append(_LEAF)
                wn = w[idx]
                w_sum = wn.sum()
                mean = wy[idx].sum() / w_sum
                self.value.append(float(mean))
                fitted[idx] = mean  # the children overwrite it if the node splits
                if len(idx) < min_rows or depth >= max_depth:
                    continue
                if gini:
                    impurity = 2.0 * mean * (1.0 - mean)
                else:
                    impurity = float(np.multiply((y[idx] - mean) ** 2, wn).sum() / w_sum)
                if impurity <= 1e-12:
                    continue
                found = best_split(idx, float(w_sum) * impurity)
                if found is None:
                    continue
                j, thr, gain = found
                go_left = XT[j, idx] <= thr
                self.importance_raw_[j] += gain
                self.feature[at] = j
                self.threshold[at] = thr
                todo.append((idx[~go_left], depth + 1, self.right, at))
                todo.append((idx[go_left], depth + 1, self.left, at))
        return fitted

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf value per row: class-1 probability (gini) or mean target (mse)."""
        X = as_rows(X, self.n_features_)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)

        node = np.zeros(len(X), dtype=int)
        while True:
            active = feature[node] != _LEAF
            if not active.any():
                break
            rows = np.flatnonzero(active)
            cur = node[rows]
            go_left = X[rows, feature[cur]] <= threshold[cur]
            node[rows] = np.where(go_left, left[cur], right[cur])
        return value[node]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.criterion != "gini":
            raise ValidationError("probabilities only defined for the gini classifier")
        return self.predict_value(X)
