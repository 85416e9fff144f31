"""Uniform training surface over the six classifier families.

train() builds and fits the family's estimator from a hyperparameter
assignment; the returned TrainedModel owns the estimator, the assignment, and
(once requested) a normalized ranking of the estimator's own importance
scores. KNN and MLP carry none, so they are never ranked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data import Dataset
from ..errors import ValidationError
from .adaboost import AdaBoostStumps
from .forest import RandomForest
from .gbt import GradientBoostedTrees
from .importance import ImportanceRanking, build_ranking
from .knn import KNNClassifier
from .logistic import LogisticRegressionGD
from .mlp import MLPClassifier

# the estimator class of each family
ESTIMATORS = {
    "RF": RandomForest,
    "LR": LogisticRegressionGD,
    "MLP": MLPClassifier,
    "KNN": KNNClassifier,
    "GBT": GradientBoostedTrees,
    "ADA": AdaBoostStumps,
}


@dataclass(frozen=True)
class TrainedModel:
    family: str
    hyper: dict
    estimator: object
    converged: bool = True
    importance: ImportanceRanking | None = None

    def predict(self, X) -> np.ndarray:
        return self.estimator.predict(X)


def _build_estimator(family: str, hyper: dict, seed: int):
    """The family's estimator with `hyper`, seeded where the class takes a seed."""
    if family not in ESTIMATORS:
        raise ValidationError(f"unknown model family {family!r}")
    cls = ESTIMATORS[family]
    return cls(**hyper, seed=seed) if "seed" in cls.__dataclass_fields__ else cls(**hyper)


def train(family: str, train_ds: Dataset, hyper: dict | None = None, seed: int = 0) -> TrainedModel:
    est = _build_estimator(family, dict(hyper or {}), seed)
    est.fit(train_ds.matrix, train_ds.targets)
    converged = bool(getattr(est, "converged", True))
    return TrainedModel(family=family, hyper=dict(hyper or {}), estimator=est, converged=converged)


def feature_importance(model: TrainedModel, train_ds: Dataset | None = None, seed: int = 0) -> TrainedModel:
    """Attach the normalized ranking of the estimator's `raw_importance()`;
    returns a new TrainedModel carrying it. `train_ds` and `seed` are unread;
    `bench/inputs.py` still passes them."""
    if not hasattr(model.estimator, "raw_importance"):
        raise ValidationError(f"family {model.family} has no intrinsic feature importance")
    return replace(model, importance=build_ranking(model.estimator.raw_importance(), source=model.family))
