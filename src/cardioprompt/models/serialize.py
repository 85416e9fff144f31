"""Versioned JSON artifacts for trained models.

An artifact fully restores prediction behavior: family, hyperparameters,
fitted parameters, convergence flag, and the importance ranking if one was
attached. format_version guards against silently loading a different layout.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..data import write_atomic
from ..errors import ValidationError
from .adaboost import AdaBoostStumps
from .forest import RandomForest
from .gbt import GradientBoostedTrees
from .importance import ImportanceRanking
from .knn import KNNClassifier
from .logistic import LogisticRegressionGD
from .mlp import MLPClassifier
from .tree import DecisionTree
from .zoo import TrainedModel, _build_estimator

FORMAT_VERSION = 1


def _each(kind):
    """(encode, decode) for a list of `kind` values."""
    return list, lambda doc: [kind(v) for v in doc]


def _array(dtype):
    return np.ndarray.tolist, lambda doc: np.asarray(doc, dtype=dtype)


def _arrays(dtype):
    return (lambda arrays: [a.tolist() for a in arrays]), (lambda doc: [np.asarray(a, dtype=dtype) for a in doc])


_TREES = (lambda trees: [fitted_doc(t) for t in trees]), (lambda doc: [restore_fitted(DecisionTree(), d) for d in doc])

# estimator class -> {artifact key: (attribute, encode, decode)}, keys in artifact order
FITTED = {
    DecisionTree: {
        "feature": ("feature", *_each(int)),
        "threshold": ("threshold", *_each(float)),
        "left": ("left", *_each(int)),
        "right": ("right", *_each(int)),
        "value": ("value", *_each(float)),
        "criterion": ("criterion", str, str),
        "n_features": ("n_features_", int, int),
        "importance_raw": ("importance_raw_", *_array(float)),
    },
    RandomForest: {"trees": ("trees", *_TREES), "n_features": ("n_features_", int, int)},
    LogisticRegressionGD: {"theta": ("theta", *_array(float)), "n_iter": ("n_iter_", int, int)},
    GradientBoostedTrees: {
        "base_score": ("base_score_", float, float),
        "trees": ("trees", *_TREES),
        "tree_cols": ("tree_cols", *_arrays(int)),
        "n_features": ("n_features_", int, int),
    },
    AdaBoostStumps: {
        "stumps": ("stumps", *_TREES),
        "alphas": ("alphas", *_each(float)),
        "stump_errors": ("stump_errors", *_each(float)),
        "n_features": ("n_features_", int, int),
    },
    KNNClassifier: {"X": ("X_", *_array(float)), "y": ("y_", *_array(int))},
    MLPClassifier: {"weights": ("weights", *_arrays(float)), "biases": ("biases", *_arrays(float))},
}


def _fields(est) -> dict:
    if type(est) not in FITTED:
        raise ValidationError(f"cannot serialize estimator type {type(est).__name__}")
    return FITTED[type(est)]


def fitted_doc(est) -> dict:
    """The fitted parameters of `est`, as its artifact stores them."""
    return {key: encode(getattr(est, attr)) for key, (attr, encode, _) in _fields(est).items()}


def restore_fitted(est, doc: dict):
    """`est` with the fitted parameters of `doc` set on it."""
    for key, (attr, _, decode) in _fields(est).items():
        setattr(est, attr, decode(doc[key]))
    return est


def model_to_json(model: TrainedModel) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "hyper": model.hyper,
        "converged": model.converged,
        "importance": None if model.importance is None else vars(model.importance),  # its fields, in order
        "params": fitted_doc(model.estimator),
    }
    return json.dumps(doc)


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValidationError("a model artifact is a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported artifact format_version {doc.get('format_version')!r}")
    hyper = dict(doc["hyper"])
    if "hidden_layer_sizes" in hyper:
        hyper["hidden_layer_sizes"] = tuple(hyper["hidden_layer_sizes"])
    est = restore_fitted(_build_estimator(doc["family"], dict(hyper), seed=0), doc["params"])
    importance = doc["importance"]
    if importance is not None:  # JSON gave the (name, weight) pairs back as lists
        importance = ImportanceRanking(**{**importance, "entries": tuple(map(tuple, importance["entries"]))})
    return TrainedModel(
        family=doc["family"],
        hyper=hyper,
        estimator=est,
        converged=bool(doc["converged"]),
        importance=importance,
    )


def save_model(model: TrainedModel, path: str | Path):
    write_atomic(path, model_to_json(model))


def load_model(path: str | Path) -> TrainedModel:
    return model_from_json(Path(path).read_text())
