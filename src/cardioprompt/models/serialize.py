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


def _tree_to_doc(t: DecisionTree) -> dict:
    return {
        "feature": list(t.feature),
        "threshold": list(t.threshold),
        "left": list(t.left),
        "right": list(t.right),
        "value": list(t.value),
        "criterion": t.criterion,
        "n_features": t.n_features_,
        "importance_raw": t.importance_raw_.tolist(),
    }


def _tree_from_doc(doc: dict) -> DecisionTree:
    t = DecisionTree(criterion=doc["criterion"])
    t.feature = [int(v) for v in doc["feature"]]
    t.threshold = [float(v) for v in doc["threshold"]]
    t.left = [int(v) for v in doc["left"]]
    t.right = [int(v) for v in doc["right"]]
    t.value = [float(v) for v in doc["value"]]
    t.n_features_ = int(doc["n_features"])
    t.importance_raw_ = np.asarray(doc["importance_raw"], dtype=float)
    return t


def _params_doc(est) -> dict:
    if isinstance(est, RandomForest):
        return {"trees": [_tree_to_doc(t) for t in est.trees], "n_features": est.n_features_}
    if isinstance(est, LogisticRegressionGD):
        return {"theta": est.theta.tolist(), "n_iter": est.n_iter_}
    if isinstance(est, GradientBoostedTrees):
        return {
            "base_score": est.base_score_,
            "trees": [_tree_to_doc(t) for t in est.trees],
            "tree_cols": [c.tolist() for c in est.tree_cols],
            "n_features": est.n_features_,
        }
    if isinstance(est, AdaBoostStumps):
        return {
            "stumps": [_tree_to_doc(t) for t in est.stumps],
            "alphas": list(est.alphas),
            "stump_errors": list(est.stump_errors),
            "n_features": est.n_features_,
        }
    if isinstance(est, KNNClassifier):
        return {"X": est.X_.tolist(), "y": est.y_.tolist()}
    if isinstance(est, MLPClassifier):
        return {"weights": [w.tolist() for w in est.weights], "biases": [b.tolist() for b in est.biases]}
    raise ValidationError(f"cannot serialize estimator type {type(est).__name__}")


def _restore_params(est, doc: dict):
    if isinstance(est, RandomForest):
        est.trees = [_tree_from_doc(d) for d in doc["trees"]]
        est.n_features_ = int(doc["n_features"])
    elif isinstance(est, LogisticRegressionGD):
        est.theta = np.asarray(doc["theta"], dtype=float)
        est.n_iter_ = int(doc["n_iter"])
    elif isinstance(est, GradientBoostedTrees):
        est.base_score_ = float(doc["base_score"])
        est.trees = [_tree_from_doc(d) for d in doc["trees"]]
        est.tree_cols = [np.asarray(c, dtype=int) for c in doc["tree_cols"]]
        est.n_features_ = int(doc["n_features"])
    elif isinstance(est, AdaBoostStumps):
        est.stumps = [_tree_from_doc(d) for d in doc["stumps"]]
        est.alphas = [float(a) for a in doc["alphas"]]
        est.stump_errors = [float(e) for e in doc["stump_errors"]]
        est.n_features_ = int(doc["n_features"])
    elif isinstance(est, KNNClassifier):
        est.X_ = np.asarray(doc["X"], dtype=float)
        est.y_ = np.asarray(doc["y"], dtype=int)
    elif isinstance(est, MLPClassifier):
        est.weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        est.biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    else:
        raise ValidationError(f"cannot restore estimator type {type(est).__name__}")


def model_to_json(model: TrainedModel) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "hyper": {k: (list(v) if isinstance(v, tuple) else v) for k, v in model.hyper.items()},
        "converged": model.converged,
        "importance": None
        if model.importance is None
        else {
            "entries": [[name, w] for name, w in model.importance.entries],
            "source": model.importance.source,
            "degenerate": model.importance.degenerate,
        },
        "params": _params_doc(model.estimator),
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
    est = _build_estimator(doc["family"], dict(hyper), seed=0)
    _restore_params(est, doc["params"])
    importance = None
    if doc["importance"] is not None:
        importance = ImportanceRanking(
            entries=tuple((name, float(w)) for name, w in doc["importance"]["entries"]),
            source=doc["importance"]["source"],
            degenerate=bool(doc["importance"]["degenerate"]),
        )
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
    """The artifact at `path`; a malformed one is a ValidationError naming it."""
    try:
        return model_from_json(Path(path).read_text())
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path} is not a model artifact ({exc!r})") from exc
