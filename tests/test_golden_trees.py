"""Golden model artifacts: seeded fits of every model family and of the
plain tree must serialize to the same bytes as the recorded sha256 in
tests/golden/tree_artifacts.json.

The split kernel is an exact algorithm, so any change to its arithmetic,
its tie-breaking, its node numbering or its RNG draws shows up here; so
does any change to the fitted arithmetic of the LR, KNN and MLP families. A
deliberate contract change regenerates the file with
`PYTHONPATH=src python tests/test_golden_trees.py` and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from cardioprompt.data import binarize_target, holdout, knn_impute, split_at, standardize
from cardioprompt.models import DecisionTree, train
from cardioprompt.models.serialize import fitted_doc, model_to_json
from cardioprompt.synthetic import synthetic_raw

GOLDEN = Path(__file__).parent / "golden" / "tree_artifacts.json"

MODELS = {
    "RF-bootstrap": ("RF", {"n_estimators": 6, "max_depth": 6, "min_samples_split": 4, "min_samples_leaf": 2}),
    "RF-full-rows": ("RF", {"n_estimators": 3, "max_depth": None, "bootstrap": False}),
    "GBT-logloss": ("GBT", {"n_estimators": 12, "max_depth": 3, "learning_rate": 0.3, "colsample_bytree": 0.7}),
    "GBT-error": (
        "GBT",
        {"n_estimators": 8, "max_depth": 5, "learning_rate": 0.1, "colsample_bytree": 0.55, "eval_metric": "error"},
    ),
    "ADA": ("ADA", {"n_estimators": 40, "learning_rate": 0.8}),
    "LR": ("LR", {"C": 0.5, "solver": "gd_momentum", "max_iter": 200}),
    "KNN": ("KNN", {"n_neighbors": 7, "weights": "distance", "p": 1}),
    "MLP": ("MLP", {"hidden_layer_sizes": (6, 4), "activation": "logistic", "max_iter": 40}),
}

TREES = {  # criterion, weighted, min_samples_leaf, max_depth
    "gini": ("gini", False, 1, None),
    "gini-weighted": ("gini", True, 1, None),
    "gini-leaf3": ("gini", True, 3, 7),
    "mse": ("mse", False, 1, 6),
    "mse-weighted": ("mse", True, 1, 6),
    "mse-leaf4": ("mse", False, 4, None),
}


def _train_set():
    # imputed, standardized and split the way experiment.prepare does it
    full = knn_impute(binarize_target(synthetic_raw(300, missing_fraction=0.15, seed=5)), k=5)
    train_ds, test_ds = split_at(full, holdout(full, 0.2, seed=6))
    return standardize(train_ds, test_ds)[0]


def artifact_digests() -> dict[str, str]:
    ds = _train_set()
    X, y = ds.matrix, ds.targets.astype(float)
    rng = np.random.default_rng(8)
    weights = rng.uniform(0.1, 2.0, size=len(y))
    target = X @ rng.normal(size=X.shape[1]) + rng.normal(0, 0.5, size=len(y))  # regression target for mse

    docs = {name: model_to_json(train(family, ds, hyper, seed=3)) for name, (family, hyper) in MODELS.items()}
    for name, (criterion, weighted, leaf, depth) in TREES.items():
        tree = DecisionTree(max_depth=depth, min_samples_leaf=leaf, criterion=criterion)
        tree.fit(X, y if criterion == "gini" else target, sample_weight=weights if weighted else None)
        docs[f"tree-{name}"] = json.dumps(fitted_doc(tree))
    return {name: hashlib.sha256(doc.encode()).hexdigest() for name, doc in docs.items()}


def test_tree_artifacts_match_golden_bytes():
    expected = json.loads(GOLDEN.read_text())
    got = artifact_digests()
    assert sorted(got) == sorted(expected)
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(artifact_digests(), indent=2, sort_keys=True) + "\n")
