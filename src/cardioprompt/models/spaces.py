"""Search spaces for the six classifier families.

Knob counts per family are fixed at RF=5, LR=3, MLP=8, KNN=5, GBT=6, ADA=2
(29 total) and the names mirror the common library spellings. Where the
library knob has no effect on the fitted function, ours is inert the same way:
KNN algorithm/leaf_size select a search backend we replace with brute force,
GBT use_label_encoder and eval_metric are no-ops, LR solver picks between
two gradient-descent flavors.
A space is a name -> draw-rule mapping; draws use one generator in fixed key
order so a seed pins the whole assignment.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

FAMILIES = ("RF", "LR", "MLP", "KNN", "GBT", "ADA")

# draw rules: ("int", lo, hi) inclusive, ("logu", lo, hi), ("unif", lo, hi),
# ("choice", (options...))
SPACES: dict[str, dict[str, tuple]] = {
    "RF": {
        "n_estimators": ("int", 50, 400),
        "max_depth": ("int", 2, 12),
        "min_samples_split": ("int", 2, 10),
        "min_samples_leaf": ("int", 1, 5),
        "bootstrap": ("choice", (True, False)),
    },
    "LR": {
        "C": ("logu", 1e-3, 1e2),
        "penalty": ("choice", ("l2", "none")),
        "solver": ("choice", ("gd", "gd_momentum")),
    },
    "MLP": {
        "hidden_layer_sizes": ("choice", ((25,), (50,), (100,), (50, 25), (100, 50))),
        "activation": ("choice", ("relu", "tanh", "logistic")),
        "solver": ("choice", ("sgd", "adam")),
        "alpha": ("logu", 1e-5, 1e-1),
        "learning_rate": ("choice", ("constant", "invscaling", "adaptive")),
        "learning_rate_init": ("logu", 1e-4, 1e-1),
        "tol": ("choice", (1e-3, 1e-4, 1e-5)),
        "max_iter": ("int", 100, 300),
    },
    "KNN": {
        "n_neighbors": ("int", 1, 25),
        "weights": ("choice", ("uniform", "distance")),
        "algorithm": ("choice", ("auto", "ball_tree", "kd_tree", "brute")),
        "leaf_size": ("int", 10, 60),
        "p": ("choice", (1, 2)),
    },
    "GBT": {
        "use_label_encoder": ("choice", (False,)),
        "eval_metric": ("choice", ("logloss", "error")),
        "n_estimators": ("int", 50, 300),
        "learning_rate": ("logu", 0.01, 0.5),
        "max_depth": ("int", 2, 8),
        "colsample_bytree": ("unif", 0.5, 1.0),
    },
    "ADA": {
        "n_estimators": ("int", 50, 400),
        "learning_rate": ("logu", 0.01, 2.0),
    },
}

EXPECTED_KNOB_COUNTS = {"RF": 5, "LR": 3, "MLP": 8, "KNN": 5, "GBT": 6, "ADA": 2}


def sample_assignment(family: str, rng: np.random.Generator) -> dict:
    """Draw one hyperparameter assignment uniformly from the family's space."""
    if family not in SPACES:
        raise ValidationError(f"unknown model family {family!r}")
    out = {}
    for name, rule in SPACES[family].items():
        kind = rule[0]
        if kind == "int":
            out[name] = int(rng.integers(rule[1], rule[2] + 1))
        elif kind == "logu":
            out[name] = float(np.exp(rng.uniform(np.log(rule[1]), np.log(rule[2]))))
        elif kind == "unif":
            out[name] = float(rng.uniform(rule[1], rule[2]))
        elif kind == "choice":
            out[name] = rule[1][int(rng.integers(0, len(rule[1])))]
        else:
            raise ValidationError(f"unknown draw rule {kind!r}")
    return out
