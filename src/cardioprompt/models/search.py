"""Randomized hyperparameter search with stratified k-fold cross-validation.

All trials share one fold layout drawn up front from the seed, so trial
scores are comparable. Every fold holds every class, so the score is the mean
accuracy over all folds. The best assignment is refit on the full training set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Dataset
from ..errors import StratificationError, ValidationError
from .spaces import sample_assignment
from .zoo import TrainedModel, train


@dataclass(frozen=True)
class CvTrial:
    hyper: dict
    fold_scores: tuple[float, ...]
    mean_score: float


@dataclass(frozen=True)
class CvReport:
    trials: tuple[CvTrial, ...]
    best_index: int


def stratified_folds(targets: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Disjoint validation index sets covering all rows, each class spread
    round-robin over folds after a seeded shuffle. Each of two or more
    classes has at least `n_folds` members, so every fold holds every class."""
    targets = np.asarray(targets)
    if n_folds < 2:
        raise ValidationError("need at least 2 folds")
    classes, counts = np.unique(targets, return_counts=True)  # with counts: no import of numpy.ma
    if len(classes) < 2:
        raise StratificationError(f"need two classes to stratify, got {len(classes)}")
    if (counts < n_folds).any():
        raise StratificationError(f"class {classes[counts < n_folds][0]} has fewer members than folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in classes:
        members = np.flatnonzero(targets == cls)
        members = members[rng.permutation(len(members))]
        for pos, row in enumerate(members):
            folds[pos % n_folds].append(int(row))
    return [np.array(sorted(f)) for f in folds]


def randomized_search(
    family: str,
    train_ds: Dataset,
    n_iter: int = 20,
    folds: int = 5,
    seed: int = 0,
) -> tuple[TrainedModel, CvReport]:
    if n_iter < 1:
        raise ValidationError("n_iter must be >= 1")
    ss = np.random.SeedSequence(seed)
    draw_seed, fold_seed, fit_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(3))

    rng = np.random.default_rng(draw_seed)
    assignments = [sample_assignment(family, rng) for _ in range(n_iter)]
    fold_idx = stratified_folds(train_ds.targets, folds, fold_seed)
    all_idx = np.arange(train_ds.n_rows)

    trials: list[CvTrial] = []
    for hyper in assignments:
        scores = []
        for val_idx in fold_idx:
            tr_idx = np.delete(all_idx, val_idx)  # not setdiff1d, which imports numpy.ma
            sub = Dataset(matrix=train_ds.matrix[tr_idx], targets=train_ds.targets[tr_idx])
            model = train(family, sub, hyper, seed=fit_seed)
            preds = model.predict(train_ds.matrix[val_idx])
            scores.append(float((preds == train_ds.targets[val_idx]).mean()))
        trials.append(CvTrial(hyper=hyper, fold_scores=tuple(scores), mean_score=float(np.mean(scores))))

    best_index = max(range(n_iter), key=lambda i: (trials[i].mean_score, -i))  # first best wins ties
    best = train(family, train_ds, trials[best_index].hyper, seed=fit_seed)
    return best, CvReport(trials=tuple(trials), best_index=best_index)
