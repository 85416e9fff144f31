"""Randomized hyperparameter search with stratified k-fold cross-validation.

All trials share one fold layout drawn up front from the seed, so trial
scores are comparable. The score is mean fold accuracy; a fold whose
validation side collapses to a single class is dropped from the mean with a
recorded warning. The best assignment is refit on the full training set.
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
    warnings: tuple[str, ...] = ()


def stratified_folds(targets: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    """Disjoint validation index sets covering all rows, each class spread
    round-robin over folds after a seeded shuffle."""
    targets = np.asarray(targets)
    if n_folds < 2:
        raise ValidationError("need at least 2 folds")
    classes, counts = np.unique(targets, return_counts=True)  # with counts: no import of numpy.ma
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

    warnings: list[str] = []
    trials: list[CvTrial] = []
    for trial_no, hyper in enumerate(assignments):
        scores = []
        for fold_no, val_idx in enumerate(fold_idx):
            if len(np.unique(train_ds.targets[val_idx], return_counts=True)[0]) < 2:  # with counts: no numpy.ma
                warnings.append(f"trial {trial_no}: fold {fold_no} validation side is single-class, skipped")
                continue
            tr_idx = np.delete(all_idx, val_idx)  # not setdiff1d, which imports numpy.ma
            sub = Dataset(matrix=train_ds.matrix[tr_idx], targets=train_ds.targets[tr_idx])
            model = train(family, sub, hyper, seed=fit_seed)
            preds = model.predict(train_ds.matrix[val_idx])
            scores.append(float((preds == train_ds.targets[val_idx]).mean()))
        if not scores:
            raise StratificationError(f"trial {trial_no}: every fold was degenerate")
        trials.append(CvTrial(hyper=hyper, fold_scores=tuple(scores), mean_score=float(np.mean(scores))))

    best_index = max(range(n_iter), key=lambda i: (trials[i].mean_score, -i))  # first best wins ties
    best = train(family, train_ds, trials[best_index].hyper, seed=fit_seed)
    report = CvReport(trials=tuple(trials), best_index=best_index, warnings=tuple(warnings))
    return best, report
