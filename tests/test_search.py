"""Cross-validated randomized search: fold construction, scoring, tie rules,
and the hyperparameter space inventory."""

from __future__ import annotations

import numpy as np
import pytest

from cardioprompt.data import Dataset
from cardioprompt.errors import StratificationError, ValidationError
from cardioprompt.models import (
    EXPECTED_KNOB_COUNTS,
    FAMILIES,
    SPACES,
    randomized_search,
    sample_assignment,
    stratified_folds,
)
from conftest import separable_1d, small_dataset


class TestStratifiedFolds:
    def test_partition_covers_all_rows(self):
        y = np.array([0, 1] * 25)
        folds = stratified_folds(y, 5, seed=3)
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(50))

    def test_folds_disjoint(self):
        y = np.array([0] * 30 + [1] * 20)
        folds = stratified_folds(y, 5, seed=1)
        seen = set()
        for f in folds:
            assert not (seen & set(f.tolist()))
            seen.update(f.tolist())

    def test_class_balance_within_one(self):
        y = np.array([0] * 33 + [1] * 17)
        folds = stratified_folds(y, 5, seed=8)
        for cls, total in ((0, 33), (1, 17)):
            counts = [int((y[f] == cls).sum()) for f in folds]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == total

    def test_deterministic_per_seed(self):
        y = np.tile([0, 1, 1], 20)
        a = stratified_folds(y, 4, seed=7)
        b = stratified_folds(y, 4, seed=7)
        c = stratified_folds(y, 4, seed=8)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))

    def test_indices_sorted(self):
        y = np.tile([0, 1], 30)
        for f in stratified_folds(y, 5, seed=11):
            assert np.all(np.diff(f) > 0)

    def test_small_class_rejected(self):
        y = np.array([0] * 46 + [1] * 4)
        with pytest.raises(StratificationError):
            stratified_folds(y, 5, seed=0)

    def test_min_folds(self):
        with pytest.raises(ValidationError):
            stratified_folds(np.array([0, 1, 0, 1]), 1, seed=0)


class TestSampleAssignment:
    def test_knob_counts_match_expected(self):
        for family in FAMILIES:
            assert len(SPACES[family]) == EXPECTED_KNOB_COUNTS[family]
        assert sum(EXPECTED_KNOB_COUNTS.values()) == 29

    def test_assignment_keys_cover_space(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            hyper = sample_assignment(family, rng)
            assert list(hyper.keys()) == list(SPACES[family].keys())

    def test_draws_deterministic(self):
        a = [sample_assignment("RF", np.random.default_rng(5)) for _ in range(3)]
        b = [sample_assignment("RF", np.random.default_rng(5)) for _ in range(3)]
        assert a == b

    def test_log_uniform_ranges(self):
        rng = np.random.default_rng(2)
        cs = [sample_assignment("LR", rng)["C"] for _ in range(200)]
        assert min(cs) >= 1e-3 and max(cs) <= 1e2
        # a log-uniform draw spends about half its mass below the geometric mid
        below = sum(c < np.sqrt(1e-3 * 1e2) for c in cs)
        assert 60 <= below <= 140

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            sample_assignment("SVM", np.random.default_rng(0))


class TestRandomizedSearch:
    def test_single_iteration(self):
        ds = small_dataset(60, seed=1)
        model, report = randomized_search("KNN", ds, n_iter=1, folds=3, seed=0)
        assert len(report.trials) == 1
        assert report.best_index == 0
        assert model.family == "KNN"
        assert model.hyper == report.trials[0].hyper

    def test_deterministic_per_seed(self):
        ds = small_dataset(60, seed=2)
        m1, r1 = randomized_search("KNN", ds, n_iter=4, folds=3, seed=9)
        m2, r2 = randomized_search("KNN", ds, n_iter=4, folds=3, seed=9)
        assert r1 == r2
        assert np.array_equal(m1.predict(ds.matrix), m2.predict(ds.matrix))

    def test_separable_scores_perfect(self):
        ds = separable_1d(n_per_class=15)
        model, report = randomized_search("RF", ds, n_iter=2, folds=3, seed=4)
        best = report.trials[report.best_index]
        assert best.mean_score == 1.0
        assert np.array_equal(model.predict(ds.matrix), ds.targets)

    def test_best_index_is_argmax(self):
        ds = small_dataset(80, seed=5)
        _, report = randomized_search("ADA", ds, n_iter=5, folds=3, seed=6)
        scores = [t.mean_score for t in report.trials]
        assert report.best_index == int(np.argmax(scores))
        # first occurrence wins among ties
        assert scores[report.best_index] == max(scores)
        assert all(s < scores[report.best_index] for s in scores[: report.best_index])

    def test_fold_scores_lengths(self):
        ds = small_dataset(60, seed=7)
        _, report = randomized_search("LR", ds, n_iter=2, folds=4, seed=1)
        for t in report.trials:
            assert len(t.fold_scores) == 4
            assert t.mean_score == pytest.approx(float(np.mean(t.fold_scores)))

    def test_n_iter_validation(self):
        with pytest.raises(ValidationError):
            randomized_search("RF", small_dataset(30), n_iter=0)

    def test_degenerate_fold_warns_and_drops(self, monkeypatch):
        # force a fold layout whose last fold holds only class 0
        import cardioprompt.models.search as search_mod

        ds = small_dataset(40, seed=3)

        def rigged(targets, n_folds, seed):
            idx = np.arange(len(targets))
            zeros = idx[targets == 0]
            ones = idx[targets == 1]
            assert len(zeros) >= 4 and len(ones) >= 1
            bad = zeros[:4]
            rest = np.setdiff1d(idx, bad)
            half = len(rest) // 2
            return [np.sort(rest[:half]), np.sort(rest[half:]), np.sort(bad)]

        monkeypatch.setattr(search_mod, "stratified_folds", rigged)
        _, report = randomized_search("KNN", ds, n_iter=2, folds=3, seed=0)
        assert any("single-class" in w for w in report.warnings)
        for t in report.trials:
            assert len(t.fold_scores) == 2  # degenerate fold dropped from the mean
