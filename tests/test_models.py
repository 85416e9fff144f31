"""Behavioral tests for the from-scratch classifiers.

Oracles here are either analytic (gradient via central differences, majority
vote recount, base-rate log-odds) or structural invariants (stump error bound,
tie rules, determinism under a fixed seed).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioprompt.errors import ValidationError
from cardioprompt.models import (
    AdaBoostStumps,
    DecisionTree,
    GradientBoostedTrees,
    KNNClassifier,
    LogisticRegressionGD,
    MLPClassifier,
    RandomForest,
    build_ranking,
    loss_and_grad,
)
from cardioprompt.models import FAMILIES, TrainedModel, feature_importance, gbt, knn, train
from cardioprompt.models.serialize import model_from_json, model_to_json
from cardioprompt.models.zoo import ESTIMATORS
from cardioprompt.schema import FEATURE_NAMES
from conftest import separable_1d, small_dataset, xor_dataset


def _pad13(cols: np.ndarray) -> np.ndarray:
    """Zero-pad a (n, k<13) matrix out to the schema width."""
    out = np.zeros((cols.shape[0], 13))
    out[:, : cols.shape[1]] = cols
    return out


class TestDecisionTree:
    def test_stump_finds_separating_feature(self):
        ds = separable_1d()
        t = DecisionTree(max_depth=1)
        t.fit(ds.matrix, ds.targets)
        assert t.feature[0] == 0
        assert -1.0 < t.threshold[0] < 1.0
        assert np.array_equal(t.predict(ds.matrix), ds.targets)

    def test_stump_importance_concentrated(self):
        ds = separable_1d()
        t = DecisionTree(max_depth=1)
        t.fit(ds.matrix, ds.targets)
        raw = t.importance_raw_
        assert raw[0] > 0
        assert np.all(raw[1:] == 0)

    def test_pure_node_is_leaf(self):
        X = _pad13(np.arange(6, dtype=float).reshape(-1, 1))
        y = np.zeros(6)
        t = DecisionTree()
        t.fit(X, y)
        assert len(t.feature) == 1 and t.feature[0] == -1

    def test_min_samples_leaf_respected(self):
        ds = separable_1d(n_per_class=5)
        t = DecisionTree(min_samples_leaf=4)
        t.fit(ds.matrix, ds.targets)
        # every leaf must hold >= 4 of the 10 rows; count arrivals per leaf
        leaf_of = {}
        for i, x in enumerate(ds.matrix):
            node = 0
            while t.feature[node] != -1:
                node = t.left[node] if x[t.feature[node]] <= t.threshold[node] else t.right[node]
            leaf_of.setdefault(node, 0)
            leaf_of[node] += 1
        assert all(c >= 4 for c in leaf_of.values())

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    @pytest.mark.parametrize("min_samples_leaf,min_samples_split", [(0, 2), (-1, 2), (0, 1), (0, 0)])
    def test_min_samples_leaf_below_one_acts_as_one(self, criterion, min_samples_leaf, min_samples_split):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        w = rng.uniform(0.1, 3, 40)
        if criterion == "gini":
            y = (X[:, 0] + rng.normal(0, 0.5, 40) > 0).astype(float)
        else:
            y = rng.normal(size=40) * 1e6 + 3e7
        ref = DecisionTree(criterion=criterion).fit(X, y, w)
        t = DecisionTree(criterion=criterion, min_samples_leaf=min_samples_leaf, min_samples_split=min_samples_split)
        t.fit(X, y, w)
        assert (t.feature, t.threshold, t.left, t.right, t.value) == (
            ref.feature,
            ref.threshold,
            ref.left,
            ref.right,
            ref.value,
        )

    def test_one_row_node_is_a_leaf_without_split_limits(self):
        # y * w / w != y here, so the one-row node's mse impurity is above zero
        y, w = 89729889427.44878, 1.5660389455323225
        t = DecisionTree(criterion="mse", min_samples_leaf=0, min_samples_split=1).fit([[0.0]], [y], [w])
        assert t.feature == [-1]

    def test_mse_tree_beats_global_mean(self):
        rng = np.random.default_rng(3)
        X = _pad13(rng.uniform(-1, 1, size=(80, 2)))
        y = np.where(X[:, 0] > 0, 2.0, -1.0) + rng.normal(0, 0.05, 80)
        t = DecisionTree(criterion="mse", max_depth=2)
        t.fit(X, y)
        pred = t.predict_value(X)
        sse_tree = float(((y - pred) ** 2).sum())
        sse_mean = float(((y - y.mean()) ** 2).sum())
        assert sse_tree < 0.1 * sse_mean

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (np.nextafter(1.0, np.inf), np.nextafter(np.nextafter(1.0, np.inf), np.inf)),  # midpoint rounds up
            (1e308, 1.7e308),  # midpoint overflows to +inf
            (-1.7e308, -1e308),  # midpoint overflows to -inf
        ],
    )
    def test_threshold_separates_adjacent_values(self, criterion, lo, hi):
        X = np.array([[lo], [lo], [hi], [hi], [np.nextafter(hi, np.inf)]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        for depth in (None, 1):  # unlimited depth recursed without end, depth 1 misrouted the scored rows
            t = DecisionTree(max_depth=depth, criterion=criterion).fit(X, y)
            assert lo <= t.threshold[0] < hi
            assert np.array_equal(t.predict_value(X), y)

    def test_shape_validation(self):
        t = DecisionTree()
        with pytest.raises(ValidationError):
            t.fit(np.zeros(5), np.zeros(5))


class TestLogisticRegression:
    def test_gradient_matches_central_differences(self):
        # analytic gradient vs numeric differentiation at random points
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(50):
            n, d = int(rng.integers(4, 12)), int(rng.integers(1, 6))
            X = rng.normal(0, 1, size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            lam = float(rng.uniform(0, 2))
            theta = rng.normal(0, 1, size=d + 1)
            _, grad = loss_and_grad(theta, X, y, lam)
            fd = np.empty_like(theta)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                lp, _ = loss_and_grad(theta + e, X, y, lam)
                lm, _ = loss_and_grad(theta - e, X, y, lam)
                fd[j] = (lp - lm) / (2 * h)
            assert np.max(np.abs(grad - fd)) <= 1e-5

    def test_separable_perfect_accuracy(self):
        ds = separable_1d()
        m = LogisticRegressionGD(C=10.0)
        m.fit(ds.matrix, ds.targets)
        assert np.array_equal(m.predict(ds.matrix), ds.targets)

    def test_fit_reduces_loss(self):
        ds = small_dataset(80, seed=5)
        m = LogisticRegressionGD(max_iter=500)
        m.fit(ds.matrix / ds.matrix.std(axis=0), ds.targets)
        lam = 1.0 / (m.C * len(ds.targets))
        l0, _ = loss_and_grad(np.zeros(14), ds.matrix / ds.matrix.std(axis=0), ds.targets.astype(float), lam)
        l1, _ = loss_and_grad(m.theta, ds.matrix / ds.matrix.std(axis=0), ds.targets.astype(float), lam)
        assert l1 < l0
        assert m.n_iter_ > 0

    def test_zero_weights_tie_predicts_positive(self):
        m = LogisticRegressionGD()
        m.theta = np.zeros(14)
        X = np.arange(26, dtype=float).reshape(2, 13)
        assert np.array_equal(m.predict(X), [1, 1])
        assert np.allclose(m.predict_proba(X), 0.5)

    def test_no_penalty_mode(self):
        ds = separable_1d()
        m = LogisticRegressionGD(penalty="none", max_iter=200)
        m.fit(ds.matrix, ds.targets)
        assert (m.predict(ds.matrix) == ds.targets).mean() == 1.0

    def test_importance_is_abs_weights(self):
        ds = separable_1d()
        m = LogisticRegressionGD()
        m.fit(ds.matrix, ds.targets)
        assert np.array_equal(m.raw_importance(), np.abs(m.theta[:-1]))


class TestRandomForest:
    def test_prediction_is_majority_vote_of_trees(self):
        ds = small_dataset(80, seed=1)
        f = RandomForest(n_estimators=7, max_depth=4, seed=3)
        f.fit(ds.matrix, ds.targets)
        votes = np.stack([t.predict(ds.matrix) for t in f.trees])
        ones = votes.sum(axis=0)
        recount = (2 * ones >= len(f.trees)).astype(int)
        assert np.array_equal(f.predict(ds.matrix), recount)

    def test_even_vote_tie_goes_positive(self):
        ds = small_dataset(60, seed=2)
        f = RandomForest(n_estimators=2, max_depth=1, seed=0)
        f.fit(ds.matrix, ds.targets)
        votes = np.stack([t.predict(ds.matrix) for t in f.trees])
        split_rows = votes.sum(axis=0) == 1
        if split_rows.any():
            assert np.all(f.predict(ds.matrix)[split_rows] == 1)

    def test_same_seed_reproduces(self):
        ds = small_dataset(80, seed=6)
        a = RandomForest(n_estimators=10, seed=42)
        b = RandomForest(n_estimators=10, seed=42)
        a.fit(ds.matrix, ds.targets)
        b.fit(ds.matrix, ds.targets)
        assert np.array_equal(a._votes(ds.matrix), b._votes(ds.matrix))  # every tree's vote on every row

    def test_importance_shape_and_sign(self):
        ds = separable_1d()
        f = RandomForest(n_estimators=10, max_depth=2, seed=0)
        f.fit(ds.matrix, ds.targets)
        raw = f.raw_importance()
        assert raw.shape == (13,)
        assert np.all(raw >= 0)
        assert raw.argmax() == 0


class TestGradientBoostedTrees:
    def test_xor_learnable_with_depth_two(self):
        ds = xor_dataset(15)
        m = GradientBoostedTrees(n_estimators=80, learning_rate=0.3, max_depth=2, seed=0)
        m.fit(ds.matrix, ds.targets)
        assert (m.predict(ds.matrix) == ds.targets).mean() == 1.0

    def test_zero_learning_rate_is_constant_base(self):
        ds = small_dataset(60, seed=3)
        m = GradientBoostedTrees(n_estimators=5, learning_rate=0.0, seed=0)
        m.fit(ds.matrix, ds.targets)
        scores = m.decision_function(ds.matrix)
        assert np.allclose(scores, m.base_score_)
        base_rate = ds.targets.mean()
        expected = np.log(base_rate / (1 - base_rate))
        assert m.base_score_ == pytest.approx(expected, abs=1e-9)
        majority = 1 if base_rate >= 0.5 else 0
        assert np.all(m.predict(ds.matrix) == majority)

    def test_colsample_restricts_split_features(self):
        ds = small_dataset(80, seed=8)
        m = GradientBoostedTrees(n_estimators=6, colsample_bytree=0.5, max_depth=2, seed=5)
        m.fit(ds.matrix, ds.targets)
        allowed = set()
        for tree, cols in zip(m.trees, m.tree_cols):
            assert len(cols) == 6  # round(0.5 * 13) columns per round
            # trees are fit on the sub-matrix, so split indices stay in range
            assert all(f < len(cols) for f in tree.feature if f != -1)
            allowed.update(cols.tolist())
        unused = sorted(set(range(13)) - allowed)
        assert np.all(m.raw_importance()[unused] == 0)

    def test_same_seed_reproduces(self):
        ds = small_dataset(70, seed=9)
        a = GradientBoostedTrees(n_estimators=10, colsample_bytree=0.7, seed=21)
        b = GradientBoostedTrees(n_estimators=10, colsample_bytree=0.7, seed=21)
        a.fit(ds.matrix, ds.targets)
        b.fit(ds.matrix, ds.targets)
        assert np.array_equal(a.decision_function(ds.matrix), b.decision_function(ds.matrix))

    def test_eval_metric_is_inert(self):
        ds = small_dataset(50, seed=1)
        a = GradientBoostedTrees(n_estimators=8, colsample_bytree=0.6, seed=4, eval_metric="logloss")
        b = GradientBoostedTrees(n_estimators=8, colsample_bytree=0.6, seed=4, eval_metric="error")
        a.fit(ds.matrix, ds.targets)
        b.fit(ds.matrix, ds.targets)
        assert a.base_score_ == b.base_score_
        assert len(a.trees) == len(b.trees) == 8
        for ta, tb, ca, cb in zip(a.trees, b.trees, a.tree_cols, b.tree_cols):
            assert np.array_equal(ca, cb)
            for arrays in ("feature", "threshold", "left", "right", "value"):
                assert getattr(ta, arrays) == getattr(tb, arrays)

    def test_one_sigmoid_per_round(self, monkeypatch):
        # each round takes its residual from the probabilities of the score so far
        calls = []
        sigmoid = gbt._sigmoid
        monkeypatch.setattr(gbt, "_sigmoid", lambda z: calls.append(z) or sigmoid(z))
        ds = small_dataset(40, seed=2)
        GradientBoostedTrees(n_estimators=7, max_depth=2).fit(ds.matrix, ds.targets)
        assert len(calls) == 7


class TestAdaBoost:
    def test_stump_errors_never_exceed_half(self):
        # weighted-majority leaves guarantee each stump is at least as good
        # as the best constant under the current weights
        for seed in (2, 5, 7):
            ds = small_dataset(80, seed=seed)
            m = AdaBoostStumps(n_estimators=30)
            m.fit(ds.matrix, ds.targets)
            assert m.stump_errors
            assert all(e <= 0.5 + 1e-12 for e in m.stump_errors)

    def test_margin_bounded(self):
        ds = small_dataset(60, seed=4)
        m = AdaBoostStumps(n_estimators=20)
        m.fit(ds.matrix, ds.targets)
        margin = m.decision_function(ds.matrix)
        assert np.all(margin >= -1 - 1e-12) and np.all(margin <= 1 + 1e-12)
        assert np.allclose(m.predict_proba(ds.matrix), (margin + 1) / 2)

    def test_separable_early_stop_perfect(self):
        ds = separable_1d()
        m = AdaBoostStumps(n_estimators=25)
        m.fit(ds.matrix, ds.targets)
        assert np.array_equal(m.predict(ds.matrix), ds.targets)
        # a perfect first stump caps the ensemble at one member
        assert len(m.stumps) == 1

    def test_importance_from_stumps(self):
        ds = separable_1d()
        m = AdaBoostStumps(n_estimators=10)
        m.fit(ds.matrix, ds.targets)
        raw = m.raw_importance()
        assert raw.argmax() == 0


class TestKNN:
    def test_k1_memorizes_training_set(self):
        ds = separable_1d()
        m = KNNClassifier(n_neighbors=1)
        m.fit(ds.matrix, ds.targets)
        assert np.array_equal(m.predict(ds.matrix), ds.targets)

    def test_distance_ties_break_by_row_index(self):
        X = _pad13(np.array([[1.0], [-1.0], [5.0]]))
        y = np.array([0, 1, 1])
        m = KNNClassifier(n_neighbors=1)
        m.fit(X, y)
        q = _pad13(np.array([[0.0]]))
        # rows 0 and 1 are equidistant; the lower index must win
        assert m.predict(q)[0] == 0

    def test_zero_distance_dominates_distance_weights(self):
        X = _pad13(np.array([[0.0], [0.01], [0.02], [0.03]]))
        y = np.array([0, 1, 1, 1])
        m = KNNClassifier(n_neighbors=3, weights="distance")
        m.fit(X, y)
        q = _pad13(np.array([[0.0]]))
        assert m.predict(q)[0] == 0

    def test_manhattan_changes_metric(self):
        X = _pad13(np.array([[0.0, 0.0], [3.0, 0.0], [2.2, 2.2]]))
        y = np.array([0, 1, 1])
        q = _pad13(np.array([[0.0, 0.1]]))
        # euclidean: row 1 at 3.0 vs row 2 at ~3.04  -> picks row 1 either way;
        # use k=2 so the metric decides the farther neighbor's weight ordering
        m1 = KNNClassifier(n_neighbors=1, p=1)
        m1.fit(X, y)
        m2 = KNNClassifier(n_neighbors=1, p=2)
        m2.fit(X, y)
        # L1 distance to row 2 is 4.3, L2 distance is ~3.04; row 0 sits at 0.1
        # under both, so predictions agree here; assert the internal ordering
        # differs by checking probabilities with k=3 distance weights
        m3 = KNNClassifier(n_neighbors=3, weights="distance", p=1)
        m4 = KNNClassifier(n_neighbors=3, weights="distance", p=2)
        m3.fit(X, y)
        m4.fit(X, y)
        assert not np.allclose(m3.predict_proba(q), m4.predict_proba(q))

    def test_probability_threshold_tie_positive(self):
        X = _pad13(np.array([[0.0], [2.0]]))
        y = np.array([0, 1])
        m = KNNClassifier(n_neighbors=2)
        m.fit(X, y)
        q = _pad13(np.array([[1.0]]))
        assert m.predict_proba(q)[0] == pytest.approx(0.5)
        assert m.predict(q)[0] == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blocked_kernel_matches_the_broadcast_formula(self, data):
        n_train = data.draw(st.integers(1, 300), label="n_train")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a pool smaller than n_train duplicates rows; small integers tie distances
        pool = rng.integers(-2, 3, size=(data.draw(st.integers(1, n_train)), 13)).astype(float)
        if data.draw(st.booleans(), label="continuous"):
            pool = pool + rng.normal(size=pool.shape)
        X = pool[rng.integers(0, len(pool), size=n_train)]
        y = rng.integers(0, 2, size=n_train)
        m = KNNClassifier(
            n_neighbors=data.draw(st.integers(1, n_train), label="n_neighbors"),
            weights=data.draw(st.sampled_from(["uniform", "distance"]), label="weights"),
            p=data.draw(st.sampled_from([1, 2, 3]), label="p"),
        ).fit(X, y)

        block = max(1, knn._BLOCK_ELEMENTS // X.size)
        n_query = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 3 * block + 1]), label="n_query")
        # about half the queries are training rows (zero distances), the rest
        # grid points, some of them jittered
        jitter = rng.normal(size=(n_query, 13)) * rng.integers(0, 2, size=(n_query, 1))
        Q = np.where(
            rng.random((n_query, 1)) < 0.5,
            X[rng.integers(0, n_train, size=n_query)],
            rng.integers(-2, 3, size=(n_query, 13)) + jitter,
        )

        got = m.predict_proba(Q)
        assert got.shape == (n_query,)
        assert got.tobytes() == _broadcast_proba(m, Q).tobytes()

    def test_one_call_stays_under_four_mb_of_scratch(self):
        # the paper-scale test split: 184 queries against 736 training rows
        rng = np.random.default_rng(0)
        m = KNNClassifier(n_neighbors=7, weights="distance").fit(rng.normal(size=(736, 13)), rng.integers(0, 2, 736))
        Q = rng.normal(size=(184, 13))
        tracemalloc.start()
        try:
            m.predict_proba(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _broadcast_proba(m: KNNClassifier, X: np.ndarray) -> np.ndarray:
    """The unblocked reference: every query against every training row at
    once, neighbors ordered by a lexsort on (distance, row index)."""
    diff = np.abs(X[:, None, :] - m.X_[None, :, :])
    dist = diff.sum(-1) if m.p == 1 else (diff**m.p).sum(-1) ** (1.0 / m.p)
    order = np.lexsort((np.broadcast_to(np.arange(len(m.y_)), dist.shape), dist), axis=1)
    kth = order[:, : m.n_neighbors]
    kdist = np.take_along_axis(dist, kth, axis=1)
    if m.weights == "uniform":
        wts = np.ones_like(kdist)
    else:
        zero = kdist == 0
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.where(zero, 1.0, kdist)
        wts = np.where(zero.any(axis=1, keepdims=True), zero.astype(float), inv)
    return (wts * m.y_[kth]).sum(axis=1) / wts.sum(axis=1)


class TestMLP:
    def test_learns_separable(self):
        ds = separable_1d()
        m = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=300, seed=0)
        m.fit(ds.matrix, ds.targets)
        assert (m.predict(ds.matrix) == ds.targets).mean() == 1.0

    def test_same_seed_reproduces(self):
        ds = small_dataset(60, seed=2)
        a = MLPClassifier(hidden_layer_sizes=(6,), max_iter=50, seed=13)
        b = MLPClassifier(hidden_layer_sizes=(6,), max_iter=50, seed=13)
        a.fit(ds.matrix, ds.targets)
        b.fit(ds.matrix, ds.targets)
        assert np.array_equal(a.predict_proba(ds.matrix), b.predict_proba(ds.matrix))

    def test_max_iter_exhaustion_flags_nonconverged(self):
        ds = small_dataset(60, seed=3)
        m = MLPClassifier(max_iter=2, tol=0.0, seed=0)
        m.fit(ds.matrix, ds.targets)
        assert m.converged is False
        assert len(m.loss_curve_) == 2

    def test_loss_curve_decreases_overall(self):
        ds = separable_1d()
        m = MLPClassifier(hidden_layer_sizes=(8,), solver="adam", max_iter=200, seed=1)
        m.fit(ds.matrix, ds.targets)
        assert m.loss_curve_[-1] < m.loss_curve_[0]

    def test_bad_settings_rejected(self):
        with pytest.raises(ValidationError):
            MLPClassifier(activation="swish").fit(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValidationError):
            MLPClassifier(hidden_layer_sizes=(0,)).fit(np.zeros((4, 2)), np.zeros(4))


class _Constant:
    """A model that learned nothing: its importance is all zero."""

    def raw_importance(self):
        return np.zeros(13)


class TestImportance:
    def test_ranking_ties_break_canonically(self):
        raw = np.zeros(13)
        raw[:3] = (2.0, 1.0, 1.0)
        r = build_ranking(raw, source="LR")
        names = [n for n, _ in r.entries]
        weights = [w for _, w in r.entries]
        assert names[:3] == ["age", "sex", "cp"]
        assert weights[:3] == pytest.approx([0.5, 0.25, 0.25])
        # zero-weight tail keeps canonical schema order
        assert names[3:] == FEATURE_NAMES[3:]
        assert r.degenerate is False

    def test_negative_scores_clipped(self):
        raw = np.zeros(13)
        raw[:3] = (2.0, -1.0, 1.0)
        r = build_ranking(raw, source="GBT")
        assert r.entries[0] == ("age", pytest.approx(2 / 3))
        assert r.entries[1] == ("cp", pytest.approx(1 / 3))
        assert r.entries[2][0] == "sex" and r.entries[2][1] == 0.0

    def test_all_zero_degenerates_to_uniform(self):
        r = build_ranking(np.zeros(13), source="KNN")
        assert r.degenerate is True
        assert [n for n, _ in r.entries] == FEATURE_NAMES
        assert all(w == pytest.approx(1 / 13) for _, w in r.entries)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.uniform(0, 5, size=13)
            r = build_ranking(raw, source="RF")
            assert sum(w for _, w in r.entries) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            build_ranking(np.ones(5), source="RF")

    def test_constant_model_yields_degenerate_ranking(self):
        m = feature_importance(TrainedModel(family="LR", hyper={}, estimator=_Constant()))
        assert m.importance == build_ranking(np.zeros(13), source="LR")
        assert m.importance.degenerate is True


class TestZooAndSerialization:
    HYPERS = {
        "RF": {"n_estimators": 8, "max_depth": 4},
        "LR": {"max_iter": 300},
        "MLP": {"hidden_layer_sizes": (6,), "max_iter": 40},
        "KNN": {"n_neighbors": 5},
        "GBT": {"n_estimators": 8, "max_depth": 2},
        "ADA": {"n_estimators": 10},
    }

    def test_train_dispatch_and_roundtrip(self, tmp_path):
        ds = small_dataset(70, seed=12)
        probe = small_dataset(20, seed=13)
        for family in FAMILIES:
            m = train(family, ds, self.HYPERS[family], seed=1)
            assert isinstance(m, TrainedModel)
            text = model_to_json(m)
            restored = model_from_json(text)
            assert model_to_json(restored) == text
            assert restored.family == family
            assert restored.hyper == m.hyper
            assert np.array_equal(restored.predict(probe.matrix), m.predict(probe.matrix))

    def test_every_family_refuses_other_labels_and_misaligned_rows(self):
        ds = small_dataset(30, seed=16)
        for family in FAMILIES:
            est = ESTIMATORS[family](**self.HYPERS[family])
            with pytest.raises(ValidationError, match="labels must be 0/1"):
                est.fit(ds.matrix, 2 * ds.targets)
            with pytest.raises(ValidationError, match="aligned with y"):
                est.fit(ds.matrix, ds.targets[:-1])

    def test_importance_survives_roundtrip(self):
        ds = small_dataset(70, seed=14)
        m = feature_importance(train("LR", ds, self.HYPERS["LR"]), ds)
        restored = model_from_json(model_to_json(m))
        assert restored.importance == m.importance
        assert restored.importance.source == "LR"

    def test_intrinsic_importance_paths(self):
        ds = small_dataset(60, seed=15)
        for family in ("RF", "LR", "GBT", "ADA"):
            m = feature_importance(train(family, ds, self.HYPERS[family]))
            assert m.importance == build_ranking(m.estimator.raw_importance(), source=family)
            assert len(m.importance.entries) == 13
            assert sum(w for _, w in m.importance.entries) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", ["KNN", "MLP"])
    def test_a_family_without_intrinsic_importance_is_refused(self, family):
        m = train(family, small_dataset(40, seed=16), self.HYPERS[family])
        with pytest.raises(ValidationError, match=f"family {family} has no intrinsic feature importance"):
            feature_importance(m)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            train("SVM", small_dataset(20))

    def test_format_version_guard(self):
        ds = small_dataset(30, seed=0)
        doc = model_to_json(train("KNN", ds, {"n_neighbors": 3}))
        tampered = doc.replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ValidationError):
            model_from_json(tampered)
