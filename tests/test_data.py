"""Ingest, imputation, splitting, and standardization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioprompt.data import (
    Dataset,
    RawDataset,
    binarize_target,
    holdout,
    knn_impute,
    load_csv,
    load_split,
    save_split,
    split_at,
    standardize,
    stats,
    write_imputed_csv,
)
from cardioprompt.errors import ImputationError, ParseError, StratificationError, ValidationError
from cardioprompt.schema import FEATURE_NAMES
from cardioprompt.synthetic import synthetic_raw

from conftest import small_dataset


def _csv_line(values) -> str:
    return ",".join(str(v) for v in values)


def _write_csv(tmp_path, rows, header=False):
    path = tmp_path / "data.csv"
    lines = []
    if header:
        lines.append(_csv_line(FEATURE_NAMES + ["num"]))
    lines += [_csv_line(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


_ROW_OK = [63, 1, 1, 145, 233, 1, 2, 150, 0, 2.3, 3, 0, 6, 0]


class TestLoadCsv:
    def test_plain_rows(self, tmp_path):
        raw = load_csv(_write_csv(tmp_path, [_ROW_OK, _ROW_OK[:-1] + [2]]))
        assert raw.n_rows == 2
        assert raw.targets.tolist() == [0, 2]
        assert raw.matrix.shape == (2, 13)

    def test_header_detected_and_skipped(self, tmp_path):
        raw = load_csv(_write_csv(tmp_path, [_ROW_OK], header=True))
        assert raw.n_rows == 1

    def test_question_mark_and_empty_mean_missing(self, tmp_path):
        row = list(_ROW_OK)
        row[4] = "?"
        row[11] = ""
        raw = load_csv(_write_csv(tmp_path, [row]))
        assert np.isnan(raw.matrix[0, 4])
        assert np.isnan(raw.matrix[0, 11])
        assert raw.n_with_missing == 1

    def test_wrong_arity_raises_with_line(self, tmp_path):
        with pytest.raises(ParseError, match=r"data\.csv: line 1: "):
            load_csv(_write_csv(tmp_path, [_ROW_OK[:-2] + [0]]))

    def test_non_numeric_cell_raises(self, tmp_path):
        row = list(_ROW_OK)
        row[2] = "abc"
        with pytest.raises(ParseError):
            load_csv(_write_csv(tmp_path, [row]))

    def test_target_out_of_range_raises(self, tmp_path):
        row = list(_ROW_OK)
        row[-1] = 7
        with pytest.raises(ParseError):
            load_csv(_write_csv(tmp_path, [row]))

    def test_missing_target_raises(self, tmp_path):
        row = list(_ROW_OK)
        row[-1] = "?"
        with pytest.raises(ParseError):
            load_csv(_write_csv(tmp_path, [row]))

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "NaN"])
    def test_infinite_cell_raises_naming_file_and_line(self, tmp_path, cell):
        row = list(_ROW_OK)
        row[4] = cell
        with pytest.raises(ParseError, match=rf"data\.csv: line 2: non-finite value '{cell}' in column chol$"):
            load_csv(_write_csv(tmp_path, [_ROW_OK, row]))

    def test_bytes_that_are_not_utf8_raise_naming_file_and_line(self, tmp_path):
        path = _write_csv(tmp_path, [_ROW_OK, _ROW_OK])
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ParseError, match=r"data\.csv: line 3: not UTF-8 \(invalid start byte at byte \d+\)$"):
            load_csv(path)

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path):
        path = _write_csv(tmp_path, [_ROW_OK], header=True)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_csv(path).matrix.tolist() == [[float(v) for v in _ROW_OK[:13]]]


class TestBinarize:
    def test_zero_stays_zero_and_positive_goes_one(self):
        raw = RawDataset(np.zeros((5, 13)), np.array([0, 1, 2, 3, 4]))
        assert binarize_target(raw).targets.tolist() == [0, 1, 1, 1, 1]

    def test_idempotent(self):
        raw = RawDataset(np.zeros((3, 13)), np.array([0, 2, 4]))
        once = binarize_target(raw)
        twice = binarize_target(once)
        assert (once.targets == twice.targets).all()

    def test_out_of_range_rejected(self):
        raw = RawDataset(np.zeros((1, 13)), np.array([5]))
        with pytest.raises(ValidationError):
            binarize_target(raw)


def _raw_small(matrix, targets=None):
    matrix = np.asarray(matrix, dtype=float)
    if targets is None:
        targets = np.zeros(len(matrix), dtype=int)
    return RawDataset(matrix, np.asarray(targets))


def _pad13(rows):
    """Place the given 2-column rows into 13-column matrices; the padding
    columns are constant so they do not disturb hand-computed distances."""
    rows = np.asarray(rows, dtype=float)
    out = np.full((len(rows), 13), 1.0)
    out[:, :2] = rows
    return out


class TestKnnImpute:
    def test_no_missing_is_identity(self):
        ds = small_dataset(30, seed=2)
        again = knn_impute(RawDataset(ds.matrix, ds.targets), k=5)
        assert (again.matrix == ds.matrix).all()
        assert (again.targets == ds.targets).all()

    def test_nearest_single_donor(self):
        # B's gap takes the value of its one nearest row on the shared dims
        m = _pad13([[1.0, 2.0], [1.1, np.nan], [9.0, 10.0]])
        ds = knn_impute(_raw_small(m), k=1)
        assert ds.matrix[1, 1] == pytest.approx(2.0)

    def test_mean_of_two_donors(self):
        m = _pad13([[1.0, 2.0], [1.1, np.nan], [9.0, 10.0]])
        ds = knn_impute(_raw_small(m), k=2)
        assert ds.matrix[1, 1] == pytest.approx(6.0)

    def test_present_cells_bitwise_unchanged(self):
        raw = synthetic_raw(80, missing_fraction=0.15, seed=7)
        raw = binarize_target(raw)
        ds = knn_impute(raw, k=4)
        present = ~np.isnan(raw.matrix)
        assert (ds.matrix[present] == raw.matrix[present]).all()
        assert not np.isnan(ds.matrix).any()

    def test_idempotent(self):
        raw = binarize_target(synthetic_raw(60, missing_fraction=0.2, seed=11))
        once = knn_impute(raw, k=3)
        twice = knn_impute(RawDataset(once.matrix, once.targets), k=3)
        assert (once.matrix == twice.matrix).all()

    def test_all_missing_column_named_in_error(self):
        m = np.ones((4, 13))
        m[:, 5] = np.nan
        with pytest.raises(ImputationError, match="fbs"):
            knn_impute(_raw_small(m), k=1)

    def test_random_missingness_property_suite(self):
        # 200 randomized small datasets: no NaN afterwards, present cells kept
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(6, 16))
            m = rng.normal(0, 1, size=(n, 13))
            gaps = rng.random(m.shape) < 0.2
            gaps[:, rng.integers(0, 13)] = False  # keep one full column
            for i in range(n):  # keep one cell per row
                if gaps[i].all():
                    gaps[i, 0] = False
            keep_col = gaps.all(axis=0)
            gaps[:, keep_col] = False  # no fully missing column
            mm = np.where(gaps, np.nan, m)
            raw = _raw_small(mm, targets=rng.integers(0, 2, size=n))
            ds = knn_impute(raw, k=int(rng.integers(1, 4)))
            assert not np.isnan(ds.matrix).any(), f"trial {trial} left NaNs"
            present = ~np.isnan(mm)
            assert (ds.matrix[present] == mm[present]).all(), f"trial {trial} altered a present cell"


class TestSplit:
    def test_sizes_920_to_184(self, tmp_path):
        ds = small_dataset(920, seed=3)
        train, test = split_at(ds, holdout(ds, 0.2, seed=1))
        assert test.n_rows == 184
        assert train.n_rows == 736
        # split.json holds the test rows as a JSON list, which load_split reads back for data of as many rows
        rows, path = holdout(ds, 0.2, seed=1).tolist(), tmp_path / "split.json"
        save_split(path, tuple(rows))
        assert path.read_text() == json.dumps(rows)
        assert load_split(path, ds.n_rows) == rows
        with pytest.raises(ValidationError, match="^not row numbers below 184 in order, each once, with a row left"):
            load_split(path, 184)

    def test_deterministic(self):
        ds = small_dataset(100, seed=5)
        a = split_at(ds, holdout(ds, 0.25, seed=9))
        b = split_at(ds, holdout(ds, 0.25, seed=9))
        assert (a[0].matrix == b[0].matrix).all()
        assert (a[1].matrix == b[1].matrix).all()

    def test_partition_property(self):
        ds = small_dataset(97, seed=6)
        train, test = split_at(ds, holdout(ds, 0.3, seed=2))
        assert train.n_rows + test.n_rows == ds.n_rows
        # every original row appears exactly once across the two sides
        combined = np.vstack([train.matrix, test.matrix])
        assert combined.shape == ds.matrix.shape
        order = np.lexsort(combined.T)
        base = np.lexsort(ds.matrix.T)
        assert (combined[order] == ds.matrix[base]).all()

    def test_stratified_within_one(self):
        ds = small_dataset(150, seed=8)
        train, test = split_at(ds, holdout(ds, 0.2, seed=3))
        global_ratio = ds.targets.mean()
        for side in (train, test):
            assert abs(side.targets.sum() - global_ratio * side.n_rows) <= 1.0

    def test_tiny_balanced(self):
        X = np.arange(10 * 13, dtype=float).reshape(10, 13)
        y = np.array([0, 1] * 5)
        ds = Dataset(X, y)
        train, test = split_at(ds, holdout(ds, 0.2, seed=0))
        assert test.n_rows == 2
        assert sorted(test.targets.tolist()) == [0, 1]

    def test_single_member_class_rejected(self):
        X = np.zeros((5, 13))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(StratificationError):
            holdout(Dataset(X, y), 0.2, seed=0)

    @given(st.integers(20, 120), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_split_partition_hypothesis(self, n, seed):
        ds = small_dataset(n, seed=1)
        train, test = split_at(ds, holdout(ds, 0.2, seed=seed))
        assert train.n_rows + test.n_rows == n
        assert test.n_rows == int(np.floor(n * 0.2 + 0.5))


class TestStandardize:
    def test_hand_computed_zscores(self):
        X = np.ones((3, 13))
        X[:, 0] = [1.0, 2.0, 3.0]
        y = np.array([0, 1, 0])
        train = Dataset(X, y)
        test = Dataset(X.copy(), y.copy())
        tr, _ = standardize(train, test)
        assert tr.matrix[:, 0] == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)

    def test_constant_column_passes_through_centered(self):
        X = np.full((3, 13), 5.0)
        ds = Dataset(X, np.array([0, 1, 0]))
        tr, te = standardize(ds, Dataset(X + 1.0, ds.targets))
        assert (tr.matrix == 0).all()
        assert (te.matrix == 1.0).all()  # the zero stddev is replaced by 1

    def test_train_only_statistics(self):
        ds = small_dataset(50, seed=12)
        train, test = split_at(ds, holdout(ds, 0.2, seed=1))
        mean, std = train.matrix.mean(axis=0), train.matrix.std(axis=0)
        _, te = standardize(train, test)
        assert te.matrix == pytest.approx((test.matrix - mean) / np.where(std == 0, 1.0, std))
        # a test value equal to the train mean lands at 0
        _, probe = standardize(train, Dataset(mean[None, :], np.array([0])))
        assert probe.matrix == pytest.approx(np.zeros((1, 13)))

    def test_roundtrip(self):
        ds = small_dataset(40, seed=13)
        train, test = split_at(ds, holdout(ds, 0.25, seed=2))
        tr, te = standardize(train, test)
        mean, std = train.matrix.mean(axis=0), train.matrix.std(axis=0)
        std = np.where(std == 0, 1.0, std)
        assert tr.matrix * std + mean == pytest.approx(train.matrix, abs=1e-9)
        assert te.matrix * std + mean == pytest.approx(test.matrix, abs=1e-9)

    def test_train_columns_centered_unit(self):
        ds = small_dataset(64, seed=14)
        train, test = split_at(ds, holdout(ds, 0.25, seed=3))
        tr, _ = standardize(train, test)
        assert tr.matrix.mean(axis=0) == pytest.approx(np.zeros(13), abs=1e-9)
        stds = tr.matrix.std(axis=0)
        varying = train.matrix.std(axis=0) > 0
        assert stds[varying] == pytest.approx(np.ones(varying.sum()), abs=1e-9)


class TestStats:
    def test_counts_and_male_fraction(self):
        m = np.ones((4, 13))
        m[0, FEATURE_NAMES.index("sex")] = 0
        m[2, 3] = np.nan
        raw = RawDataset(m, np.array([0, 2, 1, 0]))
        st_ = stats(raw)
        assert st_.n_total == 4
        assert st_.n_with_missing == 1
        assert st_.male_fraction == pytest.approx(0.75)

    def test_single_complete_row(self):
        raw = RawDataset(np.ones((1, 13)), np.array([0]))
        assert stats(raw).n_with_missing == 0


def test_write_imputed_csv_roundtrips(tmp_path):
    ds = small_dataset(20, seed=4)
    path = tmp_path / "imputed.csv"
    write_imputed_csv(ds, path)
    back = load_csv(path)
    assert (back.targets == ds.targets).all()
    assert back.matrix == pytest.approx(ds.matrix)
