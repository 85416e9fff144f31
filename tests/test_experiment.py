"""Orchestration layer: seed derivation, config loading, grid evaluation
against mock backends, and report emission."""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
import pytest

from cardioprompt.data import binarize_target, holdout, knn_impute, split_at, standardize
from cardioprompt.dk import SOURCE_TAGS, DkVariant, DomainKnowledge, render_dk
from cardioprompt.errors import ValidationError
from cardioprompt.experiment import (
    DISPLAY_NAMES,
    REPORT_COLUMNS,
    ExperimentConfig,
    PreparedData,
    ReportRow,
    _mean_row,
    _tune_family,
    derive_seed,
    dk_grid_from_models,
    emit_report,
    load_rows,
    run_ml_baselines,
    run_prompt_grid,
    save_rows,
    unparseable_counts,
    write_report,
)
from cardioprompt.gateway import OracleMock, RuleMock, ScriptedMock
from cardioprompt.metrics import ConfusionMatrix, CostWeights, confusion, metrics_row
from cardioprompt.models import FAMILIES, feature_importance, train
from cardioprompt.models.zoo import ESTIMATORS
from cardioprompt.schema import FEATURE_NAMES
from cardioprompt.synthetic import synthetic_raw
from conftest import LR_ORDER, RF_ORDER, XGB_ORDER, make_ranking

NO_DK = DomainKnowledge(DkVariant.NONE, "", "")


def make_prepared(n: int = 60, seed: int = 3, test_fraction: float = 0.25) -> PreparedData:
    raw = synthetic_raw(n_rows=n, missing_fraction=0.05, seed=seed)
    full = knn_impute(binarize_target(raw), k=3)
    train_ds, test_ds = split_at(full, holdout(full, test_fraction, seed=seed))
    std_train, std_test = standardize(train_ds, test_ds)
    return PreparedData(raw=raw, full=full, train=train_ds, test=test_ds, std_train=std_train, std_test=std_test)


def oracle(prepared: PreparedData) -> OracleMock:
    return OracleMock.for_dataset(prepared.test)


def seven_dks() -> list[DomainKnowledge]:
    out = [NO_DK]
    for order, family in ((RF_ORDER, "RF"), (LR_ORDER, "LR"), (XGB_ORDER, "GBT")):
        r = make_ranking(order, family)
        out.append(render_dk(r, DkVariant.MLFI))
        out.append(render_dk(r, DkVariant.MLFI_ORD))
    return out


class TestDeriveSeed:
    def test_matches_hash_construction(self):
        expected = int.from_bytes(hashlib.sha256(b"7:split").digest()[:8], "big")
        assert derive_seed(7, "split") == expected

    def test_stage_isolation(self):
        seeds = {derive_seed(7, s) for s in ("split", "search:RF", "search:LR", "examples:0", "examples:2")}
        assert len(seeds) == 5

    def test_master_changes_everything(self):
        assert derive_seed(1, "split") != derive_seed(2, "split")

    def test_fits_in_numpy_seed_range(self):
        assert 0 <= derive_seed(123, "anything") < 2**64


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_ex_grid == (0, 2, 4, 8, 16)
        assert cfg.weights == CostWeights(0.2, 0.8)

    def test_from_dict_nested(self):
        cfg = ExperimentConfig.from_dict(
            {
                "seed": 11,
                "n_ex_grid": [0, 4],
                "weights": {"w_fp": 0.3, "w_fn": 0.7},
                "llm": {"model_name": "test-model", "max_retries": 1},
            }
        )
        assert cfg.seed == 11
        assert cfg.n_ex_grid == (0, 4)
        assert cfg.weights.w_fp == 0.3
        assert cfg.llm.model_name == "test-model"

    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 5, "search_iters": 2}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.seed == 5 and cfg.search_iters == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"seeed": 7})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"llm": {"model": "gpt-3.5-turbo"}}, "llm.model"),
            ({"weights": {"w_fp": 0.2, "fn": 0.8}}, "weights.fn"),
            ({"llm": "gpt-3.5-turbo"}, "llm must be"),
        ],
    )
    def test_unknown_nested_key_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "field, values",
        [
            ("temperature", [math.nan, math.inf, -0.1]),
            ("timeout", [math.nan, math.inf, 0.0, -1.0]),
            ("backoff_base", [math.nan, math.inf, -1.0]),
            ("base_url", ["api.openai.com", "ftp://api.openai.com", "/v1"]),
        ],
    )
    def test_bad_llm_value_rejected(self, field, values):
        for value in values:
            with pytest.raises(ValidationError, match=field):
                ExperimentConfig.from_dict({"llm": {field: value}})

    @pytest.mark.parametrize("field", ["w_fp", "w_fn"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_weight_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            ExperimentConfig.from_dict({"weights": {field: value}})

    @pytest.mark.parametrize("value", [0, 1, 1.5, -0.2, math.nan])
    def test_test_fraction_outside_zero_one_rejected(self, value):
        with pytest.raises(ValidationError, match=rf"^config key test_fraction must be in \(0, 1\), not {value}$"):
            ExperimentConfig.from_dict({"test_fraction": value})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"search_iters": "3"}, "search_iters"),
            ({"seed": True}, "seed"),
            ({"seed": 7.0}, "seed"),
            ({"test_fraction": "0.2"}, "test_fraction"),
            ({"paper_faithful": 1}, "paper_faithful"),
            ({"data_path": 5}, "data_path"),
            ({"n_ex_grid": [0, "2"]}, "n_ex_grid"),
            ({"n_ex_grid": 4}, "n_ex_grid"),
            ({"impute_k": 5.0}, "impute_k"),
            ({"weights": {"w_fp": "0.2"}}, "weights.w_fp"),
            ({"llm": {"max_retries": 2.0}}, "llm.max_retries"),
            ({"llm": {"temperature": False}}, "llm.temperature"),
        ],
    )
    def test_wrong_json_type_rejected(self, doc, key):
        with pytest.raises(ValidationError, match=rf"config key {re.escape(key)} must be "):
            ExperimentConfig.from_dict(doc)

    def test_float_field_takes_an_integer(self):
        cfg = ExperimentConfig.from_dict({"weights": {"w_fp": 0, "w_fn": 1}, "llm": {"timeout": 5}})
        assert cfg.weights == CostWeights(0.0, 1.0) and cfg.llm.timeout == 5


class TestMeanRow:
    def test_matches_naive_recompute(self):
        cms = [ConfusionMatrix(9, 6, 2, 3), ConfusionMatrix(7, 8, 1, 4), ConfusionMatrix(10, 5, 3, 2)]
        w = CostWeights()
        rows = [
            ReportRow(label=f"m{i}", dk_type="-", dk_source="-", n_ex=None, metrics=metrics_row(cm, w))
            for i, cm in enumerate(cms)
        ]
        mean = _mean_row("avg", rows)
        stacked = np.array([r.metrics.as_tuple() for r in rows])
        assert mean.metrics.as_tuple() == pytest.approx(tuple(stacked.mean(axis=0)), abs=1e-9)
        assert mean.label == "avg"


class TestEmitReport:
    def _tiny_table(self) -> list[ReportRow]:
        m = metrics_row(ConfusionMatrix(9, 6, 2, 3), CostWeights())
        return [ReportRow("RF", "-", "-", None, m), ReportRow("prompt-1", "MLFI", "RF", 4, m)]

    def test_csv_header_exact(self):
        out = emit_report(self._tiny_table(), "csv")
        assert out.splitlines()[0] == "Model,DK Type,DK source,N_ex,Pre.,Rec,F1,Acc.,FP Cost,FN Cost,Cost-Sens Acc."

    def test_csv_row_formatting(self):
        out = emit_report(self._tiny_table(), "csv")
        line = out.splitlines()[2]
        # cm(9,6,2,3): P=9/11, R=9/12, acc=15/20, fp_cost=0.4, fn_cost=2.4
        assert line == "prompt-1,MLFI,RF,4,0.8182,0.7500,0.7826,0.7500,0.4000,2.4000,0.8427"

    def test_markdown_shape(self):
        out = emit_report(self._tiny_table(), "markdown")
        lines = out.splitlines()
        assert lines[0].startswith("| Model | DK Type |")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 4

    def test_model_rows_show_dash_for_n_ex(self):
        out = emit_report(self._tiny_table(), "csv")
        assert out.splitlines()[1].startswith("RF,-,-,-,")

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            emit_report([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            emit_report(self._tiny_table(), "html")

    def test_write_report_paths(self, tmp_path):
        t = self._tiny_table()
        assert write_report(t, tmp_path, "csv").name == "report.csv"
        assert write_report(t, tmp_path, "markdown").name == "report.md"


class TestPromptGrid:
    def test_oracle_backend_scores_perfect(self):
        prepared = make_prepared(60, seed=3)
        cfg = ExperimentConfig(seed=5, n_ex_grid=(0, 2))
        rows = run_prompt_grid(cfg, prepared, seven_dks(), oracle(prepared))
        assert unparseable_counts(rows) == {}
        assert len(rows) == 2 * 8  # 7 prompts + average, per n_ex
        for r in rows:
            assert r.metrics.precision == 1.0
            assert r.metrics.recall == 1.0
            assert r.metrics.f1 == 1.0
            assert r.metrics.accuracy == 1.0
            assert r.metrics.cost_sensitive_accuracy == 1.0

    def test_row_labels_and_dk_columns(self):
        prepared = make_prepared(40, seed=1)
        cfg = ExperimentConfig(seed=2, n_ex_grid=(0,))
        rows = run_prompt_grid(cfg, prepared, seven_dks(), oracle(prepared))
        labels = [r.label for r in rows]
        assert labels == [f"prompt-{i}" for i in range(7)] + ["Average (N_ex=0)"]
        expected_cols = [
            ("NO", "-"),
            ("MLFI", "RF"),
            ("MLFI-ord", "RF"),
            ("MLFI", "LR"),
            ("MLFI-ord", "LR"),
            ("MLFI", "XGB"),
            ("MLFI-ord", "XGB"),
        ]
        assert [(r.dk_type, r.dk_source) for r in rows[:7]] == expected_cols
        assert all(r.n_ex == 0 for r in rows)

    def test_paper_faithful_oracle_consistent(self):
        # the oracle reads the values of a float-style query line as those of a plain one
        prepared = make_prepared(40, seed=6)
        cfg = ExperimentConfig(seed=3, n_ex_grid=(0,), paper_faithful=True)
        rows = run_prompt_grid(cfg, prepared, [NO_DK], oracle(prepared))
        assert unparseable_counts(rows) == {}
        assert rows[0].metrics.accuracy == 1.0

    def test_scripted_all_positive_matches_prevalence(self):
        prepared = make_prepared(50, seed=4)
        n = prepared.test.n_rows
        cfg = ExperimentConfig(seed=1, n_ex_grid=(0,))
        rows = run_prompt_grid(cfg, prepared, [NO_DK], backend=ScriptedMock(["1"] * n))
        m = rows[0].metrics
        n_pos = int(prepared.test.targets.sum())
        n_neg = n - n_pos
        assert m.recall == 1.0
        assert m.precision == pytest.approx(n_pos / n)
        assert m.accuracy == pytest.approx(n_pos / n)
        assert m.fp_cost == pytest.approx(0.2 * n_neg)
        assert m.fn_cost == 0.0

    def test_error_cost_identity(self):
        # fp_cost/w_fp + fn_cost/w_fn recovers the raw error count
        prepared = make_prepared(50, seed=7)
        n = prepared.test.n_rows
        cfg = ExperimentConfig(seed=9, n_ex_grid=(0,))
        rows = run_prompt_grid(
            cfg, prepared, [NO_DK], backend=RuleMock("chol", float(np.median(prepared.test.matrix[:, 4])))
        )
        m = rows[0].metrics
        errors = m.fp_cost / 0.2 + m.fn_cost / 0.8
        assert errors == pytest.approx((1.0 - m.accuracy) * n, abs=1e-9)

    def test_rule_mock_hand_computed(self):
        prepared = make_prepared(48, seed=8)
        chol = prepared.test.matrix[:, FEATURE_NAMES.index("chol")]
        threshold = float(np.median(chol))
        preds = (chol >= threshold).astype(int)
        expected = metrics_row(confusion(preds, prepared.test.targets), CostWeights())
        cfg = ExperimentConfig(seed=1, n_ex_grid=(0,))
        rows = run_prompt_grid(cfg, prepared, [NO_DK], backend=RuleMock("chol", threshold))
        assert rows[0].metrics == expected

    def test_unparseable_counted_as_positive_and_flagged(self):
        prepared = make_prepared(40, seed=2)
        n = prepared.test.n_rows
        responses = ["no idea"] + ["1"] * (n - 1)
        cfg = ExperimentConfig(seed=6, n_ex_grid=(0,))
        rows = run_prompt_grid(cfg, prepared, [NO_DK], backend=ScriptedMock(responses))
        assert [r.unparseable for r in rows] == [1, 0]  # prompt-0, then the block average
        assert unparseable_counts(rows) == {"prompt-0/N_ex=0": 1}
        # every response resolves to a positive prediction either way
        m = rows[0].metrics
        assert m.recall == 1.0

    def test_examples_shared_within_block(self):
        prepared = make_prepared(50, seed=5)
        seen: list[str] = []

        class Recorder:
            def answer(self, prompts):
                seen.extend(prompts)
                return ["1"] * len(prompts)

        cfg = ExperimentConfig(seed=4, n_ex_grid=(2,))
        run_prompt_grid(cfg, prepared, [NO_DK, seven_dks()[1]], backend=Recorder())
        n = prepared.test.n_rows
        first_block = seen[:n]
        second_block = seen[n : 2 * n]
        def ex(t: str) -> str:
            return t.split("Example 1:")[1].split("\n\nDomain Knowledge:")[0].split("\n\nNow, given")[0]

        assert ex(first_block[0]) == ex(second_block[0])

    def test_byte_reproducible(self):
        prepared = make_prepared(40, seed=9)
        cfg = ExperimentConfig(seed=8, n_ex_grid=(0, 2))
        out = []
        for _ in range(2):
            out.append(emit_report(run_prompt_grid(cfg, prepared, seven_dks(), oracle(prepared)), "csv"))
        assert out[0] == out[1]


@pytest.fixture(scope="module")
def baseline_run():
    prepared = make_prepared(70, seed=10)
    cfg = ExperimentConfig(seed=3, search_iters=1, search_folds=2)
    rows, models = run_ml_baselines(cfg, prepared)
    return prepared, rows, models


class TestMlBaselines:
    def test_row_order_and_count(self, baseline_run):
        _, rows, _ = baseline_run
        labels = [r.label for r in rows]
        assert labels == ["RF", "LR", "MLP", "KNN", "XGB", "AdaBoost", "Average ML", "Random", "Maj0", "Maj1"]

    def test_average_excludes_trivial_baselines(self, baseline_run):
        _, rows, _ = baseline_run
        ml = [r for r in rows if r.label in DISPLAY_NAMES.values()]
        avg = next(r for r in rows if r.label == "Average ML")
        stacked = np.array([r.metrics.as_tuple() for r in ml])
        assert avg.metrics.as_tuple() == pytest.approx(tuple(stacked.mean(axis=0)), abs=1e-9)

    def test_models_carry_importance(self, baseline_run):
        # only the families whose rankings the domain-knowledge texts read
        _, _, models = baseline_run
        assert set(models) == set(FAMILIES)
        for family, model in models.items():
            if family in SOURCE_TAGS:
                assert len(model.importance.entries) == 13
                assert model.importance.source == family
            else:
                assert model.importance is None

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_family_fits_iters_times_folds_plus_one(self, monkeypatch, family):
        # one fit per fold of every trial, none dropped, and one refit of the winner; ranking fits nothing
        fits = []
        fit = ESTIMATORS[family].fit
        monkeypatch.setattr(ESTIMATORS[family], "fit", lambda est, X, y: fits.append(len(y)) or fit(est, X, y))
        cfg = ExperimentConfig(search_iters=3, search_folds=2)
        train_ds = make_prepared(60, seed=5).std_train
        model = _tune_family(cfg, train_ds, family)
        assert len(fits) == cfg.search_iters * cfg.search_folds + 1
        assert fits[-1] == train_ds.n_rows
        assert (model.importance is not None) == (family in SOURCE_TAGS)

    def test_majority_one_has_unit_recall(self, baseline_run):
        _, rows, _ = baseline_run
        maj1 = next(r for r in rows if r.label == "Maj1")
        assert maj1.metrics.recall == 1.0
        maj0 = next(r for r in rows if r.label == "Maj0")
        assert maj0.metrics.recall == 0.0


class TestDkGrid:
    def test_grid_from_trained_models(self):
        prepared = make_prepared(60, seed=11)
        models = {}
        for family, hyper in (("RF", {"n_estimators": 6, "max_depth": 3}), ("LR", {}), ("GBT", {"n_estimators": 6})):
            models[family] = feature_importance(train(family, prepared.std_train, hyper), prepared.std_train)
        grid = dk_grid_from_models(models)
        assert len(grid) == 7
        assert grid[0].variant is DkVariant.NONE
        variants = [dk.variant for dk in grid[1:]]
        assert variants == [DkVariant.MLFI, DkVariant.MLFI_ORD] * 3
        assert grid[1].source_name == "randomforestclassifier"
        assert grid[3].source_name == "logisticregression"
        assert grid[5].source_name == "xgbclassifier"

    def test_missing_importance_rejected(self):
        prepared = make_prepared(40, seed=12)
        models = {"RF": train("RF", prepared.std_train, {"n_estimators": 4})}
        with pytest.raises(ValidationError):
            dk_grid_from_models(models)


class TestRowArtifacts:
    def test_roundtrip_keeps_rows_and_unparseable_counts(self, tmp_path):
        cfg = ExperimentConfig(seed=3, n_ex_grid=(0,))
        rows = run_prompt_grid(cfg, make_prepared(), seven_dks(), backend=ScriptedMock(["maybe"] + ["1"] * 200))
        save_rows(tmp_path / "rows.json", rows)
        assert load_rows(tmp_path / "rows.json") == rows
        assert unparseable_counts(rows) == {"prompt-0/N_ex=0": 1}

