"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line.

Criteria 1 and 3 need the combined source CSV at data/heart.csv (override
with CARDIOPROMPT_DATA). Where the file is absent these tests fail with an
explicit message instead of skipping: the capability is implemented, the
input is an environment prerequisite that scripts/fetch_data.py restores.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import monotonic

import numpy as np
import pytest

from cardioprompt.data import binarize_target, holdout, knn_impute, load_csv, split_at, standardize, stats
from cardioprompt.dk import DkVariant, DomainKnowledge, render_dk
from cardioprompt.experiment import (
    ExperimentConfig,
    PreparedData,
    derive_seed,
    emit_report,
    run_ml_baselines,
    run_prompt_grid,
)
from cardioprompt.gateway import HttpBackend, JsonlCache, LlmConfig, OracleMock, ScriptedMock, classify_batch
from cardioprompt.metrics import (
    ConfusionMatrix,
    CostWeights,
    classification_metrics,
    confusion,
    cost_metrics,
    metrics_row,
)
from cardioprompt.models import loss_and_grad
from cardioprompt.prompts import PromptSpec, assemble_prompt
from cardioprompt.synthetic import synthetic_raw
from conftest import EXAMPLE_1, EXAMPLE_2, EXAMPLE_3, LR_ORDER, QUERY, RF_ORDER, XGB_ORDER, make_ranking
from test_dk import GOLDEN_ORD, GOLDEN_TOP

DATA_PATH = Path(os.environ.get("CARDIOPROMPT_DATA", str(Path(__file__).resolve().parent.parent / "data" / "heart.csv")))
GOLDEN_DIR = Path(__file__).parent / "golden"
NO_DK = render_dk(None, DkVariant.NONE)


def _emit(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__:  # reach the terminal past capture
        print(line, file=sys.__stdout__)


@contextmanager
def criterion(num: int):
    try:
        yield
    except BaseException as exc:
        _emit(num, False, str(exc).splitlines()[0] if str(exc) else type(exc).__name__)
        raise
    _emit(num, True)


def _require_data():
    if not DATA_PATH.exists():
        raise AssertionError(
            f"source dataset {DATA_PATH} is absent in this environment; "
            "run scripts/fetch_data.py on a networked machine to create it"
        )


def _prepare_synthetic(n: int = 920, seed: int = 17) -> PreparedData:
    raw = synthetic_raw(n_rows=n, missing_fraction=0.05, seed=seed)
    full = knn_impute(binarize_target(raw), k=5)
    train, test = split_at(full, holdout(full, 0.2, seed=seed))
    std_train, std_test = standardize(train, test)
    return PreparedData(raw=raw, full=full, train=train, test=test, std_train=std_train, std_test=std_test)


def test_criterion_1_dataset_facts():
    with criterion(1):
        _require_data()
        t0 = monotonic()
        st = stats(load_csv(DATA_PATH))
        elapsed = monotonic() - t0
        assert st.n_total == 920, f"n_total {st.n_total} != 920"
        assert st.n_with_missing == 621, f"n_with_missing {st.n_with_missing} != 621"
        assert 0.77 <= st.male_fraction <= 0.80, f"male_fraction {st.male_fraction:.4f} outside [0.77, 0.80]"
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_2_imputation():
    with criterion(2):
        t0 = monotonic()
        rng = np.random.default_rng(20260822)
        for _ in range(200):
            n = int(rng.integers(12, 40))
            frac = float(rng.uniform(0.0, 0.3))
            raw = binarize_target(synthetic_raw(n_rows=n, missing_fraction=frac, seed=int(rng.integers(0, 2**31))))
            ds = knn_impute(raw, k=int(rng.integers(1, 6)))
            assert not np.isnan(ds.matrix).any(), "missing cells survived imputation"
            present = ~np.isnan(raw.matrix)
            assert np.array_equal(ds.matrix[present], raw.matrix[present]), "imputation altered a present cell"
        if DATA_PATH.exists():
            real = knn_impute(binarize_target(load_csv(DATA_PATH)), k=5)
            assert not np.isnan(real.matrix).any()
        elapsed = monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_3_classical_ml_reproduction():
    with criterion(3):
        _require_data()
        cfg = ExperimentConfig(data_path=str(DATA_PATH), seed=7)
        raw = load_csv(DATA_PATH)
        full = knn_impute(binarize_target(raw), k=cfg.impute_k)
        train, test = split_at(full, holdout(full, cfg.test_fraction, seed=derive_seed(cfg.seed, "split")))
        assert test.n_rows == 184, f"test split has {test.n_rows} rows, expected 184"
        std_train, std_test = standardize(train, test)
        prepared = PreparedData(raw=raw, full=full, train=train, test=test, std_train=std_train, std_test=std_test)
        t0 = monotonic()
        rows, _models = run_ml_baselines(cfg, prepared)
        elapsed = monotonic() - t0
        by_label = {r.label: r for r in rows}
        for label in ("RF", "XGB"):
            m = by_label[label].metrics
            assert m.f1 >= 0.82, f"{label} F1 {m.f1:.4f} < 0.82"
            assert m.accuracy >= 0.80, f"{label} accuracy {m.accuracy:.4f} < 0.80"
        assert elapsed < 600.0, f"six-family search took {elapsed:.1f}s, budget 600s"


def test_criterion_4_dk_golden_texts():
    with criterion(4):
        for order, family in ((RF_ORDER, "RF"), (LR_ORDER, "LR"), (XGB_ORDER, "GBT")):
            ranking = make_ranking(order, family)
            assert render_dk(ranking, DkVariant.MLFI).text == GOLDEN_TOP[family], f"dk top-features text for {family}"
            assert render_dk(ranking, DkVariant.MLFI_ORD).text == GOLDEN_ORD[family], f"dk order text for {family}"


def test_criterion_5_prompt_golden_file():
    with criterion(5):
        dk1 = render_dk(make_ranking(RF_ORDER, "RF"), DkVariant.MLFI)
        spec = PromptSpec(dk=dk1, paper_faithful=True)
        prompt = assemble_prompt(spec, [EXAMPLE_1, EXAMPLE_2, EXAMPLE_3], QUERY)
        expected = (GOLDEN_DIR / "prompt_paper_faithful.txt").read_text()
        assert prompt.text == expected, "assembled prompt differs from the golden file"


def test_criterion_6_metric_identities():
    with criterion(6):
        t0 = monotonic()
        cm = ConfusionMatrix(91, 65, 15, 13)
        got = classification_metrics(cm)
        assert tuple(round(v, 4) for v in got) == (0.8585, 0.8750, 0.8667, 0.8478), f"classification metrics {got}"
        fp_cost, fn_cost, csa = cost_metrics(cm)
        assert (fp_cost, fn_cost, round(csa, 4)) == (3.0, 10.4, 0.9209), f"cost metrics {(fp_cost, fn_cost, csa)}"
        published = [
            (ConfusionMatrix(91, 65, 15, 13), 0.9208),
            (ConfusionMatrix(91, 66, 14, 13), 0.9224),
            (ConfusionMatrix(103, 18, 62, 1), 0.9016),
        ]
        for pub_cm, reported in published:
            _, _, pub_csa = cost_metrics(pub_cm)
            assert abs(pub_csa - reported) <= 1e-3, f"csa {pub_csa:.4f} vs reported {reported}"
        elapsed = monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def _seven_dks() -> list[DomainKnowledge]:
    out = [NO_DK]
    for order, family in ((RF_ORDER, "RF"), (LR_ORDER, "LR"), (XGB_ORDER, "GBT")):
        ranking = make_ranking(order, family)
        out.append(render_dk(ranking, DkVariant.MLFI))
        out.append(render_dk(ranking, DkVariant.MLFI_ORD))
    return out


@contextmanager
def _stub_server(script):
    state = {"script": list(script), "requests": [], "lock": threading.Lock()}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            doc = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")
            with state["lock"]:
                state["requests"].append(doc)
                status, payload = state["script"].pop(0) if len(state["script"]) > 1 else state["script"][0]
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        server.server_close()


def test_criterion_7_llm_substituted_properties(tmp_path):
    with criterion(7):
        prepared = _prepare_synthetic()
        assert prepared.test.n_rows == 184

        # (a) oracle grid: perfect scores on every row
        cfg_small = ExperimentConfig(seed=7, n_ex_grid=(0, 4))
        oracle = OracleMock.for_dataset(prepared.test)
        rows = run_prompt_grid(cfg_small, prepared, _seven_dks(), oracle)
        assert all(r.unparseable == 0 for r in rows)
        for r in rows:
            assert r.metrics.f1 == 1.0, f"{r.label}: oracle F1 {r.metrics.f1}"
            assert r.metrics.cost_sensitive_accuracy == 1.0, f"{r.label}: oracle csa"

        # (b) scripted responses against hand-computed confusion counts
        sub = prepared.test
        flip = [("0" if t == 1 else "1") if i < 10 else str(t) for i, t in enumerate(sub.targets)]
        preds = classify_batch(sub, PromptSpec(dk=NO_DK), ScriptedMock(flip))
        cm = confusion(preds, sub.targets)
        first = sub.targets[:10]
        expected_cm = ConfusionMatrix(
            tp=int((sub.targets[10:] == 1).sum()),
            tn=int((sub.targets[10:] == 0).sum()),
            fp=int((first == 0).sum()),
            fn=int((first == 1).sum()),
        )
        assert cm == expected_cm, f"scripted confusion {cm} != {expected_cm}"
        assert metrics_row(cm, CostWeights()) == metrics_row(expected_cm, CostWeights())

        # (c) full 7 x 5 x 184 grid, byte-reproducible, each run under a minute
        cfg_full = ExperimentConfig(seed=7)
        outputs = []
        for _ in range(2):
            t0 = monotonic()
            grid_rows = run_prompt_grid(cfg_full, prepared, _seven_dks(), oracle)
            elapsed = monotonic() - t0
            assert elapsed < 60.0, f"grid run took {elapsed:.1f}s, budget 60s"
            assert len(grid_rows) == 5 * 8
            outputs.append(emit_report(grid_rows, "csv"))
        assert outputs[0] == outputs[1], "grid report not byte-identical across runs"

        # (d) warm cache answers without touching the network
        small = split_at(prepared.full, holdout(prepared.full, 25 / prepared.full.n_rows, seed=1))[1]
        with _stub_server([(200, {"choices": [{"message": {"content": "1"}}]})]) as (url, state):
            llm = LlmConfig(base_url=url, max_retries=0, timeout=5.0)
            cache_path = tmp_path / "completions.jsonl"
            classify_batch(small, PromptSpec(dk=NO_DK), HttpBackend(llm, JsonlCache(cache_path), "k"))
            first_count = len(state["requests"])
            assert first_count == small.n_rows
            classify_batch(small, PromptSpec(dk=NO_DK), HttpBackend(llm, JsonlCache(cache_path), "k"))
            assert len(state["requests"]) == first_count, "warm-cache rerun reached the network"


def test_criterion_8_gradient_check():
    with criterion(8):
        t0 = monotonic()
        rng = np.random.default_rng(11)
        h = 1e-6
        worst = 0.0
        for _ in range(50):
            n, d = int(rng.integers(4, 12)), int(rng.integers(1, 6))
            X = rng.normal(0, 1, size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            lam = float(rng.uniform(0, 2))
            theta = rng.normal(0, 1, size=d + 1)
            _, grad = loss_and_grad(theta, X, y, lam)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = h
                lp, _ = loss_and_grad(theta + e, X, y, lam)
                lm, _ = loss_and_grad(theta - e, X, y, lam)
                worst = max(worst, abs(grad[j] - (lp - lm) / (2 * h)))
        assert worst <= 1e-5, f"max gradient error {worst:.2e} > 1e-5"
        elapsed = monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_9_metric_brute_force():
    with criterion(9):
        rng = np.random.default_rng(99)
        w = CostWeights()
        for _ in range(200):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, size=n)
            truth = rng.integers(0, 2, size=n)
            cm = confusion(preds, truth)
            tp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 1)
            tn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 0)
            fp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 0)
            fn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 1)
            assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
            m = metrics_row(cm, w)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            accuracy = (tp + tn) / n
            fp_cost = w.w_fp * fp
            fn_cost = w.w_fn * fn
            csa = (tp + tn) / (tp + tn + fp_cost + fn_cost) if tp + tn + fp_cost + fn_cost else 0.0
            naive = (precision, recall, f1, accuracy, fp_cost, fn_cost, csa)
            assert m.as_tuple() == naive, f"metrics {m.as_tuple()} != naive {naive}"
