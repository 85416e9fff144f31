"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SEED = 3
TINY_PROMPTS = checks.N_DK * len(run.TINY.n_ex_grid) * checks.n_test_for(run.TINY.rows)


def _run(tmp_path, name, trace=False, workload=None):
    workload = workload or run.WORKLOADS[name](run.TINY, SEED, tmp_path / name)
    return run.run(workload, 0.0, trace)


@pytest.mark.parametrize(
    "name, ops_per_round, kept_failures",
    [("pipeline", 12, 1), ("grid-live", 3, 0), ("grid-resume", run.TINY.resume_reruns + 2, 0)],
)
def test_tiny_run_of_each_workload(tmp_path, name, ops_per_round, kept_failures):
    result = _run(tmp_path, name)
    assert result["correct"], result["errors"]
    assert result["attempted"] % ops_per_round == 0
    assert result["failed"] * ops_per_round == result["attempted"] * kept_failures
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_grid_live_counts_every_prompt_once(tmp_path):
    result = _run(tmp_path, "grid-live", trace=True)
    assert result["correct"], result["errors"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {n for n, _ in run.PER_LAYER}
    assert m["prompts.assembled"] == m["gateway.requests"] == m["gateway.cache_records"] == TINY_PROMPTS
    assert m["gateway.connections"] >= 1 and m["gateway.cache_hits"] == 0
    assert m["data.prepare_calls"] == 1 and m["search.fits"] == 0


def test_traced_pipeline_sees_the_models_layers(tmp_path):
    result = _run(tmp_path, "pipeline", trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    families = len(run.FAMILIES)
    # train-models and report each search every family: (iters x folds + refit) fits
    assert m["search.fits"] == 2 * families * (run.SEARCH_ITERS * run.SEARCH_FOLDS + 1)
    assert m["importance.calls"] == 2 * families
    assert m["data.prepare_calls"] == 4
    assert m["gateway.requests"] == 0 and m["cli.report_s"] > 0


def test_stub_flipping_one_answer_fails_the_grid_check(tmp_path):
    workload = run.GridLive(run.TINY, SEED, tmp_path / "flip", flip_first=True)
    result = _run(tmp_path, "grid-live", workload=workload)
    assert not result["correct"]
    assert any(e.startswith("grid rows") for e in result["errors"])


class _AlteredCache(run.GridResume):
    """Edits the filled cache before the reruns: flips or drops one answer."""

    def __init__(self, *args, drop: bool):
        super().__init__(*args)
        self.drop = drop

    def adopt(self, work):
        cache = work / "out" / "completions.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        if self.drop:
            del lines[0]
        else:
            doc = json.loads(lines[0])
            doc["raw_response"] = "1" if doc["raw_response"] == "0" else "0"
            lines[0] = json.dumps(doc) + "\n"
        cache.write_text("".join(lines))
        super().adopt(work)


def test_altered_cached_answer_fails_the_resume_check(tmp_path):
    workload = _AlteredCache(run.TINY, SEED, tmp_path / "alter", drop=False)
    result = _run(tmp_path, "grid-resume", workload=workload)
    assert not result["correct"]
    assert any(e.startswith("grid rows") for e in result["errors"])


def test_request_during_resume_counts_as_failed(tmp_path):
    workload = _AlteredCache(run.TINY, SEED, tmp_path / "drop", drop=True)
    result = _run(tmp_path, "grid-resume", workload=workload)
    assert not result["correct"]
    assert result["failed"] >= run.TINY.resume_reruns  # every rerun asks for the dropped prompt and finds no server
    assert any(e == "run-grid exited 3" for e in result["errors"])
    assert any("partial results are cached" in text for text in result["logs"])  # the verb's own stderr


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_table_check_rejects_a_row_no_counts_can_print():
    good = ["RF", "-", "-", "-", "0.7500", "0.6000", "0.6667", "0.7000", "0.2000", "1.6000", "0.7955"]
    # tp=3 tn=4 fp=1 fn=2 over 10 rows
    assert checks.check_table([good], 10) is None
    bad = good[:7] + ["0.8000"] + good[8:]
    assert checks.check_table([bad], 10) is not None
