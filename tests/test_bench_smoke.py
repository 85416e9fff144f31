"""Smoke test of the benchmark harness, `bench/run.py`, at its tiny input size.

One untraced `pipeline` round, one untraced `grid-live` round against the
harness's stub server, and one traced `grid-resume` round. The traced
run wraps the program's public names (`cli.JsonlCache`, `gateway.complete`,
`gateway.assemble_prompt`, ...) from outside, so a change that moves one of
them, or breaks a verb the harness drives, fails here. The harness grades the
workloads with its own draw of the test rows, `checks.held_out_rows`, which
must equal the `split.json` that `prepare-data` writes.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3


@pytest.fixture(scope="module")
def bench():
    """bench/run.py, imported as it is; it finds `checks` beside it."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(module)
        module.inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(str(BENCH))
    return module


def _tiny_run(bench, tmp_path, name: str, trace: bool) -> dict:
    workload = bench.WORKLOADS[name](bench.TINY, SEED, tmp_path / name)
    return bench.run(workload, 0.0, trace)  # 0 s: one round, the least a run measures


def test_untraced_pipeline_round(bench, tmp_path):
    result = _tiny_run(bench, tmp_path, "pipeline", trace=False)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0


def test_untraced_grid_live_round(bench, tmp_path):
    result = _tiny_run(bench, tmp_path, "grid-live", trace=False)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0


def test_traced_grid_resume_answers_every_prompt_from_the_cache(bench, tmp_path):
    result = _tiny_run(bench, tmp_path, "grid-resume", trace=True)
    assert result["correct"], result["errors"]
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    tiny, checks = bench.TINY, bench.checks
    # one rerun's prompts: the round's first rerun rewrites grid_rows.json, and the later ones are up to date
    prompts = checks.N_DK * len(tiny.n_ex_grid) * checks.n_test_for(tiny.rows)
    assert m["gateway.requests"] == 0
    assert m["data.prepare_calls"] == 0  # run-grid reads imputed.csv and split.json
    assert m["prompts.assembled"] == m["gateway.cache_hits"] == prompts


@pytest.mark.parametrize("rows, seed, test_fraction", [(40, 3, 0.2), (120, 7, 0.25), (97, 11, 0.5), (120, 7, 0.3)])
def test_split_json_is_the_test_rows_the_harness_grades(bench, tmp_path, rows, seed, test_fraction):
    from cardioprompt.cli import main

    data = tmp_path / "in.csv"
    bench.inputs.write_csv(data, rows, seed)
    argv = ["--data-path", str(data), "--seed", str(seed), "--test-fraction", str(test_fraction)]
    assert main([*argv, "--output-dir", str(tmp_path / "runs"), "prepare-data"]) == 0
    _, targets = bench.checks.read_input_csv(data)
    held_out = bench.checks.held_out_rows(targets, seed, test_fraction).tolist()
    assert json.loads((tmp_path / "runs" / "split.json").read_text()) == held_out
