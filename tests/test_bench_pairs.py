"""`scripts/bench_pairs.py`'s summary of paired runs, on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(values: list[float | None]) -> list[dict]:
    return [{"metrics": {} if v is None else {"wall_s": v}} for v in values]


WALL_S = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_summary_splits_the_pairs_by_running_order(bench_pairs):
    # even pairs ran the parent first, odd pairs the change first; the second run reads 0.3 s slower
    parent = [3.0, 3.3, 3.0, 3.3, 3.0, 3.3, 3.0, 3.3, 3.0, 3.3]
    change = [3.2, 2.9, 3.2, 2.9, 3.2, 2.9, 3.2, 2.9, 2.9, 2.9]
    s = bench_pairs.summarize({"parent": runs_of(parent), "change": runs_of(change)}, WALL_S)["wall_s"]
    assert s["wins"] == ["parent", "change"] * 4 + ["change", "change"]
    assert s["change_better_in"] == "6 of 10 pairs"
    assert s["by_order"] == {
        "parent_first": {"median_change_minus_parent": 0.2, "change_better_in": "1 of 5 pairs"},
        "change_first": {"median_change_minus_parent": -0.4, "change_better_in": "5 of 5 pairs"},
    }
    # the claim rule reads all ten pairs, whatever their order
    assert bench_pairs.claim({"wall_s": s}, "wall_s")["met"] is False


def test_order_summary_skips_missing_runs(bench_pairs):
    parent = [3.0, 3.0, None, 3.0]
    change = [2.5, None, 2.0, 2.8]
    s = bench_pairs.summarize({"parent": runs_of(parent), "change": runs_of(change)}, WALL_S)["wall_s"]
    assert s["runs_without_value"] == {"parent": [2], "change": [1]}
    assert s["by_order"] == {
        "parent_first": {"median_change_minus_parent": -0.5, "change_better_in": "1 of 2 pairs"},
        "change_first": {"median_change_minus_parent": -0.2, "change_better_in": "1 of 2 pairs"},
    }


def test_paired_differences_skip_missing_pairs(bench_pairs):
    # the host slows over the set: each side's own quartiles widen, the paired differences stay close
    parent = [3.0, 3.5, None, 4.0, 4.5, 5.0]
    change = [2.8, 3.2, 3.0, 3.8, None, 4.6]
    s = bench_pairs.summarize({"parent": runs_of(parent), "change": runs_of(change)}, WALL_S)["wall_s"]
    assert s["paired_differences"] == {"pairs": 4, "median_change_minus_parent": -0.25, "quartile_distance": 0.125}
    assert s["parent_quartile_distance"] == 1.0
    none = bench_pairs.summarize({"parent": runs_of([3.0, None]), "change": runs_of([None, 2.0])}, WALL_S)["wall_s"]
    assert none["paired_differences"] is None
