"""Golden report bytes: the report tables and row files of a small seeded run
must hash to the sha256 recorded in tests/golden/report_tables.json.

Every report row is scored from a confusion matrix and rendered at four
decimals, so a change to the scoring, the row order, the averages, the
rendering or the row-file layout shows up here. A deliberate contract change
regenerates the file with `PYTHONPATH=src python tests/test_golden_report.py`
and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from cardioprompt.config import ExperimentConfig
from cardioprompt.experiment import dk_grid_from_models, emit_report, prepare, run_ml_baselines, run_prompt_grid, save_rows
from cardioprompt.gateway import RuleMock
from cardioprompt.synthetic import synthetic_raw

GOLDEN = Path(__file__).parent / "golden" / "report_tables.json"


def report_digests(tmp_dir: Path) -> dict[str, str]:
    cfg = ExperimentConfig(seed=13, search_iters=1, search_folds=2, n_ex_grid=(0, 2))
    prepared = prepare(synthetic_raw(120, missing_fraction=0.1, seed=4), cfg)
    ml, models = run_ml_baselines(cfg, prepared)
    grid = run_prompt_grid(cfg, prepared, dk_grid_from_models(models), RuleMock())
    docs = {f"report.{fmt}": emit_report(ml + grid, fmt).encode() for fmt in ("csv", "markdown")}
    for name, rows in (("ml_rows.json", ml), ("grid_rows.json", grid)):
        save_rows(tmp_dir / name, rows)
        docs[name] = (tmp_dir / name).read_bytes()
    return {name: hashlib.sha256(doc).hexdigest() for name, doc in docs.items()}


def test_report_tables_match_golden_bytes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = report_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    assert {k: v for k, v in got.items() if v != expected[k]} == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(report_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
