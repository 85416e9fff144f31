#!/usr/bin/env python3
"""End-to-end demo on synthetic data with a mock responder; no network, no
API key. Generates a dataset, tunes the six classifiers, derives the seven
domain-knowledge variants, runs the prompt grid, and prints the combined
report. The oracle mock scores 1.0 everywhere by construction; pass
--mock rule for a threshold responder with realistic mixed numbers.
"""

import argparse
import sys
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cardioprompt.experiment import (
    ExperimentConfig,
    dk_grid_from_models,
    emit_report,
    prepare,
    run_ml_baselines,
    run_prompt_grid,
    unparseable_counts,
    write_report,
)
from cardioprompt.gateway import OracleMock, RuleMock
from cardioprompt.synthetic import synthetic_raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--search-iters", type=int, default=4)
    ap.add_argument("--search-folds", type=int, default=3)
    ap.add_argument("--n-ex", type=int, nargs="+", default=[0, 2, 4])
    ap.add_argument("--mock", choices=("oracle", "rule"), default="oracle")
    ap.add_argument("--out", default=None, help="directory for report.csv (default: print only)")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig(
        seed=args.seed,
        search_iters=args.search_iters,
        search_folds=args.search_folds,
        n_ex_grid=tuple(args.n_ex),
    )

    t0 = monotonic()
    prepared = prepare(synthetic_raw(n_rows=args.rows, missing_fraction=0.05, seed=args.seed), cfg)
    print(f"data: {prepared.full.n_rows} rows, {prepared.train.n_rows} train / {prepared.test.n_rows} test")

    ml_rows, models = run_ml_baselines(cfg, prepared)
    print(f"classifiers tuned in {monotonic() - t0:.1f}s")

    dks = dk_grid_from_models(models)
    if args.mock == "rule":
        backend = RuleMock("chol", 240.0)
    else:
        backend = OracleMock.for_dataset(prepared.test, float_style=cfg.paper_faithful)
    grid_rows = run_prompt_grid(cfg, prepared, dks, backend)

    rows = ml_rows + grid_rows
    print()
    print(emit_report(rows, "markdown"))
    if unparseable := unparseable_counts(grid_rows):
        print(f"unparseable responses: {unparseable}")
    if args.out:
        path = write_report(rows, args.out, "csv")
        print(f"wrote {path}")
    print(f"total {monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
