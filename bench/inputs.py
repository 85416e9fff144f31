"""Write a workload's inputs; the set-up child of the benchmark.

    python3 bench/inputs.py CONFIG.json --seed N --rows N [--dk-models]

Writes the synthetic CSV named by the config's data_path, drawn from
`cardioprompt.synthetic` with the given seed and row count and a per-cell
missing rate of 0.15 (the four-hospital file has 1,759 of 11,960 cells
missing, 0.147). With --dk-models it also runs `prepare-data` and saves cheap
RF, LR and GBT fits, each with its importance ranking, where `gen-dk` reads
them; the prompt-grid workloads need domain-knowledge texts but not a tuned
search. Runs with the workload directory as its working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MISSING_RATE = 0.15
# small fixed models: the grid workloads need rankings, not accuracy
CHEAP_FITS = {
    "RF": {"n_estimators": 8, "max_depth": 3},
    "LR": {"max_iter": 200},
    "GBT": {"n_estimators": 8, "max_depth": 2},
}


def write_csv(path: Path, rows: int, seed: int):
    from cardioprompt.synthetic import synthetic_raw

    raw = synthetic_raw(n_rows=rows, missing_fraction=MISSING_RATE, seed=seed)
    lines = []
    for values, target in zip(raw.matrix.tolist(), raw.targets.tolist()):
        cells = ["?" if math.isnan(v) else repr(v) for v in values]
        lines.append(",".join(cells + [str(target)]))
    path.write_text("\n".join(lines) + "\n")


def fit_dk_models(config: Path):
    from cardioprompt.cli import main as cli_main
    from cardioprompt.experiment import ExperimentConfig, prepare_data
    from cardioprompt.models import feature_importance, save_model, train

    if cli_main(["--config", str(config), "prepare-data"]) != 0:
        raise SystemExit("prepare-data failed")
    cfg = ExperimentConfig.from_json(config)
    prepared = prepare_data(cfg)
    models_dir = Path(cfg.output_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for family, hyper in CHEAP_FITS.items():
        model = train(family, prepared.std_train, hyper, seed=cfg.seed)
        model = feature_importance(model, prepared.std_train, seed=cfg.seed)
        save_model(model, models_dir / f"{family}.json")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--dk-models", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    write_csv(Path(json.loads(args.config.read_text())["data_path"]), args.rows, args.seed)
    if args.dk_models:
        fit_dk_models(args.config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
