"""Command-line entry point.

Verbs mirror the pipeline stages: prepare-data, train-models, gen-dk,
run-grid, report. Configuration comes from an optional JSON file plus flag
overrides; every verb defaults to offline-safe behavior, and touching the
real API requires the explicit --live flag. Exit codes: 0 success,
1 validation or configuration error, 2 transport failure, 3 transport
failure after this run cached some answers (rerun to resume).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .data import load_csv, stats, write_atomic, write_imputed_csv
from .dk import DkVariant, DomainKnowledge
from .errors import CardiopromptError, TransportError, ValidationError
from .experiment import (
    ExperimentConfig,
    PreparedData,
    dk_grid_from_models,
    load_rows,
    prepare,
    prepare_data,
    run_ml_baselines,
    run_prompt_grid,
    save_rows,
    unparseable_counts,
    write_report,
)
from .gateway import HttpBackend, JsonlCache, OracleMock, RuleMock
from .models import load_model, save_model

# the verb that writes each stage artifact, by its name in the output directory
WRITERS = {
    "imputed.csv": "prepare-data",
    "models": "train-models",  # models/<family>.json
    "ml_rows.json": "train-models",
    "dk.json": "gen-dk",
    "grid_rows.json": "run-grid",
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    for flag, key, verb in (("--data-path", "data_path", "prepare-data"), ("--impute-k", "impute_k", "prepare-data"),
                            ("--live", "live", "run-grid"), ("--paper-faithful", "paper_faithful", "run-grid")):
        if args.verb != verb and getattr(args, key) not in (None, False):
            raise ValidationError(f"{flag} is read only by {verb}, not by {args.verb}")
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for key in ("data_path", "seed", "test_fraction", "impute_k", "cache_path", "output_dir"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if args.paper_faithful:
        overrides["paper_faithful"] = True
    if overrides:
        cfg = ExperimentConfig.from_dict({**dataclasses.asdict(cfg), **overrides})
    return cfg


def _read(cfg: ExperimentConfig, name: str, parse):
    """parse(path) of the artifact `name` that an upstream verb wrote. A
    missing file means that verb has not run; a malformed one, that it
    should run again."""
    path = Path(cfg.output_dir) / name
    verb = WRITERS[name.split("/")[0]]
    if not path.exists():
        raise ValidationError(f"missing {path}; run {verb} first")
    try:
        return parse(path)
    except CardiopromptError as exc:
        raise type(exc)(f"{exc}; rerun {verb}") from exc


def _load_prepared(cfg: ExperimentConfig) -> PreparedData:
    """The split of the imputed data that prepare-data wrote; imputing it again changes no cell."""
    return prepare(_read(cfg, "imputed.csv", load_csv), cfg)


def cmd_prepare_data(cfg: ExperimentConfig) -> int:
    prepared = prepare_data(cfg)
    st = stats(prepared.raw)
    out = Path(cfg.output_dir)
    write_imputed_csv(prepared.full, out / "imputed.csv")
    print(f"rows: {st.n_total}")
    print(f"rows with missing cells: {st.n_with_missing}")
    print(f"male fraction: {st.male_fraction:.4f}")
    print(f"train/test: {prepared.train.n_rows}/{prepared.test.n_rows}")
    print(f"imputed data written to {out / 'imputed.csv'}")
    return 0


def cmd_train_models(cfg: ExperimentConfig) -> int:
    rows, models = run_ml_baselines(cfg, _load_prepared(cfg))
    mdir = Path(cfg.output_dir) / "models"
    for family, model in models.items():
        save_model(model, mdir / f"{family}.json")
    save_rows(Path(cfg.output_dir) / "ml_rows.json", rows)
    path = write_report(rows, cfg.output_dir, fmt="csv")
    print(f"models saved to {mdir}")
    print(f"classifier table written to {path}")
    return 0


def cmd_gen_dk(cfg: ExperimentConfig) -> int:
    models = {family: _read(cfg, f"models/{family}.json", load_model) for family in cfg.dk_families}
    dks = dk_grid_from_models(models, families=cfg.dk_families)
    out = Path(cfg.output_dir) / "dk.json"
    write_atomic(
        out,
        json.dumps(
            [{"variant": dk.variant.value, "source": dk.source_name, "text": dk.text} for dk in dks],
            indent=2,
        ),
    )
    for i, dk in enumerate(dks):
        print(f"dk{i}: {dk.text if dk.text else 'None'}")
    print(f"domain knowledge written to {out}")
    return 0


def _load_dks(path: Path) -> list[DomainKnowledge]:
    """The texts that cmd_gen_dk wrote to dk.json."""
    try:
        return [
            DomainKnowledge(variant=DkVariant(doc["variant"]), source_name=doc["source"], text=doc["text"])
            for doc in json.loads(path.read_text())
        ]
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{path} does not hold domain-knowledge texts ({exc!r})") from exc


def cmd_run_grid(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    prepared = _load_prepared(cfg)
    dks = _read(cfg, "dk.json", _load_dks)
    if args.live:
        backend = HttpBackend(cfg.llm, JsonlCache(cfg.cache_path))
        cached_at_open = len(backend.cache)
    elif args.mock == "oracle":
        backend = OracleMock.for_dataset(prepared.test, float_style=cfg.paper_faithful)
    else:
        backend = RuleMock(args.rule_feature, args.rule_threshold)
    try:
        rows = run_prompt_grid(cfg, prepared, dks, backend)
    except TransportError as exc:  # only the live backend sends anything
        print(f"transport failure: {exc}", file=sys.stderr)
        if len(backend.cache) > cached_at_open:
            print("partial results are cached; rerun to resume", file=sys.stderr)
            return 3
        return 2
    finally:
        if args.live:
            backend.cache.close()
    grid_path = Path(cfg.output_dir) / "grid_rows.json"
    save_rows(grid_path, rows)
    if unparseable := unparseable_counts(rows):
        total = sum(unparseable.values())
        print(f"warning: {total} unparseable responses counted as positive ({unparseable})")
    print(f"grid rows written to {grid_path}")
    return 0


def cmd_report(cfg: ExperimentConfig, fmt: str) -> int:
    ml_rows = _read(cfg, "ml_rows.json", load_rows)
    grid_rows = _read(cfg, "grid_rows.json", load_rows)
    path = write_report(ml_rows + grid_rows, cfg.output_dir, fmt=fmt)
    if unparseable := unparseable_counts(grid_rows):
        print(f"warning: unparseable responses counted as positive: {unparseable}")
    print(f"report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardioprompt",
        description="Heart-disease risk classification with tuned classifiers and guided prompts.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--data-path", dest="data_path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--test-fraction", dest="test_fraction", type=float)
    parser.add_argument("--impute-k", dest="impute_k", type=int)
    parser.add_argument("--cache-path", dest="cache_path")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--paper-faithful", dest="paper_faithful", action="store_true")
    parser.add_argument(
        "--live", action="store_true", help="send real API requests (default: offline mocks/cache only)"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("prepare-data", help="load, binarize, impute, split; print dataset stats")
    sub.add_parser("train-models", help="tune and fit the six classifiers; save artifacts")
    sub.add_parser("gen-dk", help="render domain-knowledge texts from saved model rankings")
    grid = sub.add_parser("run-grid", help="run the prompt grid against a mock or the live API")
    grid.add_argument("--mock", choices=("oracle", "rule"), default="oracle")
    grid.add_argument("--rule-feature", default="oldpeak")
    grid.add_argument("--rule-threshold", type=float, default=1.0)
    rep = sub.add_parser("report", help="assembles the classifier and grid tables from earlier stages")
    rep.add_argument("--format", choices=("csv", "markdown"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.verb == "prepare-data":
            return cmd_prepare_data(cfg)
        if args.verb == "train-models":
            return cmd_train_models(cfg)
        if args.verb == "gen-dk":
            return cmd_gen_dk(cfg)
        if args.verb == "run-grid":
            return cmd_run_grid(cfg, args)
        return cmd_report(cfg, args.format)  # the required subparser admits no other verb
    except (CardiopromptError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
