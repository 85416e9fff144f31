"""Command-line entry point.

Verbs mirror the pipeline stages: prepare-data, train-models, gen-dk,
run-grid, report. Configuration comes from an optional JSON file plus flag
overrides; every verb defaults to offline-safe behavior, and touching the
real API requires the explicit --live flag. Exit codes: 0 success,
1 validation or configuration error, 2 transport failure, 3 transport
failure after this run cached some answers (rerun to resume). A verb whose
last run, as recorded in <output_dir>/manifest.json, still matches its
config, arguments, inputs and outputs prints that it is up to date and
exits 0 without running (see `manifest.py`, which this module hands `VERBS`).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ExperimentConfig
from .dk import SOURCE_TAGS, load_dks, save_dks
from .errors import CardiopromptError, SamplingError, StratificationError, TransportError, ValidationError
from .manifest import Trace

if TYPE_CHECKING:
    from .experiment import PreparedData

# The pipeline's names that the verbs call, by module. They, and numpy with
# them, are imported only when a verb runs (see _import_pipeline), so an
# up-to-date verb costs an interpreter start and a few file hashes.
PIPELINE = {
    "data": ("Dataset", "RawDataset", "load_csv", "load_split", "save_split", "stats", "write_imputed_csv"),
    "experiment": (
        "dk_grid_from_models",
        "load_rows",
        "prepare_data",
        "run_ml_baselines",
        "run_prompt_grid",
        "save_rows",
        "split_prepared",
        "unparseable_counts",
        "write_report",
    ),
    "gateway": ("HttpBackend", "JsonlCache", "OracleMock", "RuleMock"),
    "models": ("load_model", "save_model", "stratified_folds"),
    "prompts": ("sample_examples",),
}


def _import_pipeline():
    """Bind the names of PIPELINE in this module. A name already bound is
    kept: a tracer or a test may have replaced it through `cli.<name>`."""
    for module, names in PIPELINE.items():
        loaded = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """`cli.<name>` of a PIPELINE name before any verb ran in this process."""
    if any(name in names for names in PIPELINE.values()):
        _import_pipeline()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the inputs outside the output directory, by their config key
EXTERNAL_INPUTS = ("data_path", "cache_path")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    for verb, row in VERBS.items():
        for key in row.alone:
            if args.verb != verb and getattr(args, key) is not None:
                raise ValidationError(f"--{key.replace('_', '-')} is read only by {verb}, not by {args.verb}")
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    keys = ExperimentConfig.__dataclass_fields__
    return dataclasses.replace(cfg, **{k: v for k, v in vars(args).items() if k in keys and v is not None})


def _load_prepared(cfg: ExperimentConfig, trace: Trace, key: str) -> PreparedData:
    """imputed.csv split at the rows of split.json, with the config key `key` checked against the split."""
    full = trace.read("imputed.csv", lambda path: Dataset(**vars(load_csv(path))))  # no missing cell, 0/1 targets
    test_rows = trace.read("split.json", lambda path: load_split(path, full.n_rows))
    prepared = split_prepared(RawDataset(**vars(full)), full, test_rows)
    _check_config_against_split(cfg, prepared, key)
    return prepared


def _check_config_against_split(cfg: ExperimentConfig, prepared: PreparedData, *keys: str):
    """Refuse the config `keys` (n_ex_grid, search_folds) the train split refutes, before training or sending."""
    for n_ex in cfg.n_ex_grid if "n_ex_grid" in keys else ():
        try:
            sample_examples(prepared.train, n_ex, seed=0)
        except SamplingError as exc:
            raise ValidationError(f"config key n_ex_grid: {n_ex} examples from the train split: {exc}") from None
    for folds in [cfg.search_folds] if "search_folds" in keys else []:
        try:
            stratified_folds(prepared.train.targets, folds, seed=0)
        except StratificationError as exc:
            raise ValidationError(f"config key search_folds: {folds} folds of the train split: {exc}") from None


def cmd_prepare_data(cfg: ExperimentConfig, trace: Trace, args: argparse.Namespace) -> int:
    prepared = prepare_data(cfg)
    _check_config_against_split(cfg, prepared, "n_ex_grid", "search_folds")
    st = stats(prepared.raw)
    path = trace.output("imputed.csv")
    write_imputed_csv(prepared.full, path)
    save_split(trace.output("split.json"), prepared.test_rows)
    print(f"rows: {st.n_total}")
    print(f"rows with missing cells: {st.n_with_missing}")
    print(f"male fraction: {st.male_fraction:.4f}")
    print(f"train/test: {prepared.train.n_rows}/{prepared.test.n_rows}")
    print(f"imputed data written to {path}")
    return 0


def cmd_train_models(cfg: ExperimentConfig, trace: Trace, args: argparse.Namespace) -> int:
    rows, models = run_ml_baselines(cfg, _load_prepared(cfg, trace, "search_folds"))
    for family, model in models.items():
        save_model(model, trace.output(f"models/{family}.json"))
    save_rows(trace.output("ml_rows.json"), rows)
    # not recorded: report rewrites report.csv, which must not make this verb search again
    path = write_report(rows, cfg.output_dir, fmt="csv")
    print(f"models saved to {Path(cfg.output_dir) / 'models'}")
    print(f"classifier table written to {path}")
    return 0


def cmd_gen_dk(cfg: ExperimentConfig, trace: Trace, args: argparse.Namespace) -> int:
    models = {family: trace.read(f"models/{family}.json", load_model) for family in SOURCE_TAGS}
    dks = dk_grid_from_models(models)
    out = trace.output("dk.json")
    save_dks(out, dks)
    for i, dk in enumerate(dks):
        print(f"dk{i}: {dk.text if dk.text else 'None'}")
    print(f"domain knowledge written to {out}")
    return 0


def cmd_run_grid(cfg: ExperimentConfig, trace: Trace, args: argparse.Namespace) -> int:
    prepared = _load_prepared(cfg, trace, "n_ex_grid")
    dks = trace.read("dk.json", load_dks)
    if args.live:
        backend = HttpBackend(cfg.llm, JsonlCache(cfg.cache_path))
        cached_at_open = len(backend.cache)
    elif args.mock == "oracle":
        backend = OracleMock.for_dataset(prepared.test)
    else:
        backend = RuleMock()
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
    if args.live:
        trace.record("cache_path")  # as this run leaves it, which is what a rerun reads
    grid_path = trace.output("grid_rows.json")
    save_rows(grid_path, rows)
    if unparseable := unparseable_counts(rows):
        total = sum(unparseable.values())
        print(f"warning: {total} unparseable responses counted as positive ({unparseable})")
    print(f"grid rows written to {grid_path}")
    return 0


def cmd_report(cfg: ExperimentConfig, trace: Trace, args: argparse.Namespace) -> int:
    ml_rows = trace.read("ml_rows.json", load_rows)
    grid_rows = trace.read("grid_rows.json", load_rows)
    path = write_report(ml_rows + grid_rows, cfg.output_dir, fmt=args.format)
    trace.output(path.name)
    if unparseable := unparseable_counts(grid_rows):
        print(f"warning: unparseable responses counted as positive: {unparseable}")
    print(f"report written to {path}")
    return 0


@dataclasses.dataclass(frozen=True)
class Verb:
    """A verb: `reads` names the files it reads, checked before it runs; `writes`, its stage
    artifacts in the output directory ("models" for models/<family>.json); `keys`, the config
    keys whose values decide what it writes, the only ones its config digest holds; `alone`,
    the settings no other verb reads (config keys, and the --live flag), whose flags any other
    verb refuses; `args`, the arguments besides the config that decide what it writes."""

    run: Callable[[ExperimentConfig, Trace, argparse.Namespace], int]
    help: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    keys: tuple[str, ...] = ()
    alone: tuple[str, ...] = ()
    args: Callable[[argparse.Namespace], dict] = lambda a: {}


VERBS = {
    "prepare-data": Verb(
        cmd_prepare_data, "load, binarize, impute, split; print dataset stats",
        reads=("data_path",), writes=("imputed.csv", "split.json"),
        keys=("data_path", "seed", "test_fraction", "impute_k", "n_ex_grid", "search_folds"),
        alone=("data_path", "impute_k", "test_fraction"),
    ),
    "train-models": Verb(
        cmd_train_models, "tune and fit the six classifiers; save artifacts",
        reads=("imputed.csv", "split.json"), writes=("models", "ml_rows.json"),
        keys=("seed", "search_iters", "search_folds", "weights"),
    ),
    "gen-dk": Verb(
        cmd_gen_dk, "render domain-knowledge texts from saved model rankings",
        reads=tuple(f"models/{family}.json" for family in SOURCE_TAGS), writes=("dk.json",),
    ),
    "run-grid": Verb(
        cmd_run_grid, "run the prompt grid against a mock or the live API",
        reads=("imputed.csv", "split.json", "dk.json"), writes=("grid_rows.json",),
        keys=("seed", "n_ex_grid", "weights", "paper_faithful", "llm"),
        alone=("paper_faithful", "live", "cache_path"),
        args=lambda a: {"backend": "live" if a.live else a.mock},
    ),
    "report": Verb(
        cmd_report, "assembles the classifier and grid tables from earlier stages",
        reads=("ml_rows.json", "grid_rows.json"), args=lambda a: {"format": a.format},
    ),
}


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
    # None when absent, as for the flags that take a value: _build_config tells a given flag by `is not None`
    parser.add_argument("--paper-faithful", dest="paper_faithful", action="store_true", default=None)
    parser.add_argument(
        "--live", action="store_true", default=None, help="send real API requests (default: offline mocks/cache only)"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, row in VERBS.items():
        sub.add_parser(name, help=row.help)
    sub.choices["run-grid"].add_argument("--mock", choices=("oracle", "rule"), default="oracle")
    sub.choices["report"].add_argument("--format", choices=("csv", "markdown"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        doc = dataclasses.asdict(cfg) | ({} if args.live else {"llm": None})  # only a live run-grid reads llm
        externals = {name: getattr(cfg, name) for name in EXTERNAL_INPUTS}
        trace = Trace(VERBS, args.verb, doc, VERBS[args.verb].args(args), cfg.output_dir, externals)
        if trace.up_to_date():
            trace.remove_leftovers()
            print(f"{args.verb} is up to date: config, arguments, inputs and outputs match {trace.manifest}")
            return 0
        start = time.perf_counter()
        _import_pipeline()
        code = VERBS[args.verb].run(cfg, trace, args)
        if code == 0:
            trace.commit(time.perf_counter() - start)
        return code
    except (CardiopromptError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
