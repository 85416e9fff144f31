"""Command-line entry point.

Verbs mirror the pipeline stages: prepare-data, train-models, gen-dk,
run-grid, report. Configuration comes from an optional JSON file plus flag
overrides; every verb defaults to offline-safe behavior, and touching the
real API requires the explicit --live flag. Exit codes: 0 success,
1 validation or configuration error, 2 transport failure, 3 transport
failure after this run cached some answers (rerun to resume). A verb whose
last run, as recorded in <output_dir>/manifest.json, still matches its
config, arguments, inputs and outputs prints that it is up to date and
exits 0 without running (see `Trace`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .atomic import remove_leftovers, write_atomic
from .config import ExperimentConfig
from .dk import DkVariant, DomainKnowledge
from .errors import CardiopromptError, SamplingError, StratificationError, TransportError, ValidationError

if TYPE_CHECKING:
    from .experiment import PreparedData

# The pipeline's names that the verbs call, by module. They, and numpy with
# them, are imported only when a verb runs (see _import_pipeline), so an
# up-to-date verb costs an interpreter start and a few file hashes.
PIPELINE = {
    "data": ("load_csv", "stats", "write_imputed_csv"),
    "experiment": (
        "dk_grid_from_models",
        "load_rows",
        "prepare",
        "prepare_data",
        "run_ml_baselines",
        "run_prompt_grid",
        "save_rows",
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


# the verb that writes each stage artifact, by its name in the output directory
WRITERS = {
    "imputed.csv": "prepare-data",
    "models": "train-models",  # models/<family>.json
    "ml_rows.json": "train-models",
    "dk.json": "gen-dk",
    "grid_rows.json": "run-grid",
}

MANIFEST = "manifest.json"
# the inputs outside the output directory, recorded under their config key
EXTERNAL_INPUTS = ("data_path", "cache_path")


def _sha256(path: Path) -> str | None:
    """The file's sha256, read in chunks; None where there is no file."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


@functools.cache
def program_identity() -> str:
    """A digest of this package's own sources, the Python version and
    numpy's version.py (found without importing numpy), so that what another
    program wrote is never up to date."""
    package = Path(__file__).parent
    numpy_version = Path(importlib.util.find_spec("numpy").origin).with_name("version.py")
    digest = hashlib.sha256(f"{sys.version}\nnumpy {_sha256(numpy_version)}\n".encode())
    for path in sorted(package.rglob("*.py")):
        digest.update(f"{path.relative_to(package).as_posix()} {_sha256(path)}\n".encode())
    return digest.hexdigest()


def _config_digest(cfg: ExperimentConfig, live: bool) -> str:
    """The config's sha256 without output_dir and cache_path, which are
    locations, not content: a copied run directory still checks clean. The
    llm settings count only for a live run-grid, the one verb that reads them."""
    doc = dataclasses.asdict(cfg)
    del doc["output_dir"], doc["cache_path"]
    if not live:
        del doc["llm"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load_manifest(path: Path) -> dict:
    """The manifest's entries by verb; none where there is no manifest."""
    try:
        entries = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise ValidationError(f"{path} is not a manifest ({exc}); delete it to run every verb again") from exc
    files = ("inputs", "outputs")
    if not isinstance(entries, dict) or not all(
        isinstance(entry, dict) and all(isinstance(entry.get(key), dict) for key in files) for entry in entries.values()
    ):
        raise ValidationError(f"{path} is not a manifest; delete it to run every verb again")
    return entries


class Trace:
    """What one verb reads and writes, checked against and recorded in the
    manifest of its output directory.

    The manifest holds one entry per verb, from that verb's last successful
    run: the config digest, seed and test fraction, the verb's arguments (run-grid's
    backend, report's format), the program identity, the sha256 of every
    file the verb read, as it read it, and of every artifact it wrote, and
    its wall time. A verb whose entry still matches, every file included,
    would write the same bytes again, so it is up to date and does not run:
    the verifying traces of Mokhov, Mitchell and Peyton Jones, "Build
    systems à la carte" (ICFP 2018). Files are named relative to the output
    directory, the data file and the completion cache by their config key.
    """

    def __init__(self, cfg: ExperimentConfig, verb: str, args: dict):
        self.cfg, self.verb = cfg, verb
        self.manifest = Path(cfg.output_dir) / MANIFEST
        live = args.get("backend") == "live"
        self.key = {"config": _config_digest(cfg, live), "args": args, "program": program_identity()}
        self.entries = _load_manifest(self.manifest)
        self.reads: dict[str, str | None] = {}
        self.writes: list[str] = []

    def path(self, name: str) -> Path:
        return Path(getattr(self.cfg, name)) if name in EXTERNAL_INPUTS else Path(self.cfg.output_dir) / name

    def up_to_date(self) -> bool:
        entry = self.entries.get(self.verb)
        if entry is None or any(entry.get(key) != value for key, value in self.key.items()):
            return False
        files = {**entry["inputs"], **entry["outputs"]}
        return all(_sha256(self.path(name)) == digest for name, digest in files.items())

    def remove_leftovers(self):
        """What killed writes of this verb's recorded outputs left behind."""
        for name in self.entries[self.verb]["outputs"]:
            remove_leftovers(self.path(name))

    def record(self, name: str) -> str | None:
        """Record a file this verb reads, with its sha256 now."""
        self.reads[name] = _sha256(self.path(name))
        return self.reads[name]

    def read(self, name: str, parse):
        """parse(path) of the artifact `name` that an upstream verb wrote. A
        missing file means that verb has not run; a malformed one, or one
        other than the file that verb recorded writing, that it should run
        again."""
        path = self.path(name)
        verb = WRITERS[name.split("/")[0]]
        digest = self.record(name)
        if digest is None:
            raise ValidationError(f"missing {path}; run {verb} first")
        if self.entries.get(verb, {}).get("outputs", {}).get(name, digest) != digest:
            raise ValidationError(f"{path} changed since {verb} wrote it; rerun {verb}")
        try:
            return parse(path)
        except CardiopromptError as exc:
            raise type(exc)(f"{exc}; rerun {verb}") from exc

    def output(self, name: str) -> Path:
        """The path of an artifact this verb writes, recorded for its entry."""
        self.writes.append(name)
        return self.path(name)

    def commit(self, wall_s: float):
        """Record this run as the verb's entry. The other entries are taken
        as the manifest holds them now."""
        entries = _load_manifest(self.manifest)
        entries[self.verb] = {
            **self.key,
            "seed": self.cfg.seed,
            "test_fraction": self.cfg.test_fraction,
            "inputs": self.reads,
            "outputs": {name: _sha256(self.path(name)) for name in self.writes},
            "wall_s": round(wall_s, 3),
        }
        write_atomic(self.manifest, json.dumps(entries, indent=2, sort_keys=True) + "\n")


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


def _verb_args(args: argparse.Namespace) -> dict:
    """The arguments besides the config that decide what a verb writes:
    run-grid's backend and report's format."""
    if args.verb == "run-grid":
        if args.live:
            return {"backend": "live"}  # the model and URL are in cfg.llm, which the config digest covers
        if args.mock == "oracle":
            return {"backend": "oracle"}
        return {"backend": "rule", "rule_feature": args.rule_feature, "rule_threshold": args.rule_threshold}
    if args.verb == "report":
        return {"format": args.format}
    return {}


def _load_prepared(trace: Trace) -> PreparedData:
    """The split of the imputed data that prepare-data wrote; imputing it again changes no cell."""
    return prepare(trace.read("imputed.csv", load_csv), trace.cfg)


def _check_config_against_split(cfg: ExperimentConfig, prepared: PreparedData):
    """The config values only the split can refute: every example count must
    be drawable from the train rows, and every class must fill each search
    fold. Checked here so that they fail before any training."""
    for n_ex in cfg.n_ex_grid:
        try:
            sample_examples(prepared.train, n_ex, seed=0)
        except SamplingError as exc:
            raise ValidationError(f"config key n_ex_grid: {n_ex} examples from the train split: {exc}") from None
    try:
        stratified_folds(prepared.train.targets, cfg.search_folds, seed=0)
    except StratificationError as exc:
        raise ValidationError(f"config key search_folds: {cfg.search_folds} folds of the train split: {exc}") from None


def cmd_prepare_data(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    trace.record("data_path")
    prepared = prepare_data(cfg)
    _check_config_against_split(cfg, prepared)
    st = stats(prepared.raw)
    path = trace.output("imputed.csv")
    write_imputed_csv(prepared.full, path)
    print(f"rows: {st.n_total}")
    print(f"rows with missing cells: {st.n_with_missing}")
    print(f"male fraction: {st.male_fraction:.4f}")
    print(f"train/test: {prepared.train.n_rows}/{prepared.test.n_rows}")
    print(f"imputed data written to {path}")
    return 0


def cmd_train_models(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    rows, models = run_ml_baselines(cfg, _load_prepared(trace))
    for family, model in models.items():
        save_model(model, trace.output(f"models/{family}.json"))
    save_rows(trace.output("ml_rows.json"), rows)
    # not recorded: report rewrites report.csv, which must not make this verb search again
    path = write_report(rows, cfg.output_dir, fmt="csv")
    print(f"models saved to {Path(cfg.output_dir) / 'models'}")
    print(f"classifier table written to {path}")
    return 0


def cmd_gen_dk(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    models = {family: trace.read(f"models/{family}.json", load_model) for family in cfg.dk_families}
    dks = dk_grid_from_models(models, families=cfg.dk_families)
    out = trace.output("dk.json")
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


def cmd_run_grid(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    prepared = _load_prepared(trace)
    dks = trace.read("dk.json", _load_dks)
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
    if args.live:
        trace.record("cache_path")  # as this run leaves it, which is what a rerun reads
    grid_path = trace.output("grid_rows.json")
    save_rows(grid_path, rows)
    if unparseable := unparseable_counts(rows):
        total = sum(unparseable.values())
        print(f"warning: {total} unparseable responses counted as positive ({unparseable})")
    print(f"grid rows written to {grid_path}")
    return 0


def _check_one_run(trace: Trace):
    """ml_rows.json and grid_rows.json must score one test split: the same
    seed, test fraction and imputed.csv. Rows whose writer has no entry
    (written before the manifest) are not checked."""
    made_from = {}
    for verb in ("train-models", "run-grid"):
        entry = trace.entries.get(verb)
        if entry is None:
            return
        made_from[verb] = (entry.get("seed"), entry.get("test_fraction"), entry["inputs"].get("imputed.csv"))
    if made_from["train-models"] != made_from["run-grid"]:
        now = (trace.cfg.seed, trace.cfg.test_fraction, _sha256(trace.path("imputed.csv")))
        stale = [verb for verb, made in made_from.items() if made != now] or list(made_from)
        split = {verb: f"seed {made[0]}, test fraction {made[1]}" for verb, made in made_from.items()}
        raise ValidationError(
            f"ml_rows.json (train-models, {split['train-models']}) and grid_rows.json "
            f"(run-grid, {split['run-grid']}) come from different test splits or imputed data; "
            f"rerun {' and '.join(stale)}"
        )


def cmd_report(trace: Trace, args: argparse.Namespace) -> int:
    ml_rows = trace.read("ml_rows.json", load_rows)
    grid_rows = trace.read("grid_rows.json", load_rows)
    _check_one_run(trace)
    path = write_report(ml_rows + grid_rows, trace.cfg.output_dir, fmt=args.format)
    trace.output(path.name)
    if unparseable := unparseable_counts(grid_rows):
        print(f"warning: unparseable responses counted as positive: {unparseable}")
    print(f"report written to {path}")
    return 0


VERBS = {
    "prepare-data": cmd_prepare_data,
    "train-models": cmd_train_models,
    "gen-dk": cmd_gen_dk,
    "run-grid": cmd_run_grid,
    "report": cmd_report,
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
        trace = Trace(cfg, args.verb, _verb_args(args))
        if trace.up_to_date():
            trace.remove_leftovers()
            print(f"{args.verb} is up to date: config, arguments, inputs and outputs match {trace.manifest}")
            return 0
        start = time.perf_counter()
        _import_pipeline()
        code = VERBS[args.verb](trace, args)
        if code == 0:
            trace.commit(time.perf_counter() - start)
        return code
    except (CardiopromptError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
