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
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from .atomic import remove_leftovers, write_atomic
from .config import ExperimentConfig
from .dk import DK_GRID, SOURCE_TAGS, DkVariant, DomainKnowledge
from .errors import CardiopromptError, SamplingError, StratificationError, TransportError, ValidationError

if TYPE_CHECKING:
    from .experiment import PreparedData

# The pipeline's names that the verbs call, by module. They, and numpy with
# them, are imported only when a verb runs (see _import_pipeline), so an
# up-to-date verb costs an interpreter start and a few file hashes.
PIPELINE = {
    "data": ("Dataset", "RawDataset", "load_csv", "stats", "write_imputed_csv"),
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


def _config_digest(cfg: ExperimentConfig, verb: str, live: bool) -> str:
    """The sha256 of the config as `verb` reads it. output_dir and cache_path
    are locations, not content: a copied run directory still checks clean. A
    setting of a verb's `alone` counts for that verb alone, and the llm
    settings count only for a live run-grid, the one verb that reads them."""
    doc = dataclasses.asdict(cfg)
    del doc["output_dir"], doc["cache_path"]
    for key in (key for other, row in VERBS.items() if other != verb for key in row.alone):
        doc.pop(key, None)  # live is a flag, not a config key
    if not live:
        del doc["llm"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load_manifest(path: Path) -> dict:
    """The manifest's entries by verb; none where there is no manifest. An entry
    reads no more than its row's `reads` and the external inputs, so a walk up the writers ends."""
    try:
        entries = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError as exc:
        raise ValidationError(f"{path} is not a manifest ({exc}); delete it to run every verb again") from exc
    if not isinstance(entries, dict) or not all(
        verb in VERBS and isinstance(entry, dict)
        and all(isinstance(entry.get(key), dict) for key in ("inputs", "outputs"))
        and entry["inputs"].keys() <= {*VERBS[verb].reads, *EXTERNAL_INPUTS}
        for verb, entry in entries.items()
    ):
        raise ValidationError(f"{path} is not a manifest; delete it to run every verb again")
    return entries


class Trace:
    """What one verb reads and writes, checked against and recorded in the
    manifest of its output directory.

    The manifest holds one entry per verb, from that verb's last successful
    run: the config digest, the verb's arguments (run-grid's backend,
    report's format), the program identity, the sha256 of every file the
    verb read, as it read it, and of every artifact it wrote, and its wall
    time. A verb whose entry still matches, every file included, would write
    the same bytes again, so it is up to date and does not run: the verifying
    traces of Mokhov, Mitchell and Peyton Jones, "Build systems à la carte"
    (ICFP 2018). Files are named relative to the output directory, the data
    file and the completion cache by their config key.
    """

    def __init__(self, cfg: ExperimentConfig, verb: str, args: dict):
        self.cfg, self.verb = cfg, verb
        self.manifest = Path(cfg.output_dir) / MANIFEST
        live = args.get("backend") == "live"
        self.key = {"config": _config_digest(cfg, verb, live), "args": args, "program": program_identity()}
        self.entries = _load_manifest(self.manifest)
        self.digests: dict[str, str | None] = {}  # by file name, as `_digest` first took it
        self.writes: list[str] = []
        self._check_reads()

    def path(self, name: str) -> Path:
        return Path(getattr(self.cfg, name)) if name in EXTERNAL_INPUTS else Path(self.cfg.output_dir) / name

    def up_to_date(self) -> bool:
        """Whether this verb's entry still matches: its key, each recorded
        input by the sha256 `_check_reads` took (the live cache by its own),
        and each output by its sha256."""
        entry = self.entries.get(self.verb)
        if entry is None or any(entry.get(key) != value for key, value in self.key.items()):
            return False
        return all(self._digest(n) == entry["inputs"].get(n, "") for n in {*self.reads, *entry["inputs"]}) and all(
            _sha256(self.path(name)) == digest for name, digest in entry["outputs"].items()
        )

    def remove_leftovers(self):
        """What killed writes of this verb's recorded outputs left behind."""
        for name in self.entries[self.verb]["outputs"]:
            remove_leftovers(self.path(name))

    def _digest(self, name: str) -> str | None:
        """The sha256 of the file `name`, None where there is none, hashed
        once per run: no verb writes a file that it or a lineage walk reads.
        `record` hashes the live cache anew, as run-grid leaves it."""
        if name not in self.digests:
            self.digests[name] = _sha256(self.path(name))
        return self.digests[name]

    def _check_reads(self):
        """Hash each file of this verb's row `reads` and walk its lineage, collecting
        every finding: a missing stage artifact, one its writer did not write, one
        made from a stage artifact changed since. Any raises one error naming the
        first finding and every verb to run or rerun, once each, in pipeline order."""
        self.reads, found = {name: self._digest(name) for name in VERBS[self.verb].reads}, []
        for name in self.reads:
            self._lineage(name, found)
        missing = [name for name, digest in self.reads.items() if digest is None and name not in EXTERNAL_INPUTS]
        rerun = {WRITERS[name.split("/")[0]] for name in missing}.union(*(named for _, named in found))
        verbs = " and ".join(sorted(rerun, key=list(VERBS).index))
        if missing:
            raise ValidationError(f"missing {' and '.join(map(str, map(self.path, missing)))}; run {verbs} first")
        if found:
            raise ValidationError(f"{found[0][0]}; rerun {verbs}")

    def record(self, name: str):
        """Record a file this verb read with its sha256 now: the live cache, as run-grid leaves it."""
        self.reads[name] = _sha256(self.path(name))

    def _written(self, name: str) -> str | None:
        """The sha256 of the stage artifact `name` once its writer, if need
        be, has run again: as the writer's entry records it, else as it is now."""
        entry = self.entries.get(WRITERS[name.split("/")[0]], {"outputs": {}})
        return entry["outputs"].get(name, self._digest(name))

    def _lineage(self, name: str, found: list, below: tuple[str, ...] = ()):
        """Walk up from the file `name` through its writers' entries, `below` being the
        writers between it and the reading verb. A file that is not what its writer wrote,
        or is gone, goes into `found` with that writer, which writes it again; one made from
        a stage artifact written anew since with that writer and those below it. A file no
        entry wrote ends the walk: an external input, or one older than the manifest."""
        verb = WRITERS.get(name.split("/")[0])
        if (entry := self.entries.get(verb)) is None:
            return
        if (digest := self._digest(name)) != entry["outputs"].get(name, digest):
            what = f"{self.path(name)} changed since {verb} wrote it" if digest else f"missing {self.path(name)}"
            found.append((what, (verb,)))
        for source, made_from in entry["inputs"].items():
            if source.split("/")[0] in WRITERS and self._written(source) != made_from:
                found.append((f"{name} was made from a {source} that has changed since", (verb, *below)))
            self._lineage(source, found, (verb, *below))

    def read(self, name: str, parse):
        """parse(path) of the stage artifact `name` of this verb's row
        `reads`, which `_check_reads` found as its writer wrote it. Bytes
        `parse` raises on mean the writer should run again: the parsers leave
        naming the file to this one rule."""
        path, verb = self.path(name), WRITERS[name.split("/")[0]]
        try:
            return parse(path)
        except (CardiopromptError, ValueError, KeyError, TypeError) as exc:  # ValueError: not JSON, not UTF-8
            what = f"{type(exc).__name__}: {exc}"
            raise ValidationError(f"{path} is not as {verb} writes it ({what}); rerun {verb}") from exc

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
            "inputs": self.reads,
            "outputs": {name: _sha256(self.path(name)) for name in self.writes},
            "wall_s": round(wall_s, 3),
        }
        write_atomic(self.manifest, json.dumps(entries, indent=2, sort_keys=True) + "\n")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    for verb, row in VERBS.items():
        for key in row.alone:
            if args.verb != verb and getattr(args, key) is not None:
                raise ValidationError(f"--{key.replace('_', '-')} is read only by {verb}, not by {args.verb}")
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    keys = ExperimentConfig.__dataclass_fields__
    return dataclasses.replace(cfg, **{k: v for k, v in vars(args).items() if k in keys and v is not None})


def _load_test_rows(path: Path, n_rows: int) -> list[int]:
    """The test rows that cmd_prepare_data wrote to split.json for data of `n_rows` rows."""
    rows = json.loads(path.read_text())
    if 0 < len(rows) < n_rows and all(type(r) is int for r in rows) and rows == sorted(set(rows) & set(range(n_rows))):
        return rows
    raise ValidationError(f"not row numbers below {n_rows} in order, each once, with a row left on each side")


def _load_prepared(trace: Trace, key: str) -> PreparedData:
    """imputed.csv split at the rows of split.json, with the config key `key` checked against the split."""
    full = trace.read("imputed.csv", lambda path: Dataset(**vars(load_csv(path))))  # no missing cell, 0/1 targets
    test_rows = trace.read("split.json", lambda path: _load_test_rows(path, full.n_rows))
    prepared = split_prepared(RawDataset(**vars(full)), full, test_rows)
    _check_config_against_split(trace.cfg, prepared, key)
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


def cmd_prepare_data(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    prepared = prepare_data(cfg)
    _check_config_against_split(cfg, prepared, "n_ex_grid", "search_folds")
    st = stats(prepared.raw)
    path = trace.output("imputed.csv")
    write_imputed_csv(prepared.full, path)
    write_atomic(trace.output("split.json"), json.dumps(prepared.test_rows))
    print(f"rows: {st.n_total}")
    print(f"rows with missing cells: {st.n_with_missing}")
    print(f"male fraction: {st.male_fraction:.4f}")
    print(f"train/test: {prepared.train.n_rows}/{prepared.test.n_rows}")
    print(f"imputed data written to {path}")
    return 0


def cmd_train_models(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    rows, models = run_ml_baselines(cfg, _load_prepared(trace, "search_folds"))
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
    models = {family: trace.read(f"models/{family}.json", load_model) for family in SOURCE_TAGS}
    dks = dk_grid_from_models(models)
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
    """The texts that cmd_gen_dk wrote to dk.json, those of DK_GRID in its order."""
    dks = [
        DomainKnowledge(variant=DkVariant(doc["variant"]), source_name=doc["source"], text=doc["text"])
        for doc in json.loads(path.read_text())
    ]
    if [(dk.variant, dk.source_name) for dk in dks] != [(v, SOURCE_TAGS.get(f, "")) for v, f in DK_GRID]:
        raise ValidationError(f"not dk0 then MLFI and MLFI-ord of each of {', '.join(SOURCE_TAGS)}")
    return dks


def cmd_run_grid(trace: Trace, args: argparse.Namespace) -> int:
    cfg = trace.cfg
    prepared = _load_prepared(trace, "n_ex_grid")
    dks = trace.read("dk.json", _load_dks)
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


def cmd_report(trace: Trace, args: argparse.Namespace) -> int:
    ml_rows = trace.read("ml_rows.json", load_rows)
    grid_rows = trace.read("grid_rows.json", load_rows)
    path = write_report(ml_rows + grid_rows, trace.cfg.output_dir, fmt=args.format)
    trace.output(path.name)
    if unparseable := unparseable_counts(grid_rows):
        print(f"warning: unparseable responses counted as positive: {unparseable}")
    print(f"report written to {path}")
    return 0


@dataclasses.dataclass(frozen=True)
class Verb:
    """A verb: `reads` names the files it reads, checked before it runs; `writes`, its stage
    artifacts in the output directory ("models" for models/<family>.json); `alone`, the
    settings no other verb reads (config keys, and the --live flag), whose flags any other
    verb refuses and which count in this verb's config digest alone; `args`, the arguments
    besides the config that decide what it writes."""

    run: Callable[[Trace, argparse.Namespace], int]
    help: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    alone: tuple[str, ...] = ()
    args: Callable[[argparse.Namespace], dict] = lambda a: {}


VERBS = {
    "prepare-data": Verb(
        cmd_prepare_data, "load, binarize, impute, split; print dataset stats",
        reads=("data_path",), writes=("imputed.csv", "split.json"), alone=("data_path", "impute_k", "test_fraction"),
    ),
    "train-models": Verb(
        cmd_train_models, "tune and fit the six classifiers; save artifacts",
        reads=("imputed.csv", "split.json"), writes=("models", "ml_rows.json"),
    ),
    "gen-dk": Verb(
        cmd_gen_dk, "render domain-knowledge texts from saved model rankings",
        reads=tuple(f"models/{family}.json" for family in SOURCE_TAGS), writes=("dk.json",),
    ),
    "run-grid": Verb(
        cmd_run_grid, "run the prompt grid against a mock or the live API",
        reads=("imputed.csv", "split.json", "dk.json"), writes=("grid_rows.json",),
        alone=("paper_faithful", "live", "cache_path"),
        # a live run's model and URL are in cfg.llm, which the config digest covers
        args=lambda a: {"backend": "live" if a.live else a.mock},
    ),
    "report": Verb(
        cmd_report, "assembles the classifier and grid tables from earlier stages",
        reads=("ml_rows.json", "grid_rows.json"), args=lambda a: {"format": a.format},
    ),
}
# the verb that writes each stage artifact, by its name in the output directory
WRITERS = {name: verb for verb, row in VERBS.items() for name in row.writes}


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
        trace = Trace(cfg, args.verb, VERBS[args.verb].args(args))
        if trace.up_to_date():
            trace.remove_leftovers()
            print(f"{args.verb} is up to date: config, arguments, inputs and outputs match {trace.manifest}")
            return 0
        start = time.perf_counter()
        _import_pipeline()
        code = VERBS[args.verb].run(trace, args)
        if code == 0:
            trace.commit(time.perf_counter() - start)
        return code
    except (CardiopromptError, OSError) as exc:  # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
