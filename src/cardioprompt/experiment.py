"""End-to-end orchestration: data preparation, classifier tuning, prompt grid,
and the results table.

Stage seeds derive from one master seed by hashing "{master}:{stage}", so
stages are independently reproducible and adding a stage never shifts the
draws of another. The report grid mirrors the reference layout: the six
classifier rows, their average (`Average ML`) and the three trivial
baselines, then for each example count the seven prompt rows and their
average; no average includes a trivial baseline.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import CostWeights, ExperimentConfig
from .atomic import write_atomic
from .data import Dataset, RawDataset, binarize_target, holdout, knn_impute, load_csv, split_at, standardize
from .dk import DK_GRID, SOURCE_TAGS, DkVariant, DomainKnowledge, render_dk
from .errors import ValidationError, WorkerError
from .gateway import Backend, classify_batch
from .metrics import MetricsRow, baseline_predict, confusion, metrics_row
from .models import FAMILIES, TrainedModel, feature_importance, randomized_search
from .prompts import PromptSpec, sample_examples

# display names: the boosted-trees family stands in for the XGB results
DISPLAY_NAMES = {"RF": "RF", "LR": "LR", "MLP": "MLP", "KNN": "KNN", "GBT": "XGB", "ADA": "AdaBoost"}

REPORT_COLUMNS = (
    "Model",
    "DK Type",
    "DK source",
    "N_ex",
    "Pre.",
    "Rec",
    "F1",
    "Acc.",
    "FP Cost",
    "FN Cost",
    "Cost-Sens Acc.",
)


def derive_seed(master: int, stage: str) -> int:
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PreparedData:
    raw: RawDataset
    full: Dataset  # imputed, binarized
    train: Dataset  # raw-scale values, prompt-facing
    test: Dataset
    std_train: Dataset  # standardized, model-facing
    std_test: Dataset
    test_rows: tuple[int, ...] = ()  # the numbers of full's rows in test, which split.json holds


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    return prepare(load_csv(cfg.data_path), cfg)


def prepare(raw: RawDataset, cfg: ExperimentConfig) -> PreparedData:
    """Binarize, impute, split and standardize a loaded dataset: the one draw of the test rows."""
    full = knn_impute(binarize_target(raw), k=cfg.impute_k)
    return split_prepared(raw, full, holdout(full, cfg.test_fraction, seed=derive_seed(cfg.seed, "split")))


def split_prepared(raw: RawDataset, full: Dataset, test_rows: Sequence[int]) -> PreparedData:
    """`raw`, imputed as `full`, split at `test_rows` and standardized."""
    train, test = split_at(full, test_rows)
    return PreparedData(raw, full, train, test, *standardize(train, test), tuple(map(int, test_rows)))


@dataclass(frozen=True)
class ReportRow:
    label: str
    dk_type: str  # "NO", "MLFI", "MLFI-ord", or "-" for model rows
    dk_source: str
    n_ex: int | None
    metrics: MetricsRow
    unparseable: int = 0  # answers holding no 0/1, counted as positive


def _mean_row(label: str, members: list[ReportRow], n_ex: int | None = None) -> ReportRow:
    cols = np.array([m.metrics.as_tuple() for m in members])
    mean = cols.mean(axis=0)
    return ReportRow(label=label, dk_type="-", dk_source="-", n_ex=n_ex, metrics=MetricsRow(*map(float, mean)))


def _scored_row(
    label: str,
    preds: Sequence[int],
    truth: Sequence[int],
    weights: CostWeights,
    dk_type: str = "-",
    dk_source: str = "-",
    n_ex: int | None = None,
    unparseable: int = 0,
) -> ReportRow:
    """The report row of one classifier, baseline or prompt cell: its
    predictions scored against the held-out truth."""
    return ReportRow(label, dk_type, dk_source, n_ex, metrics_row(confusion(preds, truth), weights), unparseable)


def _tune_family(cfg: ExperimentConfig, train: Dataset, family: str) -> TrainedModel:
    """One family's search, plus its importance ranking when a DK text reads
    it. Every draw is seeded from cfg.seed and the family alone, so the result
    does not depend on which process runs it or beside which other family."""
    model, _report = randomized_search(
        family,
        train,
        n_iter=cfg.search_iters,
        folds=cfg.search_folds,
        seed=derive_seed(cfg.seed, f"search:{family}"),
    )
    if family in SOURCE_TAGS:
        model = feature_importance(model, train, seed=derive_seed(cfg.seed, f"importance:{family}"))
    return model


def _openblas():
    """The OpenBLAS library this process has loaded, found in /proc/self/maps
    and opened again through ctypes (the same copy); None where there is none."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:  # not Linux
        return None
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _one_blas_thread():
    """Pool worker initializer: one OpenBLAS thread in this worker, so that the
    workers do not oversubscribe the CPUs (a forked worker keeps a thread per
    CPU). Does nothing where no OpenBLAS thread-count setter is found."""
    import ctypes

    lib = _openblas()
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None  # void (int), in every build
            setter(1)
            return


def _tune_families(cfg: ExperimentConfig, train: Dataset) -> list[TrainedModel]:
    """_tune_family for each of FAMILIES, in that order: one family per worker
    process, with as many workers as CPUs this process may use (at most one
    per family), each running one BLAS thread. With one CPU the families run
    here, one after another."""
    tune = functools.partial(_tune_family, cfg, train)
    workers = min(len(os.sched_getaffinity(0)), len(FAMILIES))
    if workers == 1:
        return list(map(tune, FAMILIES))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: a worker starts with numpy and the package already imported, which
    # spawn would import again in each; train-models starts no thread first.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(tune, family) for family in FAMILIES]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool:
            lost = [f for f, future in zip(FAMILIES, futures) if isinstance(future.exception(), BrokenProcessPool)]
            raise WorkerError(f"a worker process died; not tuned: {', '.join(lost)}; rerun train-models") from None
        finally:
            for future in futures:  # after an error, the families not yet started never start
                future.cancel()


def run_ml_baselines(cfg: ExperimentConfig, prepared: PreparedData) -> tuple[list[ReportRow], dict[str, TrainedModel]]:
    """Tune the six families, evaluate on the held-out split, and append the
    three non-informed baselines. Returns rows plus the fitted models keyed by
    family; only the families of SOURCE_TAGS, whose rankings the
    domain-knowledge texts read, carry an importance ranking."""
    models = dict(zip(FAMILIES, _tune_families(cfg, prepared.std_train)))
    test = prepared.std_test
    rows = [
        _scored_row(DISPLAY_NAMES[family], model.predict(test.matrix), test.targets, cfg.weights)
        for family, model in models.items()
    ]
    rows.append(_mean_row("Average ML", rows))

    seed = derive_seed(cfg.seed, "baseline:random")
    for kind, label in (("random", "Random"), ("maj0", "Maj0"), ("maj1", "Maj1")):
        rows.append(_scored_row(label, baseline_predict(kind, test.n_rows, seed=seed), test.targets, cfg.weights))
    return rows, models


def dk_grid_from_models(models: dict[str, TrainedModel]) -> list[DomainKnowledge]:
    """The texts of DK_GRID, each rendered from its family's importance ranking."""
    for family in SOURCE_TAGS:
        model = models.get(family)
        if model is None or model.importance is None:
            raise ValidationError(f"no importance ranking available for family {family}")
    return [render_dk(models[family].importance if family else None, variant) for variant, family in DK_GRID]


_TAG_DISPLAY = {SOURCE_TAGS[f]: DISPLAY_NAMES[f] for f in SOURCE_TAGS}


def run_prompt_grid(
    cfg: ExperimentConfig,
    prepared: PreparedData,
    dks: list[DomainKnowledge],
    backend: Backend,
) -> list[ReportRow]:
    """Evaluate every (dk, n_ex) cell on the full test split with `backend`.

    Rows are grouped by example count: for each n_ex, prompt-0..prompt-6 then
    that block's average. The in-context examples are drawn once per n_ex,
    with a seed that depends only on n_ex, and shared by its seven cells.
    Each prompt row counts its unparseable answers, which score as positive
    predictions."""
    rows: list[ReportRow] = []
    truth = prepared.test.targets
    for n_ex in cfg.n_ex_grid:
        examples = sample_examples(prepared.train, n_ex, derive_seed(cfg.seed, f"examples:{n_ex}"))
        block: list[ReportRow] = []
        for dk_index, dk in enumerate(dks):
            spec = PromptSpec(dk=dk, paper_faithful=cfg.paper_faithful)
            labels = classify_batch(prepared.test, spec, backend, examples)
            preds = [1 if label is None else label for label in labels]
            source = _TAG_DISPLAY.get(dk.source_name, dk.source_name) if dk.variant is not DkVariant.NONE else "-"
            block.append(
                _scored_row(
                    f"prompt-{dk_index}", preds, truth, cfg.weights, dk.variant.value, source, n_ex, labels.count(None)
                )
            )
        rows.extend(block)
        rows.append(_mean_row(f"Average (N_ex={n_ex})", block, n_ex=n_ex))
    return rows


def save_rows(path: str | Path, rows: list[ReportRow]):
    """Write rows as the JSON list that `train-models` (ml_rows.json) and
    `run-grid` (grid_rows.json) hand to `report`. Metrics keep full float
    precision, so a table rendered from the loaded rows matches one rendered
    from the rows in memory byte for byte. Each row's keys are ReportRow's fields, in order."""
    write_atomic(path, json.dumps([{**vars(r), "metrics": list(r.metrics.as_tuple())} for r in rows]))


def load_rows(path: str | Path) -> list[ReportRow]:
    """Inverse of save_rows."""
    return [
        ReportRow(*(MetricsRow(*doc[f.name]) if f.name == "metrics" else doc[f.name] for f in fields(ReportRow)))
        for doc in json.loads(Path(path).read_text())
    ]


def unparseable_counts(rows: list[ReportRow]) -> dict[str, int]:
    """The nonzero unparseable counts, keyed "prompt-k/N_ex=n" in row order."""
    return {f"{r.label}/N_ex={r.n_ex}": r.unparseable for r in rows if r.unparseable}


def emit_report(rows: list[ReportRow], fmt: str = "csv") -> str:
    """Render the rows; 4-decimal fixed formatting throughout."""
    if not rows:
        raise ValidationError("empty report table")
    if fmt not in ("csv", "markdown"):
        raise ValidationError(f"unknown format {fmt!r}")

    def cells(r: ReportRow) -> list[str]:
        n_ex = "-" if r.n_ex is None else str(r.n_ex)
        return [r.label, r.dk_type, r.dk_source, n_ex, *(f"{value:.4f}" for value in r.metrics.as_tuple())]

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow(cells(r))
        return buf.getvalue()

    lines = ["| " + " | ".join(REPORT_COLUMNS) + " |", "|" + "---|" * len(REPORT_COLUMNS)]
    for r in rows:
        lines.append("| " + " | ".join(cells(r)) + " |")
    return "\n".join(lines) + "\n"


def write_report(rows: list[ReportRow], out_dir: str | Path, fmt: str = "csv") -> Path:
    path = Path(out_dir) / ("report.csv" if fmt == "csv" else "report.md")
    write_atomic(path, emit_report(rows, fmt))
    return path
