"""Checks of the program's outputs against computations made here, apart
from the program, or against properties the method must have. None of them
compares with a stored copy of an earlier output.

Every check returns None when it holds and a one-line reason when it fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

SCHEMA_NAMES = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal",
)  # fmt: skip
W_FP, W_FN = 0.2, 0.8
RULE_COLUMN, RULE_THRESHOLD = SCHEMA_NAMES.index("oldpeak"), 1.0
N_DK = 7  # dk0 plus MLFI and MLFI-ord from each of RF, LR, GBT
ML_LABELS = ("RF", "LR", "MLP", "KNN", "XGB", "AdaBoost")


# --- inputs and expected values ------------------------------------------


def read_input_csv(path) -> tuple[list[list[float | None]], list[int]]:
    """The generated CSV: None marks a missing cell; targets are grades 0-4."""
    matrix, targets = [], []
    with open(path, newline="") as fh:
        for cells in csv.reader(fh):
            matrix.append([None if c == "?" else float(c) for c in cells[:13]])
            targets.append(int(cells[13]))
    return matrix, targets


def derive_seed(master: int, stage: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{master}:{stage}".encode()).digest()[:8], "big")


def held_out_rows(targets: list[int], master_seed: int, test_fraction: float = 0.2) -> np.ndarray:
    """Row indices of the held-out split: per-class quotas by largest
    remainder, then a seeded permutation of each class's members."""
    y = np.array([int(t > 0) for t in targets])
    classes, counts = np.unique(y, return_counts=True)
    n_test = n_test_for(len(y), test_fraction)
    exact = counts * test_fraction
    quotas = np.floor(exact).astype(int)
    for c in np.argsort(-(exact - quotas), kind="stable")[: n_test - quotas.sum()]:
        quotas[c] += 1
    rng = np.random.default_rng(derive_seed(master_seed, "split"))
    picked = [rng.permutation(np.flatnonzero(y == c))[:q] for c, q in zip(classes, quotas)]
    return np.sort(np.concatenate(picked))


def metrics_from_counts(tp: int, tn: int, fp: int, fn: int) -> tuple[float, ...]:
    """(precision, recall, F1, accuracy, FP cost, FN cost, cost-sensitive
    accuracy), 0/0 read as 0."""

    def ratio(a, b):
        return a / b if b else 0.0

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    f1 = ratio(2 * precision * recall, precision + recall)
    correct = tp + tn
    fp_cost, fn_cost = W_FP * fp, W_FN * fn
    accuracy = correct / (tp + tn + fp + fn)
    return (precision, recall, f1, accuracy, fp_cost, fn_cost, ratio(correct, correct + fp_cost + fn_cost))


def rule_metrics(input_csv, imputed_csv, master_seed: int) -> tuple[float, ...]:
    """What a grid cell scores when every prompt is answered by the rule
    `oldpeak >= 1.0` on its query row: the same for every cell."""
    _, targets = read_input_csv(input_csv)
    _, imputed, _ = read_imputed_csv(imputed_csv)
    rows = held_out_rows(targets, master_seed)
    pred = np.array([imputed[i][RULE_COLUMN] >= RULE_THRESHOLD for i in rows])
    truth = np.array([targets[i] > 0 for i in rows])
    return metrics_from_counts(
        int((pred & truth).sum()), int((~pred & ~truth).sum()), int((pred & ~truth).sum()), int((~pred & truth).sum())
    )


def n_test_for(rows: int, test_fraction: float = 0.2) -> int:
    """Rows in the held-out split of a `rows`-row file."""
    return int(np.floor(rows * test_fraction + 0.5))


# --- imputation ----------------------------------------------------------


def read_imputed_csv(path) -> tuple[list[str], list[list[float]], list[int]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in cells] for cells in reader]
    return header, [r[:13] for r in rows], [int(r[13]) for r in rows]


def check_imputation(input_csv, imputed_csv) -> str | None:
    """Every present input cell is kept bit for bit, no gap is left, and the
    target is the binarized grade."""
    raw, grades = read_input_csv(input_csv)
    header, imputed, targets = read_imputed_csv(imputed_csv)
    if tuple(header[:13]) != SCHEMA_NAMES or len(imputed) != len(raw):
        return f"imputed.csv has header {header} and {len(imputed)} rows for {len(raw)} input rows"
    for i, (given, filled) in enumerate(zip(raw, imputed)):
        for j, (a, b) in enumerate(zip(given, filled)):
            if not math.isfinite(b):
                return f"row {i} column {SCHEMA_NAMES[j]} is left unfilled"
            if a is not None and a != b:
                return f"row {i} column {SCHEMA_NAMES[j]}: present value {a!r} became {b!r}"
        if targets[i] != int(grades[i] > 0):
            return f"row {i}: target {targets[i]} for grade {grades[i]}"
    return None


# --- report tables -------------------------------------------------------


def parse_table(path) -> list[list[str]]:
    """Rows of report.csv or report.md without the header: label, DK type, DK
    source, N_ex, then the seven metrics as printed."""
    text = Path(path).read_text()
    if str(path).endswith(".md"):
        lines = [ln for ln in text.splitlines() if ln.startswith("|")][2:]
        return [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]
    return list(csv.reader(text.splitlines()))[1:]


def _row_has_counts(cells: list[str], n: int) -> bool:
    """Some integer confusion counts summing to n print as this row."""
    printed = cells[4:11]
    fp, fn = round(float(printed[4]) / W_FP), round(float(printed[5]) / W_FN)
    for tp in range(n - fp - fn + 1):
        values = metrics_from_counts(tp, n - fp - fn - tp, fp, fn)
        if [f"{v:.4f}" for v in values] == printed:
            return True
    return False


def check_table(rows: list[list[str]], n_test: int) -> str | None:
    """Each non-average row prints the metrics of integer confusion counts over
    the test split; each average row is the mean of its members."""
    if not rows:
        return "empty table"
    for i, cells in enumerate(rows):
        if len(cells) != 11:
            return f"row {i} has {len(cells)} cells"
        label = cells[0]
        if label.startswith("Average"):
            if label == "Average ML":
                members = [r for r in rows if r[0] in ML_LABELS]
            else:
                members = [r for r in rows if r[0].startswith("prompt-") and r[3] == cells[3]]
            if not members:
                return f"{label} has no member rows"
            for k in range(4, 11):
                mean = sum(float(r[k]) for r in members) / len(members)
                if abs(mean - float(cells[k])) > 1.0001e-4:  # both sides rounded to 4 places
                    return f"{label} column {k}: printed {cells[k]}, mean of members {mean:.6f}"
        elif not _row_has_counts(cells, n_test):
            return f"row {label} N_ex={cells[3]}: no confusion counts over {n_test} rows print as {cells[4:]}"
    return None


def check_grid_rows(doc: list[dict], expected: tuple[float, ...], n_ex_grid) -> str | None:
    """Every prompt cell scores what the rule scores; averages are means."""
    if len(doc) != len(n_ex_grid) * (N_DK + 1):
        return f"{len(doc)} grid rows for {len(n_ex_grid)} example counts"
    for b, n_ex in enumerate(n_ex_grid):
        block = doc[b * (N_DK + 1) : (b + 1) * (N_DK + 1)]
        for k, row in enumerate(block[:N_DK]):
            if row["label"] != f"prompt-{k}" or row["n_ex"] != n_ex:
                return f"unexpected row {row['label']} N_ex={row['n_ex']} in block N_ex={n_ex}"
            if any(abs(got - want) > 1e-12 for got, want in zip(row["metrics"], expected)):
                return f"prompt-{k} N_ex={n_ex} scores {row['metrics']}, the rule scores {list(expected)}"
        mean = np.mean([r["metrics"] for r in block[:N_DK]], axis=0)
        if np.abs(mean - np.array(block[N_DK]["metrics"])).max() > 1e-12:
            return f"Average (N_ex={n_ex}) is not the mean of its block"
    return None


def check_report_matches_grid(report_rows: list[list[str]], grid_doc: list[dict]) -> str | None:
    """The report's prompt rows print the rows run-grid wrote."""
    grid = {(r["label"], str(r["n_ex"])): [f"{v:.4f}" for v in r["metrics"]] for r in grid_doc}
    prompt_rows = [r for r in report_rows if r[0].startswith("prompt-") or r[0].startswith("Average (")]
    if len(prompt_rows) != len(grid):
        return f"report has {len(prompt_rows)} prompt rows, run-grid wrote {len(grid)}"
    for r in prompt_rows:
        want = grid.get((r[0], r[3]))
        if want != r[4:]:
            return f"report {r[0]} N_ex={r[3]} prints {r[4:]}, run-grid wrote {want}"
    return None


def check_report_matches_models(report_rows: list[list[str]], model_rows: list[list[str]]) -> str | None:
    """The report's classifier rows are the table train-models wrote."""
    head = report_rows[: len(model_rows)]
    if head != model_rows:
        return "report classifier rows differ from the train-models table"
    return None


# --- domain knowledge ----------------------------------------------------

_WORD = re.compile(r"[a-z]+")


def check_dk(path) -> str | None:
    """Seven texts; dk0 empty; each MLFI text names eight distinct features
    (six most and two least important); each MLFI-ord text names all 13 once."""
    docs = json.loads(Path(path).read_text())
    if len(docs) != N_DK:
        return f"dk.json has {len(docs)} entries"
    if docs[0]["text"]:
        return "dk0 is not empty"
    for i, doc in enumerate(docs[1:], start=1):
        named = [w for w in _WORD.findall(doc["text"]) if w in SCHEMA_NAMES]
        want = {"MLFI": 8, "MLFI-ord": 13}.get(doc["variant"])
        if want is None or len(named) != want or len(set(named)) != want:
            return f"dk{i} ({doc['variant']}) names {named}"
    return None
