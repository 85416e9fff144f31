"""Dataset loading, target binarization, KNN imputation, splitting, scaling.

Missing cells are carried as NaN in a float matrix; a cell is either present
(finite) or absent (NaN), never a sentinel number. Imputation fills only the
absent cells and leaves present cells bitwise untouched.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ImputationError, ParseError, StratificationError, ValidationError
from .schema import FEATURE_NAMES, TARGET_NAME

MISSING_TOKENS = {"?", ""}


@dataclass(frozen=True)
class RawDataset:
    """Parsed rows before imputation; NaN marks absent cells, target in 0..4 (or 0/1 after binarization)."""

    matrix: np.ndarray  # (n, 13) float, NaN = missing
    targets: np.ndarray  # (n,) int

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_with_missing(self) -> int:
        if self.n_rows == 0:
            return 0
        return int(np.isnan(self.matrix).any(axis=1).sum())


@dataclass(frozen=True)
class Dataset:
    """Fully observed matrix with binary targets."""

    matrix: np.ndarray  # (n, 13) float, no NaN
    targets: np.ndarray  # (n,) int in {0, 1}

    def __post_init__(self):
        if np.isnan(self.matrix).any():
            raise ValidationError("Dataset matrix must have no missing cells")
        bad = set(self.targets.tolist()) - {0, 1}
        if bad:
            raise ValidationError(f"Dataset targets must be binary, found {sorted(bad)}")

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class DatasetStats:
    n_total: int
    n_with_missing: int
    male_fraction: float


def load_csv(path: str | Path) -> RawDataset:
    """Parse a 14-column CSV (13 features + target), "?" or empty cell = missing.

    An optional header row is accepted when it matches the schema's feature
    names plus the target column; a UTF-8 byte-order mark before it is
    skipped. Raises ParseError naming the file and the offending line for
    bytes that are not UTF-8, wrong arity, non-numeric or non-finite cells, or
    out-of-range targets, and naming the file when it holds no data row.
    """
    path = Path(path)
    expected = FEATURE_NAMES + [TARGET_NAME]
    rows: list[list[float]] = []
    targets: list[int] = []
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    for lineno, record in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not record or (len(record) == 1 and not record[0].strip()):
            continue  # blank line
        cells = [c.strip() for c in record]
        if lineno == 1 and _is_header(cells):
            if [c.lower() for c in cells] != expected:
                raise ParseError(
                    f"{path}: line 1: header {cells} does not match expected columns {expected}"
                )
            continue
        if len(cells) != len(expected):
            raise ParseError(f"{path}: line {lineno}: expected {len(expected)} columns, got {len(cells)}")
        parsed: list[float] = []
        for name, cell in zip(FEATURE_NAMES, cells):
            if cell in MISSING_TOKENS:
                parsed.append(np.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric value {cell!r} in column {name}") from None
            if not math.isfinite(value):  # "nan" too: only MISSING_TOKENS mean missing
                raise ParseError(f"{path}: line {lineno}: non-finite value {cell!r} in column {name}")
            parsed.append(value)
        target_cell = cells[-1]
        try:
            target_f = float(target_cell)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric target {target_cell!r}") from None
        if not target_f.is_integer() or not 0 <= target_f <= 4:
            raise ParseError(f"{path}: line {lineno}: target must be an integer in 0..4, got {target_cell!r}")
        rows.append(parsed)
        targets.append(int(target_f))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=float).reshape(len(rows), len(FEATURE_NAMES))
    return RawDataset(matrix=matrix, targets=np.array(targets, dtype=int))


def _is_header(cells: list[str]) -> bool:
    def numeric_or_missing(c: str) -> bool:
        if c in MISSING_TOKENS:
            return True
        try:
            float(c)
            return True
        except ValueError:
            return False

    return not all(numeric_or_missing(c) for c in cells)


def binarize_target(raw: RawDataset) -> RawDataset:
    """Collapse severity 1..4 to high risk: target becomes 1 iff original > 0."""
    bad = set(raw.targets.tolist()) - {0, 1, 2, 3, 4}
    if bad:
        raise ValidationError(f"targets outside 0..4: {sorted(bad)}")
    return replace(raw, targets=(raw.targets > 0).astype(int))


def knn_impute(raw: RawDataset, k: int = 5) -> Dataset:
    """Fill each absent cell with the mean of that cell over the k nearest rows.

    Distance between two rows is Euclidean over min-max-scaled features,
    restricted to dimensions present in both rows and rescaled by
    n_features / |shared dimensions| before the square root. Donors for a
    cell are drawn from rows where that cell is present, ranked by
    (distance, row index); all donor distances are computed against the
    original missing pattern, which makes the operation idempotent.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    bad = set(raw.targets.tolist()) - {0, 1}
    if bad:
        raise ValidationError("impute after binarize_target; targets must be binary")
    matrix = raw.matrix
    n, d = matrix.shape
    present = ~np.isnan(matrix)
    if n and not present.any(axis=1).all():
        idx = int(np.flatnonzero(~present.any(axis=1))[0])
        raise ImputationError(f"row {idx} has no observed cells")
    for j in range(d):
        if n and not present[:, j].any() and np.isnan(matrix[:, j]).any():
            raise ImputationError(f"column {FEATURE_NAMES[j]} has no observed values to impute from")

    if not np.isnan(matrix).any():
        return Dataset(matrix=matrix.copy(), targets=raw.targets.copy())

    # Min-max scaling used only inside the distance; output keeps raw units.
    col_min = np.nanmin(matrix, axis=0)
    col_max = np.nanmax(matrix, axis=0)
    span = col_max - col_min
    span[span == 0] = 1.0
    scaled = (matrix - col_min) / span

    out = matrix.copy()
    need_rows = np.flatnonzero(np.isnan(matrix).any(axis=1))
    for i in need_rows:
        diff = scaled - scaled[i]
        shared = present & present[i]
        n_shared = shared.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            sq = np.where(shared, diff * diff, 0.0).sum(axis=1)
            dist = np.sqrt(np.where(n_shared > 0, d / np.maximum(n_shared, 1) * sq, np.inf))
        dist[i] = np.inf  # a row never donates to itself
        for j in np.flatnonzero(np.isnan(matrix[i])):
            donors = np.flatnonzero(present[:, j])
            order = donors[np.argsort(dist[donors], kind="stable")]  # stable = tie by row index
            chosen = order[:k]
            out[i, j] = float(np.mean(matrix[chosen, j]))
    return Dataset(matrix=out, targets=raw.targets.copy())


def holdout(ds: Dataset, test_fraction: float, seed: int) -> np.ndarray:
    """The sorted numbers of a seeded stratified holdout's test rows; per-class quotas by largest remainder."""
    classes, counts = np.unique(ds.targets, return_counts=True)
    if (counts < 2).any():
        raise StratificationError(f"class {classes[counts < 2][0]} has fewer than 2 members")

    n_test = int(np.floor(ds.n_rows * test_fraction + 0.5))
    if not 0 < n_test < ds.n_rows:  # a test_fraction outside (0, 1) among them
        empty = "test" if n_test <= 0 else "train"
        raise ValidationError(f"test_fraction {test_fraction} of {ds.n_rows} rows leaves the {empty} split empty")
    exact = counts * test_fraction
    quotas = np.floor(exact).astype(int)
    remainder = n_test - quotas.sum()  # >= 0: sum of floors never exceeds the rounded total
    for c in np.argsort(-(exact - quotas), kind="stable")[:remainder]:  # largest fractional part, tie by class order
        quotas[c] += 1

    rng = np.random.default_rng(seed)
    picked = [rng.permutation(np.flatnonzero(ds.targets == c))[:quota] for c, quota in zip(classes, quotas)]
    return np.sort(np.concatenate(picked))


def save_split(path: Path, test_rows: tuple[int, ...]) -> None:
    """Write the test rows of `holdout` to split.json."""
    write_atomic(path, json.dumps(test_rows))


def load_split(path: Path, n_rows: int) -> list[int]:
    """The test rows that save_split wrote to split.json for data of `n_rows` rows."""
    rows = json.loads(path.read_text())
    if 0 < len(rows) < n_rows and all(type(r) is int for r in rows) and rows == sorted(set(rows) & set(range(n_rows))):
        return rows
    raise ValidationError(f"not row numbers below {n_rows} in order, each once, with a row left on each side")


def split_at(ds: Dataset, test_rows: np.ndarray | list[int]) -> tuple[Dataset, Dataset]:
    """The train side (every other row, in order) and the test side (`test_rows`, in order) of `ds`."""
    train_rows = np.delete(np.arange(ds.n_rows), test_rows)  # not setdiff1d, which imports numpy.ma
    return Dataset(ds.matrix[train_rows], ds.targets[train_rows]), Dataset(ds.matrix[test_rows], ds.targets[test_rows])


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Z-score both splits with train-only population mean/stddev; a
    zero-variance column is centred and divided by 1."""
    if train.n_rows == 0:
        raise ValidationError("cannot standardize an empty training split")
    mean = train.matrix.mean(axis=0)
    std = train.matrix.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return (
        Dataset((train.matrix - mean) / std, train.targets.copy()),
        Dataset((test.matrix - mean) / std, test.targets.copy()),
    )


def stats(raw: RawDataset) -> DatasetStats:
    """Headline counts: size, missingness, sex balance."""
    n_male = int((raw.matrix[:, FEATURE_NAMES.index("sex")] == 1).sum())
    return DatasetStats(
        n_total=raw.n_rows,
        n_with_missing=raw.n_with_missing,
        male_fraction=n_male / raw.n_rows if raw.n_rows else 0.0,
    )


def write_imputed_csv(ds: Dataset, path: str | Path) -> None:
    """Emit the canonical fully-numeric audit CSV (same column order, header included)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(FEATURE_NAMES + [TARGET_NAME])
    for row, label in zip(ds.matrix, ds.targets):
        writer.writerow([repr(float(v)) for v in row] + [int(label)])
    write_atomic(path, buf.getvalue())
