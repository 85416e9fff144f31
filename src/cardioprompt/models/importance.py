"""Normalized feature-importance rankings.

Raw scores come from the estimator's own `raw_importance()` (impurity
decrease, |coefficient|). Negative raw scores clip to zero; an all-zero
vector degrades to a flagged uniform ranking instead of dividing by zero. Entries sort by weight descending with ties
resolved in canonical schema order, which makes rankings deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..schema import FEATURE_NAMES


@dataclass(frozen=True)
class ImportanceRanking:
    entries: tuple[tuple[str, float], ...]  # (feature name, weight), sorted
    source: str  # model family tag, e.g. "RF"
    degenerate: bool = False

    def __post_init__(self):
        if abs(sum(w for _, w in self.entries) - 1.0) > 1e-9:
            raise ValidationError("importance weights must sum to 1")
        if any(w < 0 for _, w in self.entries):
            raise ValidationError("importance weights must be nonnegative")
        weights = [w for _, w in self.entries]
        if any(a < b - 1e-15 for a, b in zip(weights, weights[1:])):
            raise ValidationError("entries must be sorted by weight descending")


def build_ranking(raw: np.ndarray, source: str) -> ImportanceRanking:
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (len(FEATURE_NAMES),):
        raise ValidationError(f"need one raw score per schema feature, got shape {raw.shape}")
    clipped = np.clip(raw, 0.0, None)
    total = clipped.sum()
    degenerate = bool(total <= 0)
    weights = np.full(len(clipped), 1.0 / len(clipped)) if degenerate else clipped / total
    order = np.lexsort((np.arange(len(weights)), -weights))  # weight desc, then canonical index
    entries = tuple((FEATURE_NAMES[i], float(weights[i])) for i in order)
    # renormalize the tail error so the sum-to-1 invariant holds exactly
    drift = 1.0 - sum(w for _, w in entries)
    if drift:
        first = entries[0]
        entries = ((first[0], first[1] + drift),) + entries[1:]
    return ImportanceRanking(entries=entries, source=source, degenerate=degenerate)

