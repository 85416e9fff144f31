"""Seeded synthetic patient records shaped like the 13-feature schema.

This is stand-in data for demos and offline testing: ranges imitate the real
attribute scales and the label follows a noisy linear risk score, so learners
find genuine (synthetic) signal. It is not clinical data and carries no
relation to any real cohort.
"""

from __future__ import annotations

import numpy as np

from .data import RawDataset

# (low, high) value ranges per feature, in canonical order
_RANGES = (
    (29, 77),  # age
    (0, 1),  # sex
    (1, 4),  # cp
    (94, 200),  # trestbps
    (120, 560),  # chol
    (0, 1),  # fbs
    (0, 2),  # restecg
    (70, 200),  # thalach
    (0, 1),  # exang
    (0.0, 6.0),  # oldpeak
    (1, 3),  # slope
    (0, 3),  # ca
    (3, 7),  # thal
)

# risk-score weights over standardized features; sign conventions imitate the
# usual clinical direction (higher cp code, oldpeak, ca, exang -> riskier;
# higher thalach -> safer)
_RISK_WEIGHTS = np.array([0.3, 0.4, 1.1, 0.2, 0.3, 0.1, 0.2, -0.9, 0.9, 1.0, 0.4, 1.2, 0.8])


def synthetic_raw(
    n_rows: int = 920,
    missing_fraction: float = 0.05,
    seed: int = 0,
) -> RawDataset:
    """Generate records with multi-grade targets (0-4) and NaN-marked gaps.

    missing_fraction is the per-cell gap probability; rows are kept from going
    entirely missing. Roughly balanced binary prevalence after the >0 collapse.
    """
    rng = np.random.default_rng(seed)
    X = np.empty((n_rows, len(_RANGES)))
    for j, (lo, hi) in enumerate(_RANGES):
        if isinstance(lo, int) and isinstance(hi, int) and j != 9:
            X[:, j] = rng.integers(lo, hi + 1, size=n_rows).astype(float)
        else:
            X[:, j] = np.round(rng.uniform(lo, hi, size=n_rows), 1)

    mu = X.mean(axis=0)
    sd = np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    score = ((X - mu) / sd) @ _RISK_WEIGHTS + rng.normal(0, 0.8, size=n_rows)
    # map the continuous score to severity grades 0-4 by quantile bands
    bands = np.quantile(score, [0.45, 0.65, 0.8, 0.92])
    targets = np.digitize(score, bands).astype(int)

    if not 0 <= missing_fraction < 1:
        raise ValueError("missing_fraction must be in [0, 1)")
    if missing_fraction > 0:
        gaps = rng.random(X.shape) < missing_fraction
        full_rows = gaps.all(axis=1)
        gaps[full_rows, 0] = False  # keep at least one cell per row
        X = np.where(gaps, np.nan, X)

    return RawDataset(matrix=X, targets=targets)
