"""Canonical 13-feature schema for the heart-disease risk task."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Feature:
    name: str
    description: str
    kind: str  # "continuous" or "coded"


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature descriptors; order is load-bearing everywhere downstream."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        if len(self.features) != 13:
            raise ValueError(f"schema must have exactly 13 features, got {len(self.features)}")

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def attribute_lines(self) -> list[str]:
        """Human-readable attribute explanations, capitalized names."""
        return [f"{f.name.capitalize()}: {f.description}" for f in self.features]


DEFAULT_SCHEMA = FeatureSchema(
    features=(
        Feature("age", "Age of the individual", "continuous"),
        Feature("sex", "Sex of the individual (1 = Male, 0 = Female)", "coded"),
        Feature(
            "cp",
            "Chest pain type (1 = typical angina, 2 = atypical angina, "
            "3 = non-anginal pain, 4 = asymptomatic)",
            "coded",
        ),
        Feature("trestbps", "Resting blood pressure (in mm Hg on admission to the hospital)", "continuous"),
        Feature("chol", "Serum cholesterol in mg/dl", "continuous"),
        Feature("fbs", "Fasting blood sugar > 120 mg/dl (1 = true, 0 = false)", "coded"),
        Feature(
            "restecg",
            "Resting electrocardiographic results (0 = normal, 1 = having ST-T wave "
            "abnormality, 2 = showing probable or definite left ventricular hypertrophy)",
            "coded",
        ),
        Feature("thalach", "Maximum heart rate achieved", "continuous"),
        Feature("exang", "Exercise-induced angina (1 = yes, 0 = no)", "coded"),
        Feature("oldpeak", "ST depression induced by exercise relative to rest", "continuous"),
        Feature(
            "slope",
            "The slope of the peak exercise ST segment (1 = upsloping, 2 = flat, 3 = downsloping)",
            "coded",
        ),
        Feature("ca", "Number of major vessels (0-3) colored by fluoroscopy", "coded"),
        Feature("thal", "Thalassemia (3 = normal, 6 = fixed defect, 7 = reversible defect)", "coded"),
    )
)

FEATURE_NAMES = DEFAULT_SCHEMA.names
TARGET_NAME = "num"
