"""Canonical 13-feature schema for the heart-disease risk task."""

from __future__ import annotations

# (name, prompt-facing description) per feature; order is load-bearing everywhere downstream
FEATURES = (
    ("age", "Age of the individual"),
    ("sex", "Sex of the individual (1 = Male, 0 = Female)"),
    ("cp", "Chest pain type (1 = typical angina, 2 = atypical angina, 3 = non-anginal pain, 4 = asymptomatic)"),
    ("trestbps", "Resting blood pressure (in mm Hg on admission to the hospital)"),
    ("chol", "Serum cholesterol in mg/dl"),
    ("fbs", "Fasting blood sugar > 120 mg/dl (1 = true, 0 = false)"),
    (
        "restecg",
        "Resting electrocardiographic results (0 = normal, 1 = having ST-T wave "
        "abnormality, 2 = showing probable or definite left ventricular hypertrophy)",
    ),
    ("thalach", "Maximum heart rate achieved"),
    ("exang", "Exercise-induced angina (1 = yes, 0 = no)"),
    ("oldpeak", "ST depression induced by exercise relative to rest"),
    ("slope", "The slope of the peak exercise ST segment (1 = upsloping, 2 = flat, 3 = downsloping)"),
    ("ca", "Number of major vessels (0-3) colored by fluoroscopy"),
    ("thal", "Thalassemia (3 = normal, 6 = fixed defect, 7 = reversible defect)"),
)

FEATURE_NAMES = [name for name, _ in FEATURES]
TARGET_NAME = "num"
