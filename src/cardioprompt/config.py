"""Run configuration: `ExperimentConfig` and the two dataclasses it nests,
`CostWeights` (the report's error costs) and `LlmConfig` (the chat-completions
endpoint), with the checks a config file must pass.

This module imports neither numpy nor a pipeline stage, so the command line
can read a config and find a verb up to date without loading the pipeline.
`metrics`, `gateway` and `experiment` import these names from here.
"""

from __future__ import annotations

import json
import math
import typing
import urllib.parse
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path

from .errors import ValidationError


@dataclass(frozen=True)
class CostWeights:
    w_fp: float = 0.2
    w_fn: float = 0.8

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0 for w in (self.w_fp, self.w_fn)) or self.w_fp == self.w_fn == 0:
            raise ValidationError("cost weights must be finite, nonnegative and not both zero")


@dataclass(frozen=True)
class LlmConfig:
    base_url: str = "https://api.openai.com"
    model_name: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_retries: int = 5
    backoff_base: float = 1.0
    timeout: float = 30.0
    max_in_flight: int = 8

    def __post_init__(self):
        if not self.base_url.lower().startswith(("http://", "https://")):  # else the token could go anywhere
            raise ValidationError("base_url must start with http:// or https://")
        try:
            parts = urllib.parse.urlsplit(self.base_url)
            parts.port  # a port out of range or not a number raises here
            self.base_url.encode("ascii")  # the request line and the Host header send it as it is
        except ValueError as exc:  # UnicodeEncodeError is one
            raise ValidationError(f"base_url {self.base_url!r} is not a URL: {exc}") from None
        if not parts.hostname:
            raise ValidationError(f"base_url {self.base_url!r} names no host")
        if not all(0 < len(label) < 64 for label in parts.hostname.removesuffix(".").split(".")):  # as IDNA asks
            raise ValidationError(f"base_url {self.base_url!r} has a host label empty or of 64 characters or more")
        if not 0 <= self.temperature < math.inf:  # NaN fails every comparison
            raise ValidationError("temperature must be finite and >= 0")
        if not 0 <= self.backoff_base < math.inf:
            raise ValidationError("backoff_base must be finite and >= 0")
        if not 0 < self.timeout < math.inf:
            raise ValidationError("timeout must be finite and > 0")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str = "data/heart.csv"
    seed: int = 7
    test_fraction: float = 0.2
    impute_k: int = 5
    weights: CostWeights = field(default_factory=CostWeights)
    n_ex_grid: tuple[int, ...] = (0, 2, 4, 8, 16)
    search_iters: int = 20
    search_folds: int = 5
    cache_path: str = "runs/completions.jsonl"
    output_dir: str = "runs"
    paper_faithful: bool = False
    llm: LlmConfig = field(default_factory=LlmConfig)

    def __post_init__(self):
        """The checks that need no data; the verbs check the rest against the split."""
        if not 0 < self.test_fraction < 1:  # NaN fails every comparison
            raise ValidationError(f"config key test_fraction must be in (0, 1), not {self.test_fraction}")
        if self.impute_k < 1:
            raise ValidationError(f"config key impute_k must be >= 1, not {self.impute_k}")
        if self.search_iters < 1:
            raise ValidationError(f"config key search_iters must be >= 1, not {self.search_iters}")
        if self.search_folds < 2:
            raise ValidationError(f"config key search_folds must be >= 2, not {self.search_folds}")
        if any(n_ex < 0 for n_ex in self.n_ex_grid):
            raise ValidationError(f"config key n_ex_grid must hold counts >= 0, not {list(self.n_ex_grid)}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both are
            raise ValidationError(f"config file {path} is not UTF-8 JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _check_fields(doc, cls)
        kwargs = dict(doc)
        for key, nested in (("weights", CostWeights), ("llm", LlmConfig)):
            if key in kwargs:
                _check_fields(kwargs[key], nested, prefix=f"{key}.")
                kwargs[key] = nested(**kwargs[key])
        if "n_ex_grid" in kwargs:
            kwargs["n_ex_grid"] = tuple(kwargs["n_ex_grid"])
        return cls(**kwargs)


def _check_fields(doc, dataclass_type, prefix: str = ""):
    """Every key names a field, and every value has the field's JSON type. A
    nested dataclass field is left to its own call."""
    if not isinstance(doc, dict):
        raise ValidationError(f"config {prefix.rstrip('.') or 'document'} must be a JSON object")
    unknown = set(doc) - set(dataclass_type.__dataclass_fields__)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(prefix + k for k in unknown)}")
    hints = typing.get_type_hints(dataclass_type)
    for key, value in doc.items():
        kind = hints[key]
        if is_dataclass(kind):
            continue
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            if not isinstance(value, (list, tuple)) or not all(_json_is(v, item) for v in value):
                raise ValidationError(f"config key {prefix}{key} must be a list of {item.__name__}, not {value!r}")
        elif not _json_is(value, kind):
            raise ValidationError(f"config key {prefix}{key} must be {kind.__name__}, not {value!r}")


def _json_is(value, kind: type) -> bool:
    """Whether a JSON value fits a field of type `kind`: a float field takes
    an integer too, and a number field takes no boolean."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)
