"""Build the five-part risk-assessment prompt.

Structure: task instruction, attribute glossary, optional in-context examples,
optional domain-knowledge paragraph, final question. Parts are joined by one
blank line; omitted parts leave no residue. Assembly is pure and
byte-deterministic so cached completions stay valid across runs.

Within one grid cell only the question changes from row to row. The
in-context examples are an `Examples`, checked and rendered once per draw, so
a row costs its question line and one join.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .dk import DkVariant, DomainKnowledge
from .errors import SamplingError, ValidationError
from .schema import FEATURE_NAMES, FEATURES

TASK_INSTRUCTION = """Given the provided input attributes, evaluate the risk of heart disease for the individual.
The diagnosis of heart disease (angiographic disease status) is based on the degree of diameter narrowing in the blood vessels:
- 0: Less than 50% diameter narrowing, implying a lower risk.
- 1: More than 50% diameter narrowing, indicating a higher risk.
If the assessment determines a high risk, the output should be '1'. If the risk is determined to be low, the output should be '0'."""

# Stray instruction carried over from a different task; reproduced only when
# paper_faithful fidelity is requested.
CREDIT_RISK_SENTENCE = "Evaluate the credit risk based on given attributes. If good, respond with '1', if bad, respond with '0'."

FAITHFUL_TASK = TASK_INSTRUCTION + "\n" + CREDIT_RISK_SENTENCE

ATTRIBUTES_HEADER = "The explanation of each attribute is as follows:"

ATTRIBUTES = "\n".join([ATTRIBUTES_HEADER] + [f"- {name.capitalize()}: {text}" for name, text in FEATURES])

QUESTION_LEAD = "Now, given the following inputs, please evaluate the risk of heart disease:"

_QUERY_MARK = "<Inputs>: "  # opens the final question's line; an example's reads "<Inputs k>: "


@dataclass(frozen=True)
class PromptSpec:
    """What one grid cell's prompts share besides their examples, whose count is theirs alone."""

    dk: DomainKnowledge
    paper_faithful: bool = False


@dataclass(frozen=True)
class Prompt:
    part1_task: str
    part2_attributes: str
    part3_examples: tuple[str, ...]
    part4_dk: str  # "" when no domain knowledge
    part5_question: str

    @property
    def text(self) -> str:
        parts = [self.part1_task, self.part2_attributes, *self.part3_examples]
        if self.part4_dk:
            parts.append(self.part4_dk)
        parts.append(self.part5_question)
        return "\n\n".join(parts)


def render_value(v: float) -> str:
    """Shortest exact decimal: 57.0 -> "57", 0.2 -> "0.2"."""
    f = float(v)
    if not math.isfinite(f):
        raise ValidationError(f"non-finite feature value {v!r}")
    if f == int(f):
        return str(int(f))
    return repr(f)


def render_instance(x, float_style: bool = False) -> str:
    """Comma-separated "name: value" pairs in canonical feature order.

    float_style renders whole numbers with a trailing .0 ("46.0"), matching how
    the final query line is printed in paper_faithful mode.

    A prompt grid renders the same rows again and again (a cell's examples in
    every prompt, each test row in every cell), so lines are memoized per
    process in a bounded LRU cache. Its key is the row's float64 bytes, not
    its values: -0.0 == 0.0, yet float_style prints them as "-0.0" and "0.0".
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != len(FEATURE_NAMES):
        raise ValidationError(f"expected {len(FEATURE_NAMES)} feature values, got {x.shape[0]}")
    return _render_row(x.tobytes(), float_style)


@functools.lru_cache(maxsize=4096)
def _render_row(bits: bytes, float_style: bool) -> str:
    render = (lambda v: str(float(v))) if float_style else render_value
    return ", ".join(f"{name}: {render(v)}" for name, v in zip(FEATURE_NAMES, np.frombuffer(bits)))


def query_line(prompt_text: str) -> str:
    """The content of the final question's <Inputs> line: what `render_instance` wrote there."""
    start = prompt_text.rfind("\n" + _QUERY_MARK) + 1  # 0 when absent: then only the first line can hold it
    line = prompt_text[start:].partition("\n")[0]
    if not line.startswith(_QUERY_MARK) or line == _QUERY_MARK:
        raise ValidationError("prompt has no final <Inputs> line")
    return line[len(_QUERY_MARK) :]


def query_values(prompt_text: str) -> dict[str, float]:
    """The final question's feature values by name."""
    pairs = {}
    for chunk in query_line(prompt_text).split(", "):
        name, _, value = chunk.partition(": ")
        pairs[name] = float(value)
    return pairs


class Examples(tuple):
    """In-context examples: (row, label) pairs, each row a read-only float64
    copy of the 13 feature values and each label 0 or 1, checked once when
    built. `blocks` holds their `Example i:` parts, rendered once too."""

    def __new__(cls, pairs=()):
        rows, labels = [], []
        for i, (x, label) in enumerate(pairs, start=1):
            if label not in (0, 1):
                raise ValidationError(f"example {i} label must be 0/1, got {label!r}")
            try:
                row = np.asarray(x, dtype=float).flatten()  # a copy, whatever x was
            except (ValueError, TypeError):  # ragged or non-numeric rows
                row = np.empty(0)
            if row.size != len(FEATURE_NAMES):
                raise ValidationError(f"each example needs {len(FEATURE_NAMES)} feature values")
            row.flags.writeable = False
            rows.append(row)
            labels.append(label)
        self = super().__new__(cls, zip(rows, labels))
        self.blocks = tuple(
            f"Example {i}:\n<Inputs {i}>: {render_instance(row)}\n<Answer {i}>: {label}"
            for i, (row, label) in enumerate(self, start=1)
        )
        return self


def sample_examples(train: Dataset, n_ex: int, seed: int) -> Examples:
    """Stratified draw without replacement: ceil(n/2) positives and floor(n/2)
    negatives, interleaved starting with a positive. Deterministic per seed."""
    if n_ex < 0:
        raise ValidationError("example count must be >= 0")
    if n_ex == 0:
        return Examples()
    if n_ex > train.n_rows:
        raise SamplingError(f"asked for {n_ex} examples from {train.n_rows} rows")
    n_pos = math.ceil(n_ex / 2)
    n_neg = n_ex - n_pos
    pos_idx = np.flatnonzero(train.targets == 1)
    neg_idx = np.flatnonzero(train.targets == 0)
    if len(pos_idx) < n_pos:
        raise SamplingError(f"need {n_pos} positive examples, have {len(pos_idx)}")
    if len(neg_idx) < n_neg:
        raise SamplingError(f"need {n_neg} negative examples, have {len(neg_idx)}")
    rng = np.random.default_rng(seed)
    # draw order fixed (positives first) so the seed fully pins the result
    pos_pick = rng.choice(pos_idx, size=n_pos, replace=False)
    neg_pick = rng.choice(neg_idx, size=n_neg, replace=False)
    picks = [pos_pick[i // 2] if i % 2 == 0 else neg_pick[i // 2] for i in range(n_ex)]
    return Examples((train.matrix[src], int(train.targets[src])) for src in picks)


def assemble_prompt(spec: PromptSpec, examples, query) -> Prompt:
    """The prompt for one query row. `examples` is an `Examples` or a list of
    (row, label) pairs, which is checked as one."""
    if not isinstance(examples, Examples):
        examples = Examples(examples)
    task = FAITHFUL_TASK if spec.paper_faithful else TASK_INSTRUCTION
    dk = "" if spec.dk.variant is DkVariant.NONE else f"Domain Knowledge:\n{spec.dk.text}"

    line = _QUERY_MARK + render_instance(query, float_style=spec.paper_faithful)
    tail = " ?" if spec.paper_faithful else ""
    question = f"{QUESTION_LEAD}\n{line}\n<Answer>:{tail}"

    return Prompt(task, ATTRIBUTES, examples.blocks, dk, question)
