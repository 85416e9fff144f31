"""The parts a grid cell shares: each draw of in-context examples is checked
and rendered once, and every prompt stays byte-identical to one assembled
row by row."""

from __future__ import annotations

import numpy as np
import pytest

from cardioprompt import prompts
from cardioprompt.dk import DkVariant, DomainKnowledge, render_dk
from cardioprompt.errors import ValidationError
from cardioprompt.experiment import ExperimentConfig, derive_seed, prepare, run_prompt_grid
from cardioprompt.prompts import PromptSpec, assemble_prompt, render_instance, sample_examples
from cardioprompt.schema import FEATURES
from cardioprompt.synthetic import synthetic_raw
from conftest import EXAMPLE_1, EXAMPLE_2, LR_ORDER, QUERY, RF_ORDER, XGB_ORDER, make_ranking

NO_DK = DomainKnowledge(DkVariant.NONE, "", "")


def reference_text(spec: PromptSpec, examples, query) -> str:
    """Every part built afresh for one row, with no cache beyond render_instance's."""
    part1 = prompts.TASK_INSTRUCTION
    if spec.paper_faithful:
        part1 += "\n" + prompts.CREDIT_RISK_SENTENCE
    parts = [part1, "\n".join([prompts.ATTRIBUTES_HEADER] + [f"- {name.capitalize()}: {text}" for name, text in FEATURES])]
    for i, (x, label) in enumerate(examples, start=1):
        parts.append(f"Example {i}:\n<Inputs {i}>: {render_instance(x)}\n<Answer {i}>: {label}")
    if spec.dk.variant is not DkVariant.NONE:
        parts.append(f"Domain Knowledge:\n{spec.dk.text}")
    tail = " ?" if spec.paper_faithful else ""
    query_line = render_instance(query, float_style=spec.paper_faithful)
    parts.append(f"{prompts.QUESTION_LEAD}\n<Inputs>: {query_line}\n<Answer>:{tail}")
    return "\n\n".join(parts)


class Recorder:
    """A backend that keeps every prompt it is asked and answers 1."""

    def __init__(self):
        self.texts: list[str] = []

    def answer(self, prompts: list[str]) -> list[str]:
        self.texts += prompts
        return ["1"] * len(prompts)


def dk_grid() -> list[DomainKnowledge]:
    grid = [render_dk(None, DkVariant.NONE)]
    for order, source in ((RF_ORDER, "RF"), (LR_ORDER, "LR"), (XGB_ORDER, "GBT")):
        grid += [render_dk(make_ranking(order, source), v) for v in (DkVariant.MLFI, DkVariant.MLFI_ORD)]
    return grid


class TestSharedHead:
    """Each draw's example blocks are rendered once; every prompt matches the reference."""

    @pytest.mark.parametrize("paper_faithful", [False, True])
    def test_every_grid_prompt_matches_the_per_row_reference(self, paper_faithful):
        cfg = ExperimentConfig(seed=11, paper_faithful=paper_faithful)
        prepared = prepare(synthetic_raw(n_rows=120, missing_fraction=0.1, seed=11), cfg)
        dks, backend = dk_grid(), Recorder()
        run_prompt_grid(cfg, prepared, dks, backend)
        expected = []
        for n_ex in cfg.n_ex_grid:
            seed = derive_seed(cfg.seed, f"examples:{n_ex}")
            examples = sample_examples(prepared.train, n_ex, seed)
            for dk in dks:
                spec = PromptSpec(dk=dk, paper_faithful=paper_faithful)
                expected += [reference_text(spec, examples, q) for q in prepared.test.matrix]
        assert len(expected) == 35 * prepared.test.n_rows
        assert backend.texts == expected

    def test_negative_zero_is_not_a_hit_for_zero(self):
        spec = PromptSpec(dk=NO_DK, paper_faithful=True)
        for zero in (0.0, -0.0):
            row = np.full(13, 9.75)
            row[5] = zero
            prompt = assemble_prompt(spec, [(row, 1)], row)
            assert prompt.text == reference_text(spec, [(row, 1)], row)
            assert f"fbs: {zero!r}" in prompt.part5_question

    def test_label_true_is_not_a_hit_for_one(self):
        spec = PromptSpec(dk=NO_DK)
        texts = []
        for examples in ([(EXAMPLE_1[0], 1), EXAMPLE_2], [(EXAMPLE_1[0], True), EXAMPLE_2]):
            texts.append(assemble_prompt(spec, examples, QUERY).text)
            assert texts[-1] == reference_text(spec, examples, QUERY)
        assert "<Answer 1>: 1\n" in texts[0] and "<Answer 1>: True\n" in texts[1]

    def test_bad_example_row_rejected(self):
        spec = PromptSpec(dk=NO_DK)
        for rows in ([np.zeros(13), np.zeros(12)], [np.zeros(12), np.zeros(12)]):
            with pytest.raises(ValidationError):
                assemble_prompt(spec, [(rows[0], 1), (rows[1], 0)], QUERY)

    def test_example_rows_are_read_only_copies(self):
        row = EXAMPLE_1[0].copy()
        examples = prompts.Examples([(row, 1)])
        row[0] = 99.0  # the caller's array is not the one kept
        assert examples[0][0][0] == 57.0
        assert examples.blocks == (f"Example 1:\n<Inputs 1>: {render_instance(EXAMPLE_1[0])}\n<Answer 1>: 1",)
        with pytest.raises(ValueError, match="read-only"):
            examples[0][0][0] = 1.0

    def test_examples_checked_once_per_draw(self, monkeypatch):
        built = []
        original = prompts.Examples.__new__
        monkeypatch.setattr(prompts.Examples, "__new__", lambda cls, *a: built.append(cls) or original(cls, *a))
        prepared = prepare(synthetic_raw(n_rows=60, missing_fraction=0.0, seed=5), ExperimentConfig(seed=5))
        cfg = ExperimentConfig(seed=5, n_ex_grid=(4,))
        run_prompt_grid(cfg, prepared, dk_grid()[:2], Recorder())
        assert len(built) == 1  # one draw per example count, whatever the number of cells and rows
