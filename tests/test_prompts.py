"""Prompt assembly: value rendering, example sampling, and whole-prompt golden
comparisons for both fidelity modes."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioprompt.dk import DkVariant, DomainKnowledge, render_dk
from cardioprompt.errors import SamplingError, ValidationError
from cardioprompt.prompts import (
    Examples,
    PromptSpec,
    assemble_prompt,
    render_instance,
    render_value,
    sample_examples,
)
from cardioprompt.schema import FEATURE_NAMES
from conftest import (
    EXAMPLE_1,
    EXAMPLE_1_LINE,
    EXAMPLE_2,
    EXAMPLE_3,
    QUERY,
    RF_ORDER,
    make_ranking,
    small_dataset,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

NO_DK = DomainKnowledge(DkVariant.NONE, "", "")


class TestRenderValue:
    def test_whole_numbers_drop_decimal(self):
        assert render_value(57.0) == "57"
        assert render_value(0.0) == "0"
        assert render_value(-3.0) == "-3"

    def test_fractions_keep_shortest_form(self):
        assert render_value(0.2) == "0.2"
        assert render_value(1.4) == "1.4"
        assert render_value(5.8) == "5.8"

    def test_trailing_zero_collapses(self):
        assert render_value(1.40) == "1.4"

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            render_value(float("nan"))
        with pytest.raises(ValidationError):
            render_value(float("inf"))


class TestRenderInstance:
    def test_worked_example_line(self):
        assert render_instance(EXAMPLE_1[0]) == EXAMPLE_1_LINE

    def test_float_style_keeps_decimal(self):
        line = render_instance(QUERY, float_style=True)
        assert line.startswith("age: 46.0, sex: 1.0, cp: 3.0")
        assert "fbs: 0.2" in line and "thal: 6.2" in line

    def test_all_zero_vector(self):
        line = render_instance(np.zeros(13))
        assert line == ", ".join(f"{n}: 0" for n in FEATURE_NAMES)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError):
            render_instance(np.zeros(12))

    @pytest.mark.parametrize("fill, zeros", [(7.25, (-0.0, 0.0)), (8.25, (0.0, -0.0))])
    def test_float_style_keeps_the_sign_of_zero_whichever_comes_first(self, fill, zeros):
        # -0.0 == 0.0, so a memo keyed on values would give the second row the first row's line;
        # each order has its own fill, so no other render in this process has seen its rows
        lines = {}
        for zero in zeros:
            row = np.full(13, fill)
            row[0] = zero
            lines[repr(zero)] = render_instance(row, float_style=True)
        rest = ", ".join(f"{name}: {fill}" for name in FEATURE_NAMES[1:])
        assert lines == {"-0.0": f"age: -0.0, {rest}", "0.0": f"age: 0.0, {rest}"}


class TestSampleExamples:
    def test_zero_returns_empty(self):
        assert sample_examples(small_dataset(30), 0, seed=1) == ()

    def test_count_and_interleaving(self):
        ds = small_dataset(80, seed=1)
        for n_ex in (2, 4, 8, 16):
            got = sample_examples(ds, n_ex, seed=5)
            assert len(got) == n_ex
            labels = [lab for _, lab in got]
            assert labels == [1 if i % 2 == 0 else 0 for i in range(n_ex)]

    def test_odd_count_has_extra_positive(self):
        ds = small_dataset(60, seed=2)
        labels = [lab for _, lab in sample_examples(ds, 5, seed=0)]
        assert labels == [1, 0, 1, 0, 1]

    def test_rows_come_from_training_set(self):
        ds = small_dataset(50, seed=3)
        for x, lab in sample_examples(ds, 8, seed=9):
            match = np.flatnonzero((ds.matrix == x).all(axis=1))
            assert len(match) >= 1
            assert any(int(ds.targets[m]) == lab for m in match)

    def test_no_replacement(self):
        ds = small_dataset(60, seed=4)
        got = sample_examples(ds, 16, seed=2)
        rows = {tuple(x) for x, _ in got}
        assert len(rows) == 16

    def test_deterministic_per_seed(self):
        ds = small_dataset(60, seed=5)
        a = sample_examples(ds, 6, seed=7)
        b = sample_examples(ds, 6, seed=7)
        c = sample_examples(ds, 6, seed=8)
        assert all(np.array_equal(x, z) and i == j for (x, i), (z, j) in zip(a, b))
        assert any(not np.array_equal(x, z) for (x, _), (z, _) in zip(a, c))

    def test_exhausted_class_raises(self):
        ds = small_dataset(30, seed=6)
        n_pos = int(ds.targets.sum())
        with pytest.raises(SamplingError):
            sample_examples(ds, 2 * n_pos + 2, seed=0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            sample_examples(small_dataset(30), -1, seed=0)


class TestAssembly:
    def test_default_golden_byte_exact(self):
        spec = PromptSpec(dk=NO_DK)
        prompt = assemble_prompt(spec, Examples([EXAMPLE_1, EXAMPLE_2]), QUERY)
        expected = (GOLDEN_DIR / "prompt_default.txt").read_text()
        assert prompt.text == expected

    def test_paper_faithful_golden_byte_exact(self):
        dk1 = render_dk(make_ranking(RF_ORDER, "RF"), DkVariant.MLFI)
        spec = PromptSpec(dk=dk1, paper_faithful=True)
        prompt = assemble_prompt(spec, Examples([EXAMPLE_1, EXAMPLE_2, EXAMPLE_3]), QUERY)
        expected = (GOLDEN_DIR / "prompt_paper_faithful.txt").read_text()
        assert prompt.text == expected

    def test_no_dk_leaves_no_residue(self):
        spec = PromptSpec(dk=NO_DK)
        prompt = assemble_prompt(spec, Examples(), QUERY)
        assert "Domain Knowledge" not in prompt.text
        assert "Example" not in prompt.text
        assert "\n\n\n" not in prompt.text

    def test_only_dk_section_changes_across_variants(self):
        base = PromptSpec(dk=NO_DK)
        with_dk = PromptSpec(dk=render_dk(make_ranking(RF_ORDER, "RF"), DkVariant.MLFI))
        examples = Examples([EXAMPLE_1, EXAMPLE_2])
        p0 = assemble_prompt(base, examples, QUERY)
        p1 = assemble_prompt(with_dk, examples, QUERY)
        assert p0.part1_task == p1.part1_task
        assert p0.part2_attributes == p1.part2_attributes
        assert p0.part3_examples == p1.part3_examples
        assert p0.part5_question == p1.part5_question
        assert p0.part4_dk == "" and p1.part4_dk.startswith("Domain Knowledge:\n")

    def test_query_label_never_present(self):
        # the final question must not leak an answer
        spec = PromptSpec(dk=NO_DK)
        prompt = assemble_prompt(spec, Examples(), QUERY)
        tail = prompt.text.rsplit("<Answer>:", 1)[1]
        assert tail.strip() == ""

    def test_bad_example_label_rejected(self):
        spec = PromptSpec(dk=NO_DK)
        with pytest.raises(ValidationError):
            Examples([(EXAMPLE_1[0], 2)])

    def test_assembly_is_pure(self):
        spec = PromptSpec(dk=NO_DK)
        a = assemble_prompt(spec, Examples([EXAMPLE_1]), QUERY)
        b = assemble_prompt(spec, Examples([EXAMPLE_1]), QUERY)
        assert a == b and a.text == b.text


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=10_000))
def test_example_block_count_matches_spec(n_ex, seed):
    ds = small_dataset(80, seed=1)
    examples = sample_examples(ds, n_ex, seed=seed)
    prompt = assemble_prompt(PromptSpec(dk=NO_DK), examples, QUERY)
    assert prompt.text.count("Example ") == n_ex
    for i in range(1, n_ex + 1):
        assert f"<Inputs {i}>:" in prompt.text and f"<Answer {i}>:" in prompt.text
