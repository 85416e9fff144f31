"""Domain-knowledge text rendering against frozen golden strings."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cardioprompt.dk import DK_GRID, SOURCE_TAGS, DkVariant, DomainKnowledge, load_dks, render_dk, save_dks
from cardioprompt.errors import ValidationError
from cardioprompt.models.importance import ImportanceRanking
from conftest import LR_ORDER, RF_ORDER, XGB_ORDER, make_ranking

GOLDEN_TOP = {
    "RF": (
        "According to a randomforestclassifier classifier, the most important features "
        "in assessing heart disease risk include cp, ca, chol, oldpeak, exang, and thalach. "
        "Features like fbs and restecg have relatively lower importance;"
    ),
    "LR": (
        "According to a logisticregression classifier, the most important features "
        "in assessing heart disease risk include cp, oldpeak, ca, exang, sex, and thal. "
        "Features like restecg and trestbps have relatively lower importance;"
    ),
    "GBT": (
        "According to a xgbclassifier classifier, the most important features "
        "in assessing heart disease risk include exang, cp, sex, ca, oldpeak, and fbs. "
        "Features like trestbps and restecg have relatively lower importance;"
    ),
}

GOLDEN_ORD = {
    "RF": (
        "The order of features is critically important when evaluating heart disease risk. "
        "The sequence of features according to their importance starts with cp, followed by ca, "
        "then chol, oldpeak, exang, thalach, thal, age, slope, trestbps, sex, fbs, "
        "and finally restecg;"
    ),
    "LR": (
        "The order of features is critically important when evaluating heart disease risk. "
        "The sequence of features according to their importance starts with cp, followed by oldpeak, "
        "then ca, exang, sex, thal, chol, thalach, fbs, age, slope, restecg, "
        "and finally trestbps;"
    ),
    "GBT": (
        "The order of features is critically important when evaluating heart disease risk. "
        "The sequence of features according to their importance starts with exang, followed by cp, "
        "then sex, ca, oldpeak, fbs, slope, thal, chol, thalach, age, trestbps, "
        "and finally restecg;"
    ),
}

ORDERS = {"RF": RF_ORDER, "LR": LR_ORDER, "GBT": XGB_ORDER}


class TestGoldenTexts:
    @pytest.mark.parametrize("family", SOURCE_TAGS)
    def test_top_features_text_byte_exact(self, family):
        dk = render_dk(make_ranking(ORDERS[family], family), DkVariant.MLFI)
        assert dk.text == GOLDEN_TOP[family]
        assert dk.source_name == SOURCE_TAGS[family]

    @pytest.mark.parametrize("family", SOURCE_TAGS)
    def test_feature_order_text_byte_exact(self, family):
        dk = render_dk(make_ranking(ORDERS[family], family), DkVariant.MLFI_ORD)
        assert dk.text == GOLDEN_ORD[family]


class TestRenderRules:
    def test_none_variant_empty(self, tmp_path):
        dk = render_dk(make_ranking(RF_ORDER, "RF"), DkVariant.NONE)
        assert dk.variant is DkVariant.NONE
        assert dk.text == "" and dk.source_name == ""
        # dk.json holds the texts of DK_GRID, this one first, as a JSON list that load_dks reads back
        dks = [render_dk(make_ranking(ORDERS[family], family) if family else None, v) for v, family in DK_GRID]
        path = tmp_path / "dk.json"
        save_dks(path, dks)
        docs = [{"variant": dk.variant.value, "source": dk.source_name, "text": dk.text} for dk in dks]
        assert path.read_text() == json.dumps(docs, indent=2)
        assert load_dks(path) == dks
        save_dks(path, dks[1:])
        with pytest.raises(ValidationError, match="^not dk0 then MLFI and MLFI-ord of each of RF, LR, GBT$"):
            load_dks(path)

    def test_none_variant_rejects_payload(self):
        with pytest.raises(ValidationError):
            DomainKnowledge(DkVariant.NONE, "", "leftover text")

    def test_short_ranking_rejected(self):
        entries = tuple((f"f{i}", 1 / 5) for i in range(5))
        short = ImportanceRanking.__new__(ImportanceRanking)
        object.__setattr__(short, "entries", entries)
        object.__setattr__(short, "source", "RF")
        object.__setattr__(short, "degenerate", False)
        with pytest.raises(ValidationError):
            render_dk(short, DkVariant.MLFI)

    def test_missing_tag_rejected_for_top_shape(self):
        with pytest.raises(ValidationError):
            render_dk(make_ranking(RF_ORDER, "KNN"), DkVariant.MLFI)

    def test_order_shape_needs_no_tag(self):
        dk = render_dk(make_ranking(RF_ORDER, "KNN"), DkVariant.MLFI_ORD)
        assert dk.text == GOLDEN_ORD["RF"]

    def test_schema_membership_checked(self):
        bogus = tuple(f"q{i}" for i in range(13))
        with pytest.raises(ValidationError):
            render_dk(make_ranking(bogus, "RF"), DkVariant.MLFI_ORD)

    def test_top_six_and_bottom_two_drawn_from_ranking(self):
        dk = render_dk(make_ranking(LR_ORDER, "LR"), DkVariant.MLFI)
        for name in LR_ORDER[:6]:
            assert name in dk.text
        for name in LR_ORDER[-2:]:
            assert name in dk.text


@given(st.permutations(list(RF_ORDER)))
def test_order_text_contains_every_feature_once(perm):
    dk = render_dk(make_ranking(tuple(perm), "RF"), DkVariant.MLFI_ORD)
    body = dk.text.split("starts with ", 1)[1].rstrip(";")
    listed = body.replace("followed by ", "").replace("then ", "").replace("and finally ", "")
    assert [t.strip() for t in listed.split(",")] == list(perm)
