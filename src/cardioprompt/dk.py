"""Turn a feature-importance ranking into domain-knowledge prompt text.

Two text shapes exist. The "top features" shape names the most and least
important features; the "feature order" shape walks the full ranking. The
variant with no knowledge renders empty text and the prompt builder drops the
section entirely.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

from .atomic import write_atomic
from .errors import ValidationError
from .schema import FEATURE_NAMES

# The families whose rankings explain the prompts, in DK order, with the
# display tag of each: a lowercase class-style name. The others (MLP, KNN,
# ADA) get no importance ranking.
SOURCE_TAGS = {
    "RF": "randomforestclassifier",
    "LR": "logisticregression",
    "GBT": "xgbclassifier",
}

# The top-features text names this many most and least important features.
N_TOP = 6
N_BOTTOM = 2


class DkVariant(enum.Enum):
    NONE = "NO"
    MLFI = "MLFI"
    MLFI_ORD = "MLFI-ord"


# The texts the prompt grid runs with, as (variant, family): dk0, then MLFI
# and MLFI-ord of each SOURCE_TAGS family.
DK_GRID = ((DkVariant.NONE, None), *((v, f) for f in SOURCE_TAGS for v in (DkVariant.MLFI, DkVariant.MLFI_ORD)))


@dataclass(frozen=True)
class DomainKnowledge:
    variant: DkVariant
    source_name: str  # empty for NONE
    text: str  # empty for NONE

    def __post_init__(self):
        if self.variant is DkVariant.NONE and (self.text or self.source_name):
            raise ValidationError("no-knowledge variant carries no text or source")


def save_dks(path: Path, dks: list[DomainKnowledge]) -> None:
    """Write the texts of DK_GRID, in its order, to dk.json."""
    docs = [{"variant": dk.variant.value, "source": dk.source_name, "text": dk.text} for dk in dks]
    write_atomic(path, json.dumps(docs, indent=2))


def load_dks(path: Path) -> list[DomainKnowledge]:
    """The texts that save_dks wrote to dk.json, those of DK_GRID in its order."""
    dks = [
        DomainKnowledge(variant=DkVariant(doc["variant"]), source_name=doc["source"], text=doc["text"])
        for doc in json.loads(path.read_text())
    ]
    if [(dk.variant, dk.source_name) for dk in dks] != [(v, SOURCE_TAGS.get(f, "")) for v, f in DK_GRID]:
        raise ValidationError(f"not dk0 then MLFI and MLFI-ord of each of {', '.join(SOURCE_TAGS)}")
    return dks


def _ranked_names(ranking) -> list[str]:
    """Feature names of an ImportanceRanking in descending-importance order;
    each schema feature must appear exactly once."""
    names = [name for name, _ in ranking.entries]
    if sorted(names) != sorted(FEATURE_NAMES):
        raise ValidationError(f"ranking must name each schema feature once, got {names}")
    return names


def render_dk(ranking, variant: DkVariant) -> DomainKnowledge:
    """Render one domain-knowledge paragraph from a ranking.

    The source tag is the display tag of ranking.source; the top-features text
    names the N_TOP most and N_BOTTOM least important features.
    """
    if variant is DkVariant.NONE:
        return DomainKnowledge(DkVariant.NONE, "", "")

    names = _ranked_names(ranking)
    source_tag = SOURCE_TAGS.get(ranking.source, "")

    if variant is DkVariant.MLFI:
        if not source_tag:
            raise ValidationError("top-features text needs a source tag")
        top = names[:N_TOP]
        bottom = names[-N_BOTTOM:]
        text = (
            f"According to a {source_tag} classifier, the most important features "
            f"in assessing heart disease risk include {', '.join(top[:-1])}, and {top[-1]}. "
            f"Features like {' and '.join(bottom)} have relatively lower importance;"
        )
        return DomainKnowledge(variant, source_tag, text)

    # MLFI_ORD: first two features get connective phrases, the rest run as a
    # comma list down to "and finally" the last.
    text = (
        "The order of features is critically important when evaluating heart "
        f"disease risk. The sequence of features according to their importance "
        f"starts with {names[0]}, followed by {names[1]}, then {', '.join(names[2:-1])}, "
        f"and finally {names[-1]};"
    )
    return DomainKnowledge(variant, source_tag, text)
