"""NER file parsing, tag-set harmonization, and scoring.

Datasets with heterogeneous tag inventories are reduced to the four labels
they share: PER, LOC, ORG, and O. A tag's "B-"/"I-" prefix is kept through
the mapping and only its class is mapped. Scores are per-class precision,
recall, and F1, macro-averaged over the three entity classes (O is
excluded). By default they count tokens by class, so a prefix never
matters; with span_level they count entity chunks as conlleval (CoNLL-2003)
builds them, and a chunk is correct only when its class and both of its
boundaries match.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .report import EvalReport

ENTITY_LABELS = ("PER", "LOC", "ORG")
FOUR_LABELS = (*ENTITY_LABELS, "O")


def _split(tag: str) -> tuple[str, str]:
    """A tag's BIO prefix ("B-", "I-" or "") and its class."""
    if tag[:2] in ("B-", "I-"):
        return tag[:2], tag[2:]
    return "", tag


@dataclass(frozen=True)
class NerSentence:
    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabelMap:
    """Mapping from a dataset's entity classes onto {PER, LOC, ORG, O}.

    Keys are bare classes, so a map over classes covers the whole BIO
    inventory: B-PER resolves to B-PER when PER maps to PER, and B-MISC to
    O when MISC maps to O.
    """

    map: dict[str, str]

    def __post_init__(self):
        for raw, harmonized in self.map.items():
            if _split(raw)[0]:
                raise ValueError(
                    f"label map key {raw!r} carries a B-/I- prefix; keys are bare classes"
                )
            if harmonized not in FOUR_LABELS:
                raise ValueError(
                    f"label map sends {raw!r} to {harmonized!r}, not in {sorted(FOUR_LABELS)}"
                )

    def resolve(self, tag: str) -> str:
        prefix, cls = _split(tag)
        try:
            label = self.map[cls]
        except KeyError:
            raise ValueError(f"unmapped tag {tag!r}") from None
        return label if label == "O" else prefix + label

    @classmethod
    def identity(cls) -> "LabelMap":
        return cls({label: label for label in FOUR_LABELS})

    @classmethod
    def load(cls, path: str) -> "LabelMap":
        """Read a JSON file {"map": {"<class>": "PER|LOC|ORG|O", ...}}."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
            if not isinstance(data, dict) or not isinstance(data.get("map"), dict):
                raise ValueError('expected {"map": {"<class>": "PER|LOC|ORG|O", ...}}')
            for key in data:
                if key != "map":
                    raise ValueError(f"unknown key {key!r}")
            return cls(data["map"])
        # RecursionError: nested too deeply
        except (ValueError, RecursionError) as e:
            raise ValueError(f"label map {path}: {e}") from None


def parse_ner(path: str) -> list[NerSentence]:
    """CoNLL-style TSV: one "FORM<TAB>TAG" per line, blank line between sentences."""
    sentences: list[NerSentence] = []
    tokens: list[str] = []
    labels: list[str] = []
    with open(path, "r", encoding="utf-8", newline=None) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                if tokens:
                    sentences.append(NerSentence(tuple(tokens), tuple(labels)))
                    tokens, labels = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(
                    f"{path}:{lineno}: expected FORM<TAB>TAG, got {line!r}"
                )
            tokens.append(parts[0])
            labels.append(parts[1])
    if tokens:
        sentences.append(NerSentence(tuple(tokens), tuple(labels)))
    return sentences


def harmonize(sentences: Iterable[NerSentence], label_map: LabelMap) -> list[NerSentence]:
    """Map every tag's class onto the four-label set, keeping its B-/I- prefix;
    unmapped classes are an error."""
    return [
        NerSentence(s.tokens, tuple(label_map.resolve(t) for t in s.labels))
        for s in sentences
    ]


def _check_aligned(gold: Sequence[NerSentence], pred: Sequence[NerSentence]) -> None:
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} sentences but pred has {len(pred)}"
        )
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ValueError(
                f"alignment mismatch at sentence {i}: {len(g)} gold tokens vs {len(p)} predicted"
            )


def _prf(correct: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    # zero-support denominators score 0 so the macro always averages three classes
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f1


def _spans(labels: Sequence[str]) -> set[tuple[int, int, str]]:
    """Entity chunks as conlleval builds them, as (start, end, class) with end exclusive.

    A chunk starts at a B- tag and wherever the class changes; an I- or bare
    tag continues the chunk of its class, so after O it starts one.
    """
    spans = set()
    start, current = 0, "O"
    for i, tag in enumerate([*labels, "O"]):
        prefix, cls = _split(tag)
        if prefix == "B-" or cls != current:
            if current != "O":
                spans.add((start, i, current))
            start, current = i, cls
    return spans


def ner_scores(
    gold: Sequence[NerSentence],
    pred: Sequence[NerSentence],
    train_lang: str = "",
    test_lang: str = "",
    model_name: str = "",
    span_level: bool = False,
) -> EvalReport:
    """Per-class P/R/F1 for PER, LOC, ORG plus their unweighted macro F1.

    Items are (position, class) pairs of tokens, or with span_level the
    conlleval chunks of _spans; an item is correct when gold and pred share it.
    """
    _check_aligned(gold, pred)
    correct, n_gold, n_pred = Counter(), Counter(), Counter()
    for g, p in zip(gold, pred):
        if span_level:
            gold_items, pred_items = _spans(g.labels), _spans(p.labels)
        else:
            gold_items = {(i, _split(t)[1]) for i, t in enumerate(g.labels)}
            pred_items = {(i, _split(t)[1]) for i, t in enumerate(p.labels)}
        correct.update(item[-1] for item in gold_items & pred_items)
        n_gold.update(item[-1] for item in gold_items)
        n_pred.update(item[-1] for item in pred_items)
    metrics: dict[str, float] = {}
    f1s = []
    for label in ENTITY_LABELS:
        precision, recall, f1 = _prf(correct[label], n_pred[label], n_gold[label])
        key = label.lower()
        metrics[f"precision_{key}"] = precision
        metrics[f"recall_{key}"] = recall
        metrics[f"f1_{key}"] = f1
        f1s.append(f1)
    metrics["macro_f1"] = sum(f1s) / len(f1s)
    return EvalReport(
        task="NER",
        train_lang=train_lang,
        test_lang=test_lang,
        model_name=model_name,
        metrics=metrics,
    )
