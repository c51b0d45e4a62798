"""NER file parsing, tag-set harmonization, and token-level scoring.

Datasets with heterogeneous tag inventories are reduced to the four labels
they share: PER, LOC, ORG, and O. Scores are per-class precision, recall,
and F1 over tokens, macro-averaged over the three entity classes (O is
excluded); span-level scoring is available behind a flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .report import EvalReport

ENTITY_LABELS = ("PER", "LOC", "ORG")
FOUR_LABELS = frozenset(ENTITY_LABELS) | {"O"}

BIO_HANDLINGS = ("strip_prefix", "passthrough")


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
    """Mapping from a dataset's raw tags onto {PER, LOC, ORG, O}.

    With strip_prefix, BIO markers ("B-", "I-") are removed before lookup,
    so a map over bare classes covers the whole BIO inventory.
    """

    map: dict[str, str]
    bio_handling: str = "strip_prefix"

    def __post_init__(self):
        if self.bio_handling not in BIO_HANDLINGS:
            raise ValueError(
                f"bio_handling must be one of {BIO_HANDLINGS}, got {self.bio_handling!r}"
            )
        for raw, harmonized in self.map.items():
            if harmonized not in FOUR_LABELS:
                raise ValueError(
                    f"label map sends {raw!r} to {harmonized!r}, not in {sorted(FOUR_LABELS)}"
                )

    def resolve(self, tag: str) -> str:
        if self.bio_handling == "strip_prefix" and (
            tag.startswith("B-") or tag.startswith("I-")
        ):
            tag = tag[2:]
        try:
            return self.map[tag]
        except KeyError:
            raise ValueError(f"unmapped tag {tag!r}") from None

    @classmethod
    def identity(cls) -> "LabelMap":
        return cls({label: label for label in FOUR_LABELS})

    @classmethod
    def load(cls, path: str) -> "LabelMap":
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        return cls(dict(data["map"]), data.get("bio_handling", "strip_prefix"))


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
    """Map every raw tag onto the four-label set; unmapped tags are an error."""
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
    """Maximal runs of one entity label, as (start, end, label) with end exclusive."""
    spans = set()
    start = None
    current = "O"
    for i, label in enumerate(labels):
        if label != current:
            if current != "O":
                spans.add((start, i, current))
            start = i
            current = label
    if current != "O":
        spans.add((start, len(labels), current))
    return spans


def ner_scores(
    gold: Sequence[NerSentence],
    pred: Sequence[NerSentence],
    train_lang: str = "",
    test_lang: str = "",
    model_name: str = "",
    span_level: bool = False,
) -> EvalReport:
    """Per-class P/R/F1 for PER, LOC, ORG plus their unweighted macro F1."""
    _check_aligned(gold, pred)
    metrics: dict[str, float] = {}
    f1s = []
    for label in ENTITY_LABELS:
        correct = n_gold = n_pred = 0
        if span_level:
            for g, p in zip(gold, pred):
                gold_spans = {s for s in _spans(g.labels) if s[2] == label}
                pred_spans = {s for s in _spans(p.labels) if s[2] == label}
                correct += len(gold_spans & pred_spans)
                n_gold += len(gold_spans)
                n_pred += len(pred_spans)
        else:
            for g, p in zip(gold, pred):
                for gt, pt in zip(g.labels, p.labels):
                    if gt == label and pt == label:
                        correct += 1
                    if gt == label:
                        n_gold += 1
                    if pt == label:
                        n_pred += 1
        precision, recall, f1 = _prf(correct, n_pred, n_gold)
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
