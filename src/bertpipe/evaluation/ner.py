"""NER file parsing, tag-set harmonization, and scoring.

A sentence is the tuple of its tags; its FORMs are not kept. Datasets with
heterogeneous tag inventories are reduced to the four labels they share:
PER, LOC, ORG, and O. A tag's "B-"/"I-" prefix is kept through
the mapping and only its class is mapped. Scores are per-class precision,
recall, and F1, macro-averaged over the three entity classes (O is
excluded). By default they count tokens by class, so a prefix never
matters; with span_level they count entity chunks as conlleval (CoNLL-2003)
builds them, and a chunk is correct only when its class and both of its
boundaries match. ner_scores returns the metrics; the caller labels them
with the task, languages and model as an EvalReport.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .. import jsonfile
from .report import check_aligned

ENTITY_LABELS = ("PER", "LOC", "ORG")
FOUR_LABELS = (*ENTITY_LABELS, "O")


def _split(tag: str) -> tuple[str, str]:
    """A tag's BIO prefix ("B-", "I-" or "") and its class."""
    if tag[:2] in ("B-", "I-"):
        return tag[:2], tag[2:]
    return "", tag


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
                return jsonfile.read_as(cls, jsonfile.load(f))
        # RecursionError: nested too deeply
        except (ValueError, RecursionError) as e:
            raise ValueError(f"label map {path}: {e}") from None


def parse_ner(path: str) -> list[tuple[str, ...]]:
    """The tag tuple of each sentence of a CoNLL-style TSV: one "FORM<TAB>TAG"
    per line, both non-empty, and a blank line between sentences."""
    sentences: list[tuple[str, ...]] = []
    tags: list[str] = []
    with open(path, "r", encoding="utf-8", newline=None) as f:
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    if tags:
                        sentences.append(tuple(tags))
                        tags = []
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ValueError(f"{path}:{lineno}: expected FORM<TAB>TAG, got {line!r}")
                tags.append(parts[1])
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if tags:
        sentences.append(tuple(tags))
    return sentences


def harmonize(sentences: Iterable[Sequence[str]], label_map: LabelMap) -> list[tuple[str, ...]]:
    """Map every tag's class onto the four-label set, keeping its B-/I- prefix;
    unmapped classes are an error."""
    return [tuple(label_map.resolve(t) for t in s) for s in sentences]


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
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]], span_level: bool = False
) -> dict[str, float]:
    """Per-class P/R/F1 for PER, LOC, ORG plus their unweighted macro F1, by
    metric name, over sentences given as tag sequences.

    Items are (position, class) pairs of tokens, or with span_level the
    conlleval chunks of _spans; an item is correct when gold and pred share it.
    """
    check_aligned(gold, pred, "tokens")
    correct, n_gold, n_pred = Counter(), Counter(), Counter()
    for g, p in zip(gold, pred):
        if span_level:
            gold_items, pred_items = _spans(g), _spans(p)
        else:
            gold_items = {(i, _split(t)[1]) for i, t in enumerate(g)}
            pred_items = {(i, _split(t)[1]) for i, t in enumerate(p)}
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
    return metrics
