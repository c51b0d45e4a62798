"""CoNLL-U parsing and POS/dependency scoring (UPOS accuracy, UAS, LAS).

Multiword-token ranges ("1-2") and empty nodes ("1.1") are excluded at
parse time; exactly the integer-id word lines are scorable. Prediction and
gold share the gold tokenization, so words align one to one, and the scores
are those of the CoNLL 2018 shared task's evaluation script on that
tokenization: punctuation is not excluded, and LAS compares only the
universal part of DEPREL, the part before any ":" subtype (nmod:poss and
nmod match). The scorers return the metrics; the caller labels them with
the task, languages and model as an EvalReport.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .report import check_aligned

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_ID = re.compile(r"^\d+\.\d+$")

N_FIELDS = 10
ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC = range(N_FIELDS)


@dataclass(frozen=True)
class UdToken:
    id: int
    upos: str
    head: int | None
    deprel: str


def parse_conllu(path: str, allow_missing_heads: bool = False) -> list[list[UdToken]]:
    """Sentences of scorable words from a CoNLL-U file.

    Gold files must carry integer heads; prediction files from POS-only
    models may pass allow_missing_heads to accept '_' heads.
    """
    sentences: list[list[UdToken]] = []
    current: list[UdToken] = []

    def close(lineno: int) -> None:
        if not current:
            return
        for tok in current:
            if tok.head is not None and not 0 <= tok.head <= len(current):
                raise ValueError(
                    f"{path}: (sentence ending before line {lineno}) "
                    f"HEAD {tok.head} of word {tok.id} out of range [0, {len(current)}]"
                )
        sentences.append(list(current))
        current.clear()

    with open(path, "r", encoding="utf-8", newline=None) as f:
        lineno = 0
        try:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line.strip():
                    close(lineno)
                    continue
                if line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != N_FIELDS:
                    raise ValueError(
                        f"{path}:{lineno}: expected {N_FIELDS} tab-separated fields, got {len(fields)}"
                    )
                word_id = fields[ID]
                if _RANGE_ID.match(word_id) or _EMPTY_ID.match(word_id):
                    continue
                if not word_id.isdigit() or int(word_id) < 1:
                    raise ValueError(f"{path}:{lineno}: invalid word id {word_id!r}")
                wid = int(word_id)
                if wid != len(current) + 1:
                    raise ValueError(
                        f"{path}:{lineno}: non-sequential word id {wid} (expected {len(current) + 1})"
                    )
                raw_head = fields[HEAD]
                head: int | None
                if raw_head == "_":
                    if not allow_missing_heads:
                        raise ValueError(f"{path}:{lineno}: missing HEAD for word {wid}")
                    head = None
                else:
                    try:
                        head = int(raw_head)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}: non-integer HEAD {raw_head!r}"
                        ) from None
                    if head < 0:
                        raise ValueError(f"{path}:{lineno}: negative HEAD {head}")
                current.append(UdToken(id=wid, upos=fields[UPOS], head=head, deprel=fields[DEPREL]))
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
        close(lineno + 1)
    return sentences


def upos_accuracy(gold: Sequence[list[UdToken]], pred: Sequence[list[UdToken]]) -> dict[str, float]:
    """{"upos_acc": share of words whose UPOS matches gold}."""
    check_aligned(gold, pred, "words")
    correct = total = 0
    for g, p in zip(gold, pred):
        for gt, pt in zip(g, p):
            if gt.upos == pt.upos:
                correct += 1
            total += 1
    return {"upos_acc": correct / total if total else 0.0}


def attachment_scores(gold: Sequence[list[UdToken]], pred: Sequence[list[UdToken]]) -> dict[str, float]:
    """{"uas": share of words with the gold head, "las": share with the gold
    head and universal deprel}, over all words."""
    check_aligned(gold, pred, "words")

    def rel(token: UdToken) -> str:
        return token.deprel.split(":", 1)[0]

    head_correct = label_correct = total = 0
    for i, (g, p) in enumerate(zip(gold, pred)):
        for gt, pt in zip(g, p):
            if pt.head is None or not pt.deprel or pt.deprel == "_":
                raise ValueError(
                    f"predicted word {pt.id} in sentence {i} lacks a head or deprel"
                )
            if gt.head is None:
                raise ValueError(f"gold word {gt.id} in sentence {i} lacks a head")
            if gt.head == pt.head:
                head_correct += 1
                if rel(gt) == rel(pt):
                    label_correct += 1
            total += 1
    return {
        "uas": head_correct / total if total else 0.0,
        "las": label_correct / total if total else 0.0,
    }
