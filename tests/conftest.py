"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's own data structures:
dedup works on explicit n-gram string tuples, tokenization recurses over
raw substrings, and the metric oracles walk plain lists. They are the
reference implementations the library is checked against.
"""

from __future__ import annotations

import random
import unicodedata

from bertpipe.corpus import TextUnit


# ---------------------------------------------------------------- dedup oracle

def oracle_shingles(text: str, n: int) -> list[tuple[str, ...]]:
    tokens = unicodedata.normalize("NFC", text).split()
    if len(tokens) < n:
        return [tuple(tokens)]
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_dedup(texts: list[str], n: int, threshold: float) -> list[str]:
    """Texts kept by a literal re-statement of the greedy first-wins rule."""
    seen: set[tuple[str, ...]] = set()
    kept: list[str] = []
    for text in texts:
        grams = oracle_shingles(text, n)
        if seen:
            fraction = sum(1 for g in grams if g in seen) / len(grams)
            if fraction >= threshold:
                continue
        kept.append(text)
        seen.update(grams)
    return kept


def make_dedup_corpus(rng: random.Random, size: int, lang: str = "xx") -> list[TextUnit]:
    """Random corpus with injected exact and 90%-overlap near-duplicates."""
    vocab = [f"w{i}" for i in range(60)]
    units: list[str] = []
    while len(units) < size:
        roll = rng.random()
        if units and roll < 0.25:
            units.append(rng.choice(units))  # exact duplicate
        elif units and roll < 0.5:
            source = rng.choice(units).split()
            if len(source) >= 18:
                edited = list(source)
                # changing the very last token leaves exactly one 9-gram new
                pos = len(edited) - 1 if rng.random() < 0.5 else rng.randrange(len(edited))
                edited[pos] = rng.choice(vocab)
                units.append(" ".join(edited))
            else:
                units.append(" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 25))))
        else:
            units.append(" ".join(rng.choice(vocab) for _ in range(rng.randint(3, 25))))
    return [TextUnit(lang, text) for text in units]


# ------------------------------------------------------------ tokenizer oracle

def oracle_tokenize(word: str, pieces: set[str]) -> list[str]:
    """Longest-match-first segmentation by raw substring probing."""
    out: list[str] = []
    start = 0
    while start < len(word):
        matched = None
        for end in range(len(word), start, -1):
            candidate = word[start:end] if start == 0 else "##" + word[start:end]
            if candidate in pieces:
                matched = candidate
                break
        if matched is None:
            return ["[UNK]"]
        out.append(matched)
        start += len(matched) - 2 if matched.startswith("##") else len(matched)
    return out


# --------------------------------------------------------------- metric oracles

def oracle_prf(gold: list[str], pred: list[str], label: str) -> tuple[float, float, float]:
    tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
    n_pred = sum(1 for p in pred if p == label)
    n_gold = sum(1 for g in gold if g == label)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def oracle_macro_f1(gold: list[str], pred: list[str]) -> float:
    f1s = [oracle_prf(gold, pred, label)[2] for label in ("PER", "LOC", "ORG")]
    return sum(f1s) / 3.0


def oracle_accuracy(gold: list[str], pred: list[str]) -> float:
    return sum(1 for g, p in zip(gold, pred) if g == p) / len(gold)


def oracle_attachment(
    gold: list[tuple[int, str]], pred: list[tuple[int, str]]
) -> tuple[float, float]:
    uas = sum(1 for (gh, _), (ph, _) in zip(gold, pred) if gh == ph) / len(gold)
    las = (
        sum(1 for (gh, gr), (ph, pr) in zip(gold, pred) if gh == ph and gr == pr)
        / len(gold)
    )
    return uas, las
