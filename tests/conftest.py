"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's own data structures:
dedup works on explicit n-gram string tuples, tokenization recurses over
raw substrings, the instance oracle finds each segment in the tokenized
documents, and the metric oracles walk plain lists. They are the reference
implementations the library is checked against.
"""

from __future__ import annotations

import math
import random
import unicodedata
from collections import defaultdict

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

RESERVED = {"[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"}


def oracle_tokenize(word: str, pieces: set[str]) -> list[str]:
    """Longest-match-first segmentation by raw substring probing. A reserved
    token never matches, and each match moves on by the characters of the
    word it covers, so a word spelled "##ab" can be the one piece "##ab"."""
    out: list[str] = []
    start = 0
    while start < len(word):
        for end in range(len(word), start, -1):
            candidate = word[start:end] if start == 0 else "##" + word[start:end]
            if candidate in pieces and candidate not in RESERVED:
                out.append(candidate)
                start = end
                break
        else:
            return ["[UNK]"]
    return out


# ------------------------------------------------------------- instance oracle

def oracle_check_instances(instances, documents, pieces, seq_len, mask_prob):
    """Check MLM/NSP instances against the documents they were built from.

    documents are lists of sentence strings and pieces is the vocabulary in
    id order. Each instance's labels are put back at its masked positions,
    and the result must be [CLS] A [SEP] B [SEP] and then padding. A runs
    from a sentence start of one document; B continues A in that document
    when is_next, and otherwise runs from a sentence start of any document.
    A and B end at a sentence end, except in a full-length instance, where
    either may be cut short at its end. Masking takes whole words, never a
    special or padding position, replaces a piece with [MASK], the piece
    itself or a non-reserved id, and fills greedily: at most
    floor(mask_prob * (content - 3)) pieces, and fewer only when every
    unmasked word is longer than the pieces left to fill.
    """
    ids = {piece: i for i, piece in enumerate(pieces)}
    pad, cls, sep, mask = (ids[t] for t in ("[PAD]", "[CLS]", "[SEP]", "[MASK]"))
    reserved = {pad, cls, sep, mask, ids["[UNK]"]}
    matchable = {p for p in pieces if ids[p] not in reserved}

    # per document, its pieces as one list; sentence bounds as (document,
    # offset) pairs, each sentence's start and the document's end among them
    flat, bounds = [], set()
    for doc in documents:
        sentences = [[ids[p] for w in s.split() for p in oracle_tokenize(w, matchable)] for s in doc]
        sentences = [s for s in sentences if s]
        if sentences:
            flat.append([t for s in sentences for t in s])
            bounds.update((len(flat) - 1, sum(map(len, sentences[:k]))) for k in range(len(sentences) + 1))
    starts = [(d, o) for d, o in sorted(bounds) if o < len(flat[d])]
    # sentence starts by their first three pieces, so that a large corpus is
    # not scanned once per segment
    index = defaultdict(list)
    for d, o in starts:
        index[tuple(flat[d][o : o + 3])].append((d, o))

    def runs_of(segment, full):
        """The (document, offset) pairs where segment starts a run of sentences
        that it covers to a sentence end, or, if full, only starts."""
        candidates = starts if len(segment) < 3 else index.get(tuple(segment[:3]), [])
        return [
            (d, o) for d, o in candidates
            if flat[d][o : o + len(segment)] == segment and (full or (d, o + len(segment)) in bounds)
        ]

    for inst in instances:
        tokens = list(inst.token_ids)
        for pos, label in zip(inst.masked_positions, inst.masked_labels):
            tokens[pos] = label
        n = sum(inst.input_mask)
        sep_a = tokens.index(sep)
        a, b = tokens[1:sep_a], tokens[sep_a + 1 : n - 1]
        assert len(tokens) == seq_len and list(inst.input_mask) == [1] * n + [0] * (seq_len - n)
        assert tokens[0] == cls and tokens[n - 1] == sep and a and b
        assert tokens[n:] == [pad] * (seq_len - n)
        assert list(inst.segment_ids) == [0] * (sep_a + 1) + [1] * (n - sep_a - 1) + [0] * (seq_len - n)

        full = n == seq_len
        a_runs, b_runs = runs_of(a, full), runs_of(b, full)
        assert a_runs, "A is not a run of sentences of one document"
        assert b_runs, "B is not a run of sentences of one document"
        if inst.is_next:
            assert any(
                db == d and (ob >= o + len(a) if full else ob == o + len(a))
                for d, o in a_runs for db, ob in b_runs
            ), "B does not continue A"

        masked = set(inst.masked_positions)
        for pos, label in zip(inst.masked_positions, inst.masked_labels):
            shown = inst.token_ids[pos]
            assert shown in (mask, label) or shown not in reserved, f"position {pos} shows reserved id {shown}"
        words = []
        for pos in [*range(1, sep_a), *range(sep_a + 1, n - 1)]:
            if pos in (1, sep_a + 1) or not pieces[tokens[pos]].startswith("##"):
                words.append([])
            words[-1].append(pos)
        assert masked <= {pos for word in words for pos in word}, "a special or padding position is masked"
        assert all(masked.issuperset(w) or masked.isdisjoint(w) for w in words), "a word is masked in part"
        target = math.floor(mask_prob * (n - 3))
        assert len(masked) <= target, f"{len(masked)} pieces masked, more than {target}"
        left = target - len(masked)
        assert all(len(w) > left for w in words if masked.isdisjoint(w)), (
            f"{len(masked)} of {target} pieces masked, but an unmasked word fits in the {left} left"
        )


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
    """UAS and LAS, LAS on the universal deprel as the CoNLL 2018 scorer has it."""
    uas = sum(1 for (gh, _), (ph, _) in zip(gold, pred) if gh == ph) / len(gold)
    las = (
        sum(
            1 for (gh, gr), (ph, pr) in zip(gold, pred)
            if gh == ph and gr.partition(":")[0] == pr.partition(":")[0]
        )
        / len(gold)
    )
    return uas, las


def oracle_chunks(tags: list[str]) -> set[tuple[int, int, str]]:
    """Chunks (start, end exclusive, type) by conlleval's startOfChunk and
    endOfChunk rules for the B, I and O tags; a bare tag X is read as I-X."""

    def split(tag):
        if tag == "O":
            return "O", ""
        if tag[:2] in ("B-", "I-"):
            return tag[0], tag[2:]
        return "I", tag

    chunks = set()
    start = None
    prev_tag, prev_type = "O", ""
    for i, (tag, type_) in enumerate([split(t) for t in tags] + [("O", "")]):
        end = (
            (prev_tag in ("B", "I") and tag in ("B", "O"))
            or (prev_tag != "O" and prev_type != type_)
        )
        begin = (
            (prev_tag in ("B", "I", "O") and tag == "B")
            or (prev_tag == "O" and tag == "I")
            or (tag != "O" and prev_type != type_)
        )
        if end and start is not None:
            chunks.add((start, i, prev_type))
            start = None
        if begin:
            start = i
        prev_tag, prev_type = tag, type_
    return chunks


def oracle_chunk_prf(gold: list[list[str]], pred: list[list[str]], type_: str) -> tuple[float, float, float]:
    """conlleval's precision, recall and F1 of one chunk type over sentences."""
    correct = n_gold = n_pred = 0
    for g, p in zip(gold, pred):
        gold_chunks = {c for c in oracle_chunks(g) if c[2] == type_}
        pred_chunks = {c for c in oracle_chunks(p) if c[2] == type_}
        correct += len(gold_chunks & pred_chunks)
        n_gold += len(gold_chunks)
        n_pred += len(pred_chunks)
    precision = correct / n_pred if n_pred else 0.0
    recall = correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1
