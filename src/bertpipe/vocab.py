"""Language-balanced wordpiece vocabulary learning and greedy tokenization.

Vocabulary learning follows the subword-text-encoder scheme
(Tensor2Tensor's SubwordTextEncoder): candidate pieces are substrings of
training words scored by count * length, and the vocabulary is the top-k
candidates by that score, as in WordPiece, with k the size left after the
reserved tokens and the character pieces. Every observed character is kept
as both an initial and a continuation piece and is never dropped, so every
training word tokenizes without [UNK].

There is no minimum-count cutoff search. T2T's num_iterations counts
refinement rounds of its learner; read as a cap of four binary-search steps
on the cutoff, it left the cutoff at 1 on every benchmark corpus, and where
it did move the cutoff it could keep a lower-scoring piece over a higher one.

The vocab file format is one piece per line, UTF-8, reserved tokens first;
the line index is the token id. The `pretrain_data` stage consumes this
format bit-exactly.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .corpus import TextUnit

logger = logging.getLogger(__name__)

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
CONTINUATION_PREFIX = "##"

UNK = "[UNK]"

# Explosion guards for candidate generation; characters of longer words are
# still covered by the mandatory single-character pieces.
MAX_PIECE_CHARS = 16
MAX_CANDIDATE_WORD_CHARS = 64

DEFAULT_SIZE_TOLERANCE = 0.02


@dataclass(frozen=True)
class LanguageBudget:
    """Tokens to sample from one language for vocabulary learning."""

    lang: str
    token_budget: int

    def __post_init__(self):
        if self.token_budget <= 0:
            raise ValueError(f"token budget must be positive, got {self.token_budget}")


@dataclass
class WordCounts:
    counts: dict[str, int]
    total_tokens: int


@dataclass
class Vocab:
    """Ordered subword inventory; reserved tokens occupy the first indices."""

    pieces: list[str]
    reserved: list[str] = field(default_factory=lambda: list(RESERVED_TOKENS))
    continuation_prefix: str = CONTINUATION_PREFIX
    target_size: int = 0
    piece_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    # word -> its pieces, filled by tokenize_text; pieces never change after init
    word_pieces: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(set(self.pieces)) != len(self.pieces):
            raise ValueError("vocabulary pieces must be unique")
        if self.pieces[: len(self.reserved)] != self.reserved:
            raise ValueError("reserved tokens must occupy the first indices")
        self.piece_ids = {p: i for i, p in enumerate(self.pieces)}

    def __len__(self) -> int:
        return len(self.pieces)

    def __contains__(self, piece: str) -> bool:
        return piece in self.piece_ids

    @property
    def pad_id(self) -> int:
        return self.piece_ids["[PAD]"]

    @property
    def unk_id(self) -> int:
        return self.piece_ids[UNK]

    @property
    def cls_id(self) -> int:
        return self.piece_ids["[CLS]"]

    @property
    def sep_id(self) -> int:
        return self.piece_ids["[SEP]"]

    @property
    def mask_id(self) -> int:
        return self.piece_ids["[MASK]"]

    def reserved_ids(self) -> set[int]:
        return {self.piece_ids[t] for t in self.reserved}

    def save(self, out: TextIO) -> None:
        """Write the vocab file format to an open text file (see load)."""
        for piece in self.pieces:
            out.write(piece + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        with open(path, "r", encoding="utf-8") as f:
            pieces = [line.rstrip("\n") for line in f]
        if pieces and pieces[-1] == "":
            pieces.pop()
        # Only the known reserved tokens count: a learned piece such as
        # "[1]" may directly follow them.
        reserved = list(itertools.takewhile(lambda p: p in RESERVED_TOKENS, pieces))
        return cls(pieces=pieces, reserved=reserved, target_size=len(pieces))


def sample_subset(
    corpus: Sequence[TextUnit], budget: LanguageBudget, seed: int
) -> list[TextUnit]:
    """Uniform-random units until the cumulative token count reaches the budget.

    Deterministic given the seed; selected units are returned in corpus
    order. A budget at or above the corpus size returns the whole corpus
    (the shortfall is logged).
    """
    if not corpus:
        raise ValueError("empty corpus")
    corpus_tokens = sum(u.token_count() for u in corpus)
    if budget.token_budget >= corpus_tokens:
        if budget.token_budget > corpus_tokens:
            logger.warning(
                "budget for %s exceeds corpus size (%d > %d tokens); taking whole corpus",
                budget.lang,
                budget.token_budget,
                corpus_tokens,
            )
        return list(corpus)
    rng = random.Random(seed)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    picked: list[int] = []
    cum = 0
    for idx in order:
        picked.append(idx)
        cum += corpus[idx].token_count()
        if cum >= budget.token_budget:
            break
    picked.sort()
    return [corpus[i] for i in picked]


def count_words(subsets: Iterable[Iterable[TextUnit]]) -> WordCounts:
    """Merged whitespace-token counts over all per-language subsets."""
    counts: Counter[str] = Counter()
    total = 0
    for subset in subsets:
        for unit in subset:
            tokens = unit.tokens()
            counts.update(tokens)
            total += len(tokens)
    if total == 0:
        raise ValueError("at least one unit required")
    return WordCounts(dict(counts), total)


def _candidate_counts(counts: dict[str, int]) -> tuple[Counter[str], Counter[str]]:
    """Occurrence counts of every substring piece of the training words.

    Returns (initial, continuation), both keyed by the raw slice: a
    continuation slice x is the vocabulary piece "##x".
    """
    initial: Counter[str] = Counter()
    continuation: Counter[str] = Counter()
    cut = len(CONTINUATION_PREFIX)
    for word, count in counts.items():
        length = len(word)
        if length > MAX_CANDIDATE_WORD_CHARS:
            continue
        heads = [word[:j] for j in range(1, min(length, MAX_PIECE_CHARS) + 1)]
        tails = [
            word[i:j]
            for i in range(1, length)
            for j in range(i + 1, min(length, i + MAX_PIECE_CHARS) + 1)
        ]
        if word.startswith(CONTINUATION_PREFIX):
            # Pieces are strings: the word-initial slice "##x" is the
            # continuation piece "##x", so it is counted as one.
            tails += [head[cut:] for head in heads if len(head) >= cut]
            heads = [head for head in heads if len(head) < cut]
        for cand, pieces in ((initial, heads), (continuation, tails)):
            for piece in pieces:
                cand[piece] += count
    return initial, continuation


def learn_wordpieces(
    counts: WordCounts,
    target_size: int,
    size_tolerance: float = DEFAULT_SIZE_TOLERANCE,
) -> Vocab:
    """Learn a wordpiece vocabulary of target_size pieces.

    RESERVED_TOKENS come first. The initial and continuation pieces of
    every training character are mandatory and never dropped, which keeps
    every training word tokenizable. The rest of the budget goes to the
    top-k other substring pieces by count * length, ties broken by the
    piece string. The whole vocabulary is then ordered by the same key. If
    the corpus has fewer candidates than the budget, every candidate is
    kept and the shortfall is logged.
    """
    chars = sorted({ch for word in counts.counts for ch in word})
    floor_size = len(RESERVED_TOKENS) + 2 * len(chars)
    if target_size < floor_size:
        raise ValueError(
            f"target below alphabet size: target {target_size} < "
            f"{len(RESERVED_TOKENS)} reserved + {2 * len(chars)} character pieces"
        )

    initial, continuation = _candidate_counts(counts.counts)
    # A training word may spell a reserved token; it is never a learned piece.
    for token in RESERVED_TOKENS:
        initial.pop(token, None)
    # Single characters are the mandatory pieces.
    optional = (
        (-count * len(raw), prefix + raw)
        for cand, prefix in ((initial, ""), (continuation, CONTINUATION_PREFIX))
        for raw, count in cand.items()
        if len(raw) != 1
    )
    kept = heapq.nsmallest(target_size - floor_size, optional)
    mandatory = [(-initial[c], c) for c in chars]
    mandatory += [(-continuation[c], CONTINUATION_PREFIX + c) for c in chars]
    pieces = RESERVED_TOKENS + [piece for _, piece in sorted(mandatory + kept)]

    achieved = len(pieces)
    if abs(achieved - target_size) > size_tolerance * target_size:
        logger.warning(
            "vocabulary size %d misses target %d beyond tolerance %.1f%% "
            "(corpus too small for the target)",
            achieved,
            target_size,
            100 * size_tolerance,
        )
    return Vocab(pieces=pieces, target_size=target_size)


def tokenize(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first wordpiece split of a single word.

    Non-initial matches carry the continuation prefix. Reserved tokens never
    match, so a word spelled "[SEP]" splits into ordinary pieces. A position
    with no matching piece maps the whole word to [UNK].
    """
    if not word:
        raise ValueError("empty word")
    prefix = vocab.continuation_prefix
    ids = vocab.piece_ids
    reserved = vocab.reserved
    pieces: list[str] = []
    start = 0
    length = len(word)
    while start < length:
        end = length
        match = None
        while end > start:
            piece = word[start:end] if start == 0 else prefix + word[start:end]
            if piece in ids and piece not in reserved:
                match = piece
                break
            end -= 1
        if match is None:
            return [UNK]
        pieces.append(match)
        start = end
    return pieces


def tokenize_text(text: str, vocab: Vocab) -> list[str]:
    """Tokenize whitespace-separated text into wordpieces.

    Each distinct word is split once per Vocab and remembered in
    vocab.word_pieces.
    """
    memo = vocab.word_pieces
    out: list[str] = []
    for word in text.split():
        pieces = memo.get(word)
        if pieces is None:
            pieces = memo[word] = tuple(tokenize(word, vocab))
        out.extend(pieces)
    return out
