"""Language-balanced wordpiece vocabulary learning and greedy tokenization.

Vocabulary learning follows the subword-text-encoder scheme
(Tensor2Tensor's SubwordTextEncoder): candidate pieces are substrings of
training words scored by count * length, and the vocabulary is the top-k
candidates by that score, as in WordPiece, with k the size left after the
reserved tokens and the character pieces. Every observed character is kept
as both an initial and a continuation piece and is never dropped, so every
training word tokenizes without [UNK].

Candidates are counted by window, not by slice, in one table per piece
length. A piece is at most MAX_PIECE_CHARS long, so every piece that starts
at a position of a word is a prefix of the window of MAX_PIECE_CHARS
characters there, or of the rest of the word where that is shorter. Each
word adds its count once per window, to the table of the window's length,
and a prefix closure then walks the tables from the longest down, adding
each key's total to its prefix one character shorter in the next table.

The top-k is chosen by a score cutoff. Every key of a table has the table's
length, so the table's scores are its counts times that length, and their
histogram over the tables of length 2 and up, which leave out exactly the
single characters, gives the k-th best score without a per-candidate list.
Only the candidates at or above it, the counts of length L that reach the
cutoff over L, become (-score, piece) pairs, which are sorted and cut to k.
Ties at the cutoff are broken by the piece string, as everywhere in the
ordering, so a "##" piece comes before an initial piece of the same score.

There is no minimum-count cutoff search. T2T's num_iterations counts
refinement rounds of its learner; read as a cap of four binary-search steps
on the cutoff, it left the cutoff at 1 on every benchmark corpus, and where
it did move the cutoff it could keep a lower-scoring piece over a higher one.

The vocab file format is one piece per line, UTF-8, reserved tokens first;
the line index is the token id. The `pretrain_data` stage consumes this
format bit-exactly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from .corpus import TextUnit

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
CONTINUATION_PREFIX = "##"

UNK = "[UNK]"

# Explosion guards for candidate generation; characters of longer words are
# still covered by the mandatory single-character pieces.
MAX_PIECE_CHARS = 16
MAX_CANDIDATE_WORD_CHARS = 64


@dataclass
class WordCounts:
    counts: dict[str, int]


@dataclass
class Vocab:
    """Ordered subword inventory; reserved tokens occupy the first indices."""

    pieces: list[str]
    reserved: list[str] = field(default_factory=lambda: list(RESERVED_TOKENS))
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

    @property
    def pad_id(self) -> int:
        return self.piece_ids["[PAD]"]

    @property
    def cls_id(self) -> int:
        return self.piece_ids["[CLS]"]

    @property
    def sep_id(self) -> int:
        return self.piece_ids["[SEP]"]

    @property
    def mask_id(self) -> int:
        return self.piece_ids["[MASK]"]

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
        return cls(pieces=pieces, reserved=reserved)


def sample_subset(
    corpus: Sequence[TextUnit], token_budget: int, seed: int
) -> tuple[list[TextUnit], int]:
    """Uniform-random units until the cumulative token count reaches the budget.

    Returns the units and their whitespace-token count. Deterministic given
    the seed; selected units are returned in corpus order. A budget at or
    above the corpus size returns the whole corpus.
    """
    if token_budget <= 0:
        raise ValueError(f"token budget must be positive, got {token_budget}")
    if not corpus:
        raise ValueError("empty corpus")
    lengths = [len(u.tokens()) for u in corpus]
    corpus_tokens = sum(lengths)
    if token_budget >= corpus_tokens:
        return list(corpus), corpus_tokens
    rng = random.Random(seed)
    order = list(range(len(corpus)))
    rng.shuffle(order)
    picked: list[int] = []
    cum = 0
    for idx in order:
        picked.append(idx)
        cum += lengths[idx]
        if cum >= token_budget:
            break
    picked.sort()
    return [corpus[i] for i in picked], cum


def count_words(subsets: Iterable[Iterable[TextUnit]]) -> WordCounts:
    """Merged whitespace-token counts over all per-language subsets."""
    counts: Counter[str] = Counter()
    for subset in subsets:
        for unit in subset:
            counts.update(unit.tokens())
    if not counts:
        raise ValueError("at least one unit required")
    return WordCounts(dict(counts))


def _candidate_tables(counts: dict[str, int]) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
    """Occurrence counts of every substring piece of the training words.

    Returns (initial, continuation): table L of each maps a raw slice of
    length L, for L in 0..MAX_PIECE_CHARS, to its count. A continuation
    slice x is the vocabulary piece "##x". The count of a slice is the
    summed count of the words it occurs in, once per position.

    Every continuation slice word[i:j] is a prefix of the window
    word[i:i + MAX_PIECE_CHARS], and every word-initial slice is a prefix of
    word[:MAX_PIECE_CHARS]. So each word adds its count once per window, to
    the table of the window's length, and the closure then hands every
    table's totals down to the prefixes one shorter, from the longest table
    to table 1.
    """
    initial: list[dict[str, int]] = [{} for _ in range(MAX_PIECE_CHARS + 1)]
    continuation: list[dict[str, int]] = [{} for _ in range(MAX_PIECE_CHARS + 1)]
    full = continuation[MAX_PIECE_CHARS]
    cut = len(CONTINUATION_PREFIX)
    for word, count in counts.items():
        length = len(word)
        if length > MAX_CANDIDATE_WORD_CHARS:
            continue
        if word.startswith(CONTINUATION_PREFIX):
            # Pieces are strings: the word-initial slice "##x" is the
            # continuation piece "##x", so it is counted as one. The
            # initial "#" stays, and the slice "##" is the empty piece.
            initial[1]["#"] = initial[1].get("#", 0) + count
            continuation[0][""] = continuation[0].get("", 0) + count
            if length > cut:
                head = word[cut:MAX_PIECE_CHARS]
                table = continuation[len(head)]
                table[head] = table.get(head, 0) + count
        else:
            head = word[:MAX_PIECE_CHARS]
            table = initial[len(head)]
            table[head] = table.get(head, 0) + count
        # Windows that reach past the piece limit are cut to it; the rest
        # run to the end of the word.
        tail = max(1, length - MAX_PIECE_CHARS)
        for i in range(1, tail):
            window = word[i : i + MAX_PIECE_CHARS]
            full[window] = full.get(window, 0) + count
        for i in range(tail, length):
            window = word[i:]
            table = continuation[length - i]
            table[window] = table.get(window, 0) + count
    for tables in (initial, continuation):
        for length in range(MAX_PIECE_CHARS, 1, -1):
            shorter = tables[length - 1]
            get = shorter.get
            for key, total in tables[length].items():
                prefix = key[:-1]
                shorter[prefix] = get(prefix, 0) + total
    return initial, continuation


def _score_cutoff(tables: Iterable[list[dict[str, int]]], budget: int) -> int:
    """The score of the budget-th best optional piece, or 0 if there are fewer.

    The optional pieces are the keys of the tables of length 2 and up: the
    tables of length 1 hold only mandatory single characters, and the one
    key of table 0 scores 0, which cannot move the cutoff. Each table has
    one length, so its scores are its counts times that length; their
    histogram is walked from the top score down.
    """
    hist: Counter[int] = Counter()
    for by_length in tables:
        for length in range(2, MAX_PIECE_CHARS + 1):
            hist.update(map(length.__mul__, by_length[length].values()))
    remaining = budget
    for score in sorted(hist, reverse=True):
        remaining -= hist[score]
        if remaining <= 0:
            return score
    return 0


def learn_wordpieces(counts: WordCounts, target_size: int) -> Vocab:
    """Learn a wordpiece vocabulary of target_size pieces.

    RESERVED_TOKENS come first. The initial and continuation pieces of
    every training character are mandatory and never dropped, which keeps
    every training word tokenizable. The rest of the budget, k, goes to the
    top-k other substring pieces by count * length, ties broken by the
    piece string: the candidates of each length L whose count is at least
    the k-th best score over L, rounded up (see _score_cutoff), are sorted
    by that key and the first k kept. The whole vocabulary is then ordered
    by the same key. If the corpus has fewer candidates than the budget,
    the cutoff is 0, every candidate is kept, the score-0 piece "##" of a
    word starting with "##" included, and the vocabulary is smaller than
    target_size.
    """
    chars = sorted({ch for word in counts.counts for ch in word})
    floor_size = len(RESERVED_TOKENS) + 2 * len(chars)
    if target_size < floor_size:
        raise ValueError(
            f"target below alphabet size: target {target_size} < "
            f"{len(RESERVED_TOKENS)} reserved + {2 * len(chars)} character pieces"
        )

    initial, continuation = _candidate_tables(counts.counts)
    # A training word may spell a reserved token; it is never a learned piece.
    for token in RESERVED_TOKENS:
        initial[len(token)].pop(token, None)
    budget = target_size - floor_size
    cutoff = _score_cutoff((initial, continuation), budget)
    optional = []
    for tables, prefix in ((initial, ""), (continuation, CONTINUATION_PREFIX)):
        for length in range(2, MAX_PIECE_CHARS + 1):
            table = tables[length]
            least = -(-cutoff // length)  # the least count that reaches the cutoff
            above = itertools.compress(table, map(least.__le__, table.values()))
            optional += [(-table[raw] * length, prefix + raw) for raw in above]
    if cutoff == 0:
        optional += [(0, CONTINUATION_PREFIX + raw) for raw in continuation[0]]
    kept = sorted(optional)[:budget]
    # Single characters are the mandatory pieces. A character seen only
    # inside words, or only in words past MAX_CANDIDATE_WORD_CHARS, has no
    # key in a table of length 1.
    mandatory = [(-initial[1].get(c, 0), c) for c in chars]
    mandatory += [(-continuation[1].get(c, 0), CONTINUATION_PREFIX + c) for c in chars]
    pieces = RESERVED_TOKENS + [piece for _, piece in sorted(mandatory + kept)]
    return Vocab(pieces=pieces)


def tokenize(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first wordpiece split of a single word.

    Non-initial matches carry the continuation prefix. Reserved tokens never
    match, so a word spelled "[SEP]" splits into ordinary pieces. A position
    with no matching piece maps the whole word to [UNK].
    """
    if not word:
        raise ValueError("empty word")
    ids = vocab.piece_ids
    # Reserved tokens hold the ids below this one.
    first_learned = len(vocab.reserved)
    pieces: list[str] = []
    start = 0
    length = len(word)
    while start < length:
        end = length
        match = None
        while end > start:
            piece = word[start:end] if start == 0 else CONTINUATION_PREFIX + word[start:end]
            if ids.get(piece, -1) >= first_learned:
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
