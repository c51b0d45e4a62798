"""Language-balanced wordpiece vocabulary learning and greedy tokenization.

Vocabulary learning follows the subword-text-encoder scheme
(Tensor2Tensor's SubwordTextEncoder): candidate pieces are substrings of
training words scored by count * length, and the vocabulary is the top-k
candidates by that score, as in WordPiece, with k the size left after the
reserved tokens and the character pieces. Every observed character is kept
as both an initial and a continuation piece and is never dropped, so every
training word tokenizes without [UNK].

Candidates are counted by window, not by slice, one piece length at a
time. A piece is at most MAX_PIECE_CHARS long, so every piece that starts
at a position of a word is a prefix of the window of MAX_PIECE_CHARS
characters there, or of the rest of the word where that is shorter. The
table of length L is therefore the one-character-shorter prefixes of the
table of length L + 1 plus the windows of exactly length L. Each family,
initial pieces first and then "##" pieces, is built from the longest table
down, holding only the previous table; the words are bucketed by length
once, so the windows of one length are read straight from the buckets.
A "##" window shorter than MAX_PIECE_CHARS is a word's ending, and the
endings of length L are those of length L + 1 less their first character
plus the words of length L + 1 less theirs. They are counted down that
chain, one update per distinct ending rather than one per word, so the
stacked suffixes of Finnish and Estonian words are each counted once.

The top-k is chosen by a score cutoff that is known only at the end, so a
running lower bound stands in for it. Every key of a table has the table's
length, so the table's scores are its counts times that length. Their
histogram over the tables of length 2 and up, which leave out exactly the
single characters, gives the k-th best score so far; more candidates can
only raise it, so it never exceeds the final cutoff, and each table keeps
only the keys whose count reaches it. Each time the bound rises, the
tables kept so far drop the keys that no longer reach it, so no more than
the candidates of the bound so far are held. After the last table it is
the cutoff, and every kept candidate reaches it. They become (-score,
piece) pairs, which are sorted and cut to k. Ties at the cutoff are broken
by the piece string, as everywhere in the ordering, so a "##" piece comes
before an initial piece of the same score.

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
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .corpus import TextUnit

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
CONTINUATION_PREFIX = "##"

UNK = "[UNK]"

# Explosion guards for candidate generation; characters of longer words are
# still covered by the mandatory single-character pieces.
MAX_PIECE_CHARS = 16
MAX_CANDIDATE_WORD_CHARS = 64


class WordCounts(NamedTuple):
    counts: dict[str, int]


class Vocab:
    """Ordered subword inventory; reserved tokens occupy the first indices.
    The pieces never change after init."""

    def __init__(self, pieces: list[str], reserved: list[str] | None = None):
        self.pieces = pieces
        self.reserved = list(RESERVED_TOKENS) if reserved is None else reserved
        if len(set(pieces)) != len(pieces):
            raise ValueError("vocabulary pieces must be unique")
        if pieces[: len(self.reserved)] != self.reserved:
            raise ValueError("reserved tokens must occupy the first indices")
        self.piece_ids = {p: i for i, p in enumerate(pieces)}
        # word -> its pieces, filled by tokenize_text
        self.word_pieces: dict[str, tuple[str, ...]] = {}
        # The most characters of a word that one learned piece can match. A
        # "##" piece counts with its prefix, since a word spelled "##..."
        # matches it whole. Taken from the pieces: a loaded vocab need not
        # keep to MAX_PIECE_CHARS.
        self.longest_piece = max(map(len, pieces[len(self.reserved) :]), default=0)

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


def _piece_tables(
    by_length: list[dict[str, int]], hashed: dict[str, int], continuation: bool
) -> Iterator[tuple[int, dict[str, int]]]:
    """Occurrence counts of one family's substring pieces, one length at a time.

    Yields (L, table) for L from MAX_PIECE_CHARS down to 1, where table maps
    each raw slice of length L to its count: the summed count of the words
    it occurs in, once per position. A continuation slice x is the
    vocabulary piece "##x". by_length[n] maps each training word of n
    characters to its count, for n up to MAX_CANDIDATE_WORD_CHARS, and
    hashed holds those of its words that start with "##".

    Every slice is a prefix of a window: the initial slices of a word are
    the prefixes of its head word[:MAX_PIECE_CHARS], the continuation
    slices at position i those of word[i:i + MAX_PIECE_CHARS]. So table L
    is the prefixes of table L + 1, plus the windows of exactly length L;
    only the previous table is held. The empty slice is no window's prefix,
    so no table of length 0 is made.

    A continuation window shorter than MAX_PIECE_CHARS is a word's ending
    word[-L:], and the endings of length L are those of length L + 1 less
    their first character, plus the words of length L + 1 less theirs. So
    they are counted by a chain, one update per distinct ending and not
    one per word. Table L starts as the endings of length L and grows in
    place, and the chain holds only the previous length's endings, as two
    lists, which take less memory than a second dict.
    """
    longer: dict[str, int] = {}
    end_keys: list[str] = []
    end_counts: list[int] = []
    for length in range(MAX_PIECE_CHARS, 0, -1):
        full = length == MAX_PIECE_CHARS
        if not continuation:
            # Pieces are strings: the word-initial slice "##x" is the
            # continuation piece "##x", so a "##" word's only initial piece
            # is "#". A word shorter than the limit is its own head.
            if full:
                table = {}
                get = table.get
                for words in by_length[length:]:
                    for word, count in words.items():
                        if word not in hashed:
                            head = word[:MAX_PIECE_CHARS]
                            table[head] = get(head, 0) + count
            else:
                words = by_length[length]
                table = {w: n for w, n in words.items() if w not in hashed} if hashed else dict(words)
            if length == 1 and hashed:
                table["#"] = table.get("#", 0) + sum(hashed.values())
        else:
            if full:
                # Windows that reach past the piece limit are cut to it; a
                # word's last window is its first ending.
                table = {}
                get = table.get
                ends: dict[str, int] = {}
                for n in range(length + 1, len(by_length)):
                    for word, count in by_length[n].items():
                        for i in range(1, n - length + 1):
                            window = word[i : i + length]
                            table[window] = get(window, 0) + count
                        end = word[-length:]
                        ends[end] = ends.get(end, 0) + count
                end_keys, end_counts = list(ends), list(ends.values())
                del ends
            else:
                table = {}
                get = table.get
                for end, total in zip(end_keys, end_counts):
                    end = end[1:]
                    table[end] = get(end, 0) + total
                for word, count in by_length[length + 1].items():
                    end = word[1:]
                    table[end] = get(end, 0) + count
                end_keys, end_counts = list(table), list(table.values())
            for word, count in hashed.items():
                head = word[len(CONTINUATION_PREFIX) : MAX_PIECE_CHARS]
                if len(head) == length:
                    table[head] = table.get(head, 0) + count
        get = table.get
        for key, total in longer.items():
            prefix = key[:-1]
            table[prefix] = get(prefix, 0) + total
        longer = table
        yield length, table


def _nth_best(hist: Counter[int], n: int) -> int:
    """The n-th best score of a score histogram, or 0 if it holds fewer."""
    remaining = n
    for score in sorted(hist, reverse=True):
        remaining -= hist[score]
        if remaining <= 0:
            return score
    return 0


def _reaching(table: dict[str, int], least: int) -> dict[str, int]:
    """The keys of table whose count is at least least. Every count is at
    least 1, so a bound of 1 or less keeps table itself, not a copy."""
    if least <= 1:
        return table
    return dict(itertools.compress(table.items(), map(least.__le__, table.values())))


def learn_wordpieces(counts: WordCounts, target_size: int) -> Vocab:
    """Learn a wordpiece vocabulary of target_size pieces.

    RESERVED_TOKENS come first. The initial and continuation pieces of
    every training character are mandatory and never dropped, which keeps
    every training word tokenizable. The rest of the budget, k, goes to the
    top-k other substring pieces by count * length, ties broken by the
    piece string. The whole vocabulary is then ordered by the same key.

    The tables of each family come from _piece_tables one length at a
    time, the initial family first. The scores of each table of length 2 or
    more join one histogram, and its k-th best score so far is a lower
    bound on the final k-th best, since more candidates can only raise it.
    Each table keeps only its keys of count at least that bound over L,
    rounded up, and a new bound re-filters every table kept so far whose
    least count it raises; the tables of length 1 are kept whole. After the
    last table the bound is the final cutoff, which every kept candidate
    reaches: they are sorted by the key and the first k kept. If the
    corpus has fewer candidates than the budget, the cutoff is 0, every
    candidate is kept, the score-0 piece "##" of a word starting with "##"
    included, and the vocabulary is smaller than target_size.
    """
    alphabet = set("".join(counts.counts))
    chars = sorted(alphabet)
    floor_size = len(RESERVED_TOKENS) + 2 * len(chars)
    if target_size < floor_size:
        raise ValueError(
            f"target below alphabet size: target {target_size} < "
            f"{len(RESERVED_TOKENS)} reserved + {2 * len(chars)} character pieces"
        )

    by_length: list[dict[str, int]] = [{} for _ in range(MAX_CANDIDATE_WORD_CHARS + 1)]
    for word, count in counts.counts.items():
        if len(word) <= MAX_CANDIDATE_WORD_CHARS:
            by_length[len(word)][word] = count
    hashed = (
        {word: count for words in by_length for word, count in words.items() if word.startswith(CONTINUATION_PREFIX)}
        if "#" in alphabet
        else {}
    )
    budget = target_size - floor_size
    hist: Counter[int] = Counter()
    cutoff = 0
    # (length, prefix, least count kept, table)
    kept: list[tuple[int, str, int, dict[str, int]]] = []
    single: dict[str, dict[str, int]] = {}
    for prefix in ("", CONTINUATION_PREFIX):
        # A training word may spell a reserved token; it is never a learned
        # piece. It stays in the table, whose prefixes it still counts in.
        dropped = () if prefix else RESERVED_TOKENS
        for length, table in _piece_tables(by_length, hashed, bool(prefix)):
            if length == 1:
                single[prefix] = table
                continue
            for count, keys in Counter(table.values()).items():
                hist[count * length] += keys
            for token in dropped:
                if token in table:
                    hist[table[token] * length] -= 1
            cutoff = _nth_best(hist, budget)
            # The bound only rises: a kept table drops what it no longer reaches.
            for i, (kept_length, kept_prefix, kept_least, kept_table) in enumerate(kept):
                least = -(-cutoff // kept_length)
                if least > kept_least:
                    kept[i] = (kept_length, kept_prefix, least, _reaching(kept_table, least))
            least = -(-cutoff // length)  # the least count that reaches the cutoff
            kept.append((length, prefix, least, _reaching(table, least)))
    # Every kept table is filtered at the final cutoff. No table is read
    # again, so the reserved tokens are taken out of them in place.
    for _, prefix, _, table in kept:
        if not prefix:
            for token in RESERVED_TOKENS:
                table.pop(token, None)
    optional = [(-n * length, prefix + raw) for length, prefix, _, table in kept for raw, n in table.items()]
    if cutoff == 0 and hashed:
        optional.append((0, CONTINUATION_PREFIX))
    kept_pieces = sorted(optional)[:budget]
    # Single characters are the mandatory pieces. A character seen only
    # inside words, or only in words past MAX_CANDIDATE_WORD_CHARS, has no
    # key in a table of length 1.
    mandatory = [(-single[""].get(c, 0), c) for c in chars]
    mandatory += [(-single[CONTINUATION_PREFIX].get(c, 0), CONTINUATION_PREFIX + c) for c in chars]
    pieces = RESERVED_TOKENS + [piece for _, piece in sorted(mandatory + kept_pieces)]
    return Vocab(pieces=pieces)


def tokenize(word: str, vocab: Vocab) -> list[str]:
    """Greedy longest-match-first wordpiece split of a single word.

    Non-initial matches carry the continuation prefix. Reserved tokens never
    match, so a word spelled "[SEP]" splits into ordinary pieces. A position
    with no matching piece maps the whole word to [UNK]. Each scan starts
    at most vocab.longest_piece characters on, not at the word's end, so a
    word of n characters costs O(n) lookups, not O(n^2). A matched piece is
    the string object of vocab.pieces, not a copy, so the pieces that
    vocab.word_pieces remembers share the vocab's strings.
    """
    if not word:
        raise ValueError("empty word")
    ids = vocab.piece_ids
    known = vocab.pieces
    # Reserved tokens hold the ids below this one.
    first_learned = len(vocab.reserved)
    pieces: list[str] = []
    start = 0
    length = len(word)
    reach = vocab.longest_piece
    while start < length:
        end = start + reach
        if end > length:
            end = length
        match = None
        while end > start:
            piece = word[start:end] if start == 0 else CONTINUATION_PREFIX + word[start:end]
            i = ids.get(piece, -1)
            if i >= first_learned:
                match = known[i]
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
