"""Onion-style near-duplicate removal via n-gram shingle overlap.

A single greedy pass keeps a unit unless the fraction of its shingles
already seen among previously kept units reaches the duplicate-content
threshold. Runs are per-language: an index is never shared across
languages.

Shingles are n-grams of whitespace tokens. Each call of `dedup_corpus`
maps every token type to a small int id once, and a shingle's fingerprint
is the 64-bit `hash` of its tuple of ids (Onion hashes each token once and
builds n-gram fingerprints from the per-token hashes; Pomikálek 2011,
ch. 4). CPython does not salt the hash of ints or of tuples of ints, so
fingerprints are the same in every process whatever PYTHONHASHSEED is.
Collisions are accepted (negligible at desk scale).

A unit whose text equals an earlier unit's text is dropped without being
split or fingerprinted (CCNet's exact-hash pass, Onion's full overlap).
This is the greedy rule itself, not an approximation: the index of kept
shingles only grows, so a repeat of a kept text has all its shingles seen
(fraction 1, which meets every threshold in [0, 1]) and a repeat of a
dropped text has a fraction no lower than when it was dropped. The first
unit is always kept, so the index is never empty at a repeat. The texts
are looked up for membership only, so PYTHONHASHSEED cannot change a
decision.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .corpus import TextUnit

DEFAULT_N = 9
DEFAULT_THRESHOLD = 0.9


def shingle(ids: Sequence[int], n: int) -> list[int]:
    """Fingerprints of the n-grams of a unit's token ids.

    Returns T - n + 1 fingerprints for a unit of T tokens, each the
    unsalted 64-bit hash of an id tuple. Units shorter than n hash as a
    single whole-unit shingle so that exact short duplicates are still
    caught. Ids are only comparable within one `dedup_corpus` call.
    """
    if n < 1:
        raise ValueError(f"shingle order must be >= 1, got {n}")
    if len(ids) < n:
        return [hash(tuple(ids))]
    return list(map(hash, zip(*[ids[k:] for k in range(n)])))


@dataclass
class DedupStats:
    units_in: int = 0
    units_kept: int = 0
    units_dropped: int = 0
    tokens_in: int = 0
    tokens_kept: int = 0


def dedup_corpus(
    units: Iterable[TextUnit],
    n: int = DEFAULT_N,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[TextUnit], DedupStats]:
    """Greedy first-wins pass over units in input order.

    A unit is dropped iff its duplicate fraction against the shingles of
    previously kept units is >= threshold. The first unit is always kept
    (nothing has been seen yet), and an exact repeat of an earlier unit's
    text is dropped without computing its fraction. Kept units' shingles
    enter the index only after the keep decision, and output order
    preserves input order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    stats = DedupStats()
    ids: defaultdict[str, int] = defaultdict(count().__next__)  # token type -> id, this call only
    seen: set[int] = set()  # fingerprints of the kept units' shingles
    decided: dict[str, int] = {}  # text of every unit so far -> its token count
    kept: list[TextUnit] = []
    for unit in units:
        stats.units_in += 1
        repeat = decided.get(unit.text)
        if repeat is not None:  # an exact repeat is dropped (module docstring)
            stats.units_dropped += 1
            stats.tokens_in += repeat
            continue
        tokens = unit.tokens()
        decided[unit.text] = len(tokens)
        stats.tokens_in += len(tokens)
        prints = shingle(list(map(ids.__getitem__, tokens)), n)
        if seen and sum(map(seen.__contains__, prints)) / len(prints) >= threshold:
            stats.units_dropped += 1
        else:
            stats.units_kept += 1
            stats.tokens_kept += len(tokens)
            seen.update(prints)
            kept.append(unit)
    return kept, stats
