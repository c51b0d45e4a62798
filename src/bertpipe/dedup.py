"""Onion-style near-duplicate removal via n-gram shingle overlap.

A single greedy pass keeps a unit unless the fraction of its shingles
already seen among previously kept units reaches the duplicate-content
threshold. Shingles are n-grams of whitespace tokens fingerprinted to
64 bits; collisions are accepted (negligible at desk scale). Runs are
per-language: an index is never shared across languages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import TextUnit

DEFAULT_N = 9
DEFAULT_THRESHOLD = 0.9

_SEP = b"\x1f"  # unit separator; cannot occur inside a whitespace token


def fingerprint(tokens: Sequence[str]) -> int:
    """Deterministic 64-bit fingerprint of a token n-gram."""
    h = hashlib.blake2b(_SEP.join(t.encode("utf-8") for t in tokens), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def shingle(tokens: Sequence[str], n: int) -> list[int]:
    """Fingerprints of the n-grams of a unit's whitespace tokens.

    Returns T - n + 1 fingerprints for a unit of T tokens. Units shorter
    than n hash as a single whole-unit shingle so that exact short
    duplicates are still caught.
    """
    if n < 1:
        raise ValueError(f"shingle order must be >= 1, got {n}")
    if len(tokens) < n:
        return [fingerprint(tokens)]
    return [fingerprint(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


@dataclass
class DedupStats:
    units_in: int = 0
    units_kept: int = 0
    units_dropped: int = 0
    tokens_in: int = 0
    tokens_kept: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "units_in": self.units_in,
            "units_kept": self.units_kept,
            "units_dropped": self.units_dropped,
            "tokens_in": self.tokens_in,
            "tokens_kept": self.tokens_kept,
        }


def dedup_corpus(
    units: Iterable[TextUnit],
    n: int = DEFAULT_N,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[TextUnit], DedupStats]:
    """Greedy first-wins pass over units in input order.

    A unit is dropped iff its duplicate fraction against the shingles of
    previously kept units is >= threshold. The first unit is always kept
    (nothing has been seen yet). Kept units' shingles enter the index only
    after the keep decision, and output order preserves input order.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    stats = DedupStats()
    seen: set[int] = set()  # fingerprints of the kept units' shingles
    kept: list[TextUnit] = []
    for unit in units:
        tokens = unit.tokens()
        stats.units_in += 1
        stats.tokens_in += len(tokens)
        prints = shingle(tokens, n)
        if seen and sum(1 for p in prints if p in seen) / len(prints) >= threshold:
            stats.units_dropped += 1
        else:
            stats.units_kept += 1
            stats.tokens_kept += len(tokens)
            seen.update(prints)
            kept.append(unit)
    return kept, stats
