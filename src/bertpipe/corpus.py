"""Text units: the atoms of deduplication, sampling, and vocabulary learning.

A corpus file is UTF-8 plain text. In sentence granularity every non-blank
line is one unit; in paragraph granularity consecutive non-blank lines form
one unit and blank lines separate units.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, TextIO


class Granularity(str, Enum):
    SENTENCE = "sentence"
    PARAGRAPH = "paragraph"


@dataclass(frozen=True)
class TextUnit:
    """A sentence or paragraph with a language tag.

    `text` is non-empty after whitespace normalization; `id` is unique and
    monotonically increasing within a corpus.
    """

    id: int
    lang: str
    text: str
    granularity: Granularity = Granularity.SENTENCE

    def tokens(self) -> list[str]:
        """Whitespace tokens of the NFC-normalized text (cased)."""
        return unicodedata.normalize("NFC", self.text).split()

    def token_count(self) -> int:
        return len(self.tokens())


def iter_units(
    lines: Iterable[str],
    lang: str,
    granularity: Granularity = Granularity.SENTENCE,
    start_id: int = 0,
) -> Iterator[TextUnit]:
    """Yield units from an iterable of lines (newlines optional).

    Blank lines are unit separators in paragraph mode and ignored in
    sentence mode. Units that are empty after stripping are never yielded.
    """
    next_id = start_id
    if granularity is Granularity.SENTENCE:
        for line in lines:
            text = line.strip()
            if not text:
                continue
            yield TextUnit(next_id, lang, text, granularity)
            next_id += 1
        return

    pending: list[str] = []
    for line in lines:
        text = line.strip()
        if text:
            pending.append(text)
        elif pending:
            yield TextUnit(next_id, lang, " ".join(pending), granularity)
            next_id += 1
            pending = []
    if pending:
        yield TextUnit(next_id, lang, " ".join(pending), granularity)


def read_units(
    path: str,
    lang: str,
    granularity: Granularity = Granularity.SENTENCE,
) -> list[TextUnit]:
    with open(path, "r", encoding="utf-8") as f:
        return list(iter_units(f, lang, granularity))


def write_units(units: Iterable[TextUnit], out: TextIO, granularity: Granularity) -> None:
    """Write units back in the file format of their granularity."""
    first = True
    for unit in units:
        if granularity is Granularity.PARAGRAPH and not first:
            out.write("\n")
        out.write(unit.text + "\n")
        first = False
