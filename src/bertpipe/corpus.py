"""The corpus text format: the one place that reads corpus files.

A corpus file is UTF-8 plain text with one sentence per line and a blank
(or whitespace-only) line between documents. A leading byte-order mark is
not text and is dropped. Every line is stripped and
NFC-normalized when it is read, so the composed and decomposed spellings of
a letter such as ä, õ or š are the same text to every later stage. In
sentence granularity every line is one unit; in paragraph granularity each
document's lines, joined by a space, are one unit.
"""

from __future__ import annotations

import unicodedata
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, TextIO


class Granularity(str, Enum):
    SENTENCE = "sentence"
    PARAGRAPH = "paragraph"


class TextUnit(NamedTuple):
    """A sentence or paragraph with a language tag; `text` is stripped,
    non-empty and NFC-normalized. A named tuple, because every read builds
    one per line and a tuple is about half the cost of a frozen dataclass."""

    lang: str
    text: str

    def tokens(self) -> list[str]:
        """Whitespace tokens of the text (cased)."""
        return self.text.split()


def normalize(line: str) -> str:
    """A line of text as every stage sees it: stripped and NFC-normalized."""
    return unicodedata.normalize("NFC", line.strip())


def _documents(path: str) -> Iterator[list[str]]:
    """Each document of a corpus file as its normalized non-blank lines."""
    lines: list[str] = []
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            for line in f:
                line = normalize(line)
                if line:
                    lines.append(line)
                elif lines:
                    yield lines
                    lines = []
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if lines:
        yield lines


def read_documents(path: str) -> list[list[str]]:
    """Documents of a corpus file, each a list of its sentences."""
    return list(_documents(path))


def read_units(
    path: str,
    lang: str,
    granularity: Granularity = Granularity.SENTENCE,
) -> list[TextUnit]:
    if granularity is Granularity.SENTENCE:
        return [TextUnit(lang, line) for doc in _documents(path) for line in doc]
    return [TextUnit(lang, " ".join(doc)) for doc in _documents(path)]


def write_units(units: Iterable[TextUnit], out: TextIO, granularity: Granularity) -> None:
    """Write units back in the file format of their granularity."""
    first = True
    for unit in units:
        if granularity is Granularity.PARAGRAPH and not first:
            out.write("\n")
        out.write(unit.text + "\n")
        first = False
