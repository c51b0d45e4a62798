"""The corpus reader, the one parser of the corpus text format."""

import re
import unicodedata

import pytest

from bertpipe.corpus import Granularity, TextUnit, read_documents, read_units
from bertpipe.evaluation.ner import parse_ner
from bertpipe.evaluation.ud import parse_conllu

# Composed letters of the paper's languages; NFD splits each into a base
# letter and a combining mark.
COMPOSED = "Tänään õhtul šokolaad ja žürii café"
DECOMPOSED = unicodedata.normalize("NFD", COMPOSED)


def corpus_file(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_blank_and_whitespace_only_lines_separate_documents(tmp_path):
    path = corpus_file(tmp_path, "\n  one  a\ntwo\n \t \nthree\n\n\nfour\n  \n")
    assert read_documents(path) == [["one  a", "two"], ["three"], ["four"]]
    assert read_units(path, "xx") == [TextUnit("xx", t) for t in ("one  a", "two", "three", "four")]


def test_paragraph_units_join_each_documents_lines(tmp_path):
    path = corpus_file(tmp_path, "a b\n c \n\t\nd\n")
    assert read_units(path, "xx", Granularity.PARAGRAPH) == [TextUnit("xx", "a b c"), TextUnit("xx", "d")]


def test_decomposed_lines_are_read_as_composed_text(tmp_path):
    assert DECOMPOSED != COMPOSED
    text = "{0}\n{0} x\n\n{0}\n"
    nfc = corpus_file(tmp_path, text.format(COMPOSED), "nfc.txt")
    nfd = corpus_file(tmp_path, text.format(DECOMPOSED), "nfd.txt")
    assert read_documents(nfd) == read_documents(nfc) == [[COMPOSED, COMPOSED + " x"], [COMPOSED]]
    for granularity in Granularity:
        units = read_units(nfd, "et", granularity)
        assert units == read_units(nfc, "et", granularity)
        assert all(unicodedata.is_normalized("NFC", u.text) for u in units)
        assert units[-1].tokens() == COMPOSED.split()


def test_a_leading_byte_order_mark_is_not_text(tmp_path):
    text = "Tere maailm\nteine\n\nTere maailm\n"
    plain = corpus_file(tmp_path, text, "plain.txt")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_documents(str(marked)) == read_documents(plain) == [["Tere maailm", "teine"], ["Tere maailm"]]
    for granularity in Granularity:
        assert read_units(str(marked), "et", granularity) == read_units(plain, "et", granularity)
    # only a leading mark is dropped
    inner = corpus_file(tmp_path, "a\n\ufeffb\n", "inner.txt")
    assert read_documents(inner) == [["a", "\ufeffb"]]


def test_a_file_that_is_not_utf8_is_an_error_naming_it(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("Tere\n\nPäike\n".encode("latin-1"))
    for read in (read_documents, lambda p: read_units(p, "et")):
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec can't decode byte 0xe4")):
            read(str(path))


@pytest.mark.parametrize("read", [read_documents, parse_ner, parse_conllu])
def test_not_utf8_error_gives_the_byte_offset_in_the_file_and_the_line(tmp_path, read):
    # The bad byte lies past the text reader's first read chunks, where the
    # decoder's own position is counted from the start of the chunk.
    path = tmp_path / "late.txt"
    path.write_bytes(b"a" * 20_000 + b"\n\xff")
    message = f"{path}: 'utf-8' codec can't decode byte 0xff at offset 20001 (line 2): invalid start byte"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read(str(path))


def test_not_utf8_error_counts_the_byte_order_mark_and_a_split_character(tmp_path):
    path = tmp_path / "split.txt"
    path.write_bytes(b"\xef\xbb\xbfP\xc3\xa4ike\n\nP\xc3")
    message = f"{path}: 'utf-8' codec can't decode byte 0xc3 at offset 12 (line 3): unexpected end of data"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        read_documents(str(path))
