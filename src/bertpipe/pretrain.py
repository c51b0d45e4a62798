"""Masked-language-model training instances with whole word masking.

Documents (lists of sentences) are wordpiece-tokenized, packed into
segment pairs targeting max_seq_len - 3 pieces with a 50% random-B
next-sentence task, and masked whole words at a time: every piece of a
selected word is masked, each piece independently drawing the
mask/random/keep replacement. Instances are padded to max_seq_len.

The corpus is tokenized once into piece ids, and every phase of
phase_datasets builds its instances from that one copy; each distinct word
is split once (tokenize_text remembers its pieces on the Vocab). Word
groups for masking come from the ids: a word starts at every piece that
does not start with "##" and at the start of each segment. So a corpus
word spelled "##x", which is the single piece "##x", joins the previous
word's mask group. The number of masked pieces is
min(max_predictions_per_seq, floor(mask_prob * (len - 3))) over the
len - 3 non-special positions; BERT's create_pretraining_data.py uses
max(1, round(len * mask_prob)) over the whole sequence.

Generation is deterministic: every document derives its own RNG from
(rng_seed, document ordinal), so output does not depend on worker
scheduling. The serialized form is a stream of length-prefixed binary
records described by a data.schema.json sidecar.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, replace
from itertools import compress
from random import Random
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .vocab import Vocab, tokenize_text

SCHEMA_VERSION = 1

# The record stores seq_len and masked_positions as u16.
MAX_SEQ_LEN = 65535

_LENGTHS = struct.Struct("<HH")  # seq_len, num_masked


@dataclass(frozen=True)
class MaskingConfig:
    mask_prob: float = 0.15
    replace_mask: float = 0.8
    replace_random: float = 0.1
    keep_original: float = 0.1
    max_predictions_per_seq: int = 20
    rng_seed: int = 0
    dupe_factor: int = 1

    def __post_init__(self):
        total = self.replace_mask + self.replace_random + self.keep_original
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"replacement probabilities must sum to 1, got {total}")
        if not 0.0 < self.mask_prob < 1.0:
            raise ValueError(f"mask_prob must be in (0, 1), got {self.mask_prob}")
        if self.max_predictions_per_seq < 0:
            raise ValueError("max_predictions_per_seq must be >= 0")
        if self.dupe_factor < 1:
            raise ValueError("dupe_factor must be >= 1")


@dataclass(frozen=True)
class TrainingInstance:
    """One packed MLM sequence; arrays are padded to the max sequence length."""

    token_ids: tuple[int, ...]
    input_mask: tuple[int, ...]
    segment_ids: tuple[int, ...]
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]
    is_next: bool

    def __post_init__(self):
        n = len(self.token_ids)
        if len(self.input_mask) != n or len(self.segment_ids) != n:
            raise ValueError("mask/segment arrays must match token_ids length")
        if len(self.masked_positions) != len(self.masked_labels):
            raise ValueError("masked positions and labels must align")
        if any(
            b <= a for a, b in zip(self.masked_positions, self.masked_positions[1:])
        ) or any(p >= n for p in self.masked_positions):
            raise ValueError("masked positions must be strictly increasing and in range")

    def content_length(self) -> int:
        return sum(self.input_mask)


@dataclass
class GenerationStats:
    documents_in: int = 0
    documents_skipped: int = 0
    sentences: int = 0
    pieces: int = 0
    instances: int = 0


def _child_seed(seed: int, *parts: int) -> int:
    payload = (str(seed) + ":" + ":".join(str(p) for p in parts)).encode("ascii")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _check_seq_len(max_seq_len: int) -> None:
    if not 16 <= max_seq_len <= MAX_SEQ_LEN:
        raise ValueError(f"max_seq_len must be in [16, {MAX_SEQ_LEN}], got {max_seq_len}")


def _shuffle(items: list, getrandbits: Callable[[int], int]) -> None:
    """Random.shuffle(items) inlined: the same getrandbits draws, so the same
    order and the same RNG state, without two method calls per item."""
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def _truncate_pair(tokens_a: list[int], tokens_b: list[int], max_num_tokens: int) -> None:
    """Trim the longer segment's end one piece at a time, alternating on ties."""
    trim_a = True
    while len(tokens_a) + len(tokens_b) > max_num_tokens:
        if len(tokens_a) > len(tokens_b):
            tokens_a.pop()
        elif len(tokens_b) > len(tokens_a):
            tokens_b.pop()
        else:
            (tokens_a if trim_a else tokens_b).pop()
            trim_a = not trim_a


def _mask_tokens(
    ids: list[int],
    sep_a: int,
    word_initial: bytes,
    mask_id: int,
    cfg: MaskingConfig,
    rng: Random,
    random_ids: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Whole-word masking of ids = [CLS] A [SEP] B [SEP], in place.

    sep_a is the position of the first [SEP]; word_initial[id] is 1 unless
    the piece starts with "##". Returns (masked_positions, masked_labels).
    """
    n = len(ids)
    num_to_predict = min(cfg.max_predictions_per_seq, int(cfg.mask_prob * (n - 3)))
    # A word starts at every initial piece and at the start of A and of B,
    # and ends where the next word, [SEP] or the end begins. Word w is
    # bounds[w]:bounds[w + 1]; the words are shuffled as indices into bounds.
    flags = bytearray(map(word_initial.__getitem__, ids))
    flags[1] = flags[sep_a + 1] = 1
    bounds = list(compress(range(n), flags))
    words = list(range(1, len(bounds) - 1))
    del words[bounds.index(sep_a) - 1]
    _shuffle(words, rng.getrandbits)
    masked: list[tuple[int, int]] = []
    for w in words:
        if len(masked) >= num_to_predict:
            break
        start, end = bounds[w], bounds[w + 1]
        if len(masked) + end - start > num_to_predict:
            continue
        for pos in range(start, end):
            original = ids[pos]
            u = rng.random()
            if u < cfg.replace_mask:
                ids[pos] = mask_id
            elif u < cfg.replace_mask + cfg.replace_random:
                ids[pos] = random_ids[rng.randrange(len(random_ids))]
            masked.append((pos, original))
    masked.sort()
    return [p for p, _ in masked], [l for _, l in masked]


def _instances_from_document(
    all_docs: list[list[list[int]]],
    doc_index: int,
    vocab: Vocab,
    word_initial: bytes,
    max_seq_len: int,
    cfg: MaskingConfig,
    rng: Random,
    random_ids: Sequence[int],
) -> Iterator[TrainingInstance]:
    document = all_docs[doc_index]
    max_num_tokens = max_seq_len - 3
    current_chunk: list[list[int]] = []
    current_length = 0
    i = 0
    while i < len(document):
        segment = document[i]
        current_chunk.append(segment)
        current_length += len(segment)
        if i == len(document) - 1 or current_length >= max_num_tokens:
            if current_chunk:
                a_end = 1
                if len(current_chunk) >= 2:
                    a_end = rng.randint(1, len(current_chunk) - 1)
                tokens_a: list[int] = []
                for j in range(a_end):
                    tokens_a.extend(current_chunk[j])

                tokens_b: list[int] = []
                is_next = True
                if len(current_chunk) == 1 or rng.random() < 0.5:
                    is_next = False
                    target_b_length = max_num_tokens - len(tokens_a)
                    random_doc_index = doc_index
                    for _ in range(10):
                        random_doc_index = rng.randrange(len(all_docs))
                        if random_doc_index != doc_index:
                            break
                    random_doc = all_docs[random_doc_index]
                    random_start = rng.randrange(len(random_doc))
                    for j in range(random_start, len(random_doc)):
                        tokens_b.extend(random_doc[j])
                        if len(tokens_b) >= target_b_length:
                            break
                    # segments not consumed by A go back to the stream
                    i -= len(current_chunk) - a_end
                else:
                    for j in range(a_end, len(current_chunk)):
                        tokens_b.extend(current_chunk[j])

                _truncate_pair(tokens_a, tokens_b, max_num_tokens)
                if tokens_a and tokens_b:
                    ids = [vocab.cls_id, *tokens_a, vocab.sep_id, *tokens_b, vocab.sep_id]
                    segments = [0] * (len(tokens_a) + 2) + [1] * (len(tokens_b) + 1)
                    positions, labels = _mask_tokens(
                        ids, len(tokens_a) + 1, word_initial, vocab.mask_id, cfg, rng, random_ids
                    )
                    pad = max_seq_len - len(ids)
                    yield TrainingInstance(
                        token_ids=tuple(ids + [vocab.pad_id] * pad),
                        input_mask=tuple([1] * len(ids) + [0] * pad),
                        segment_ids=tuple(segments + [0] * pad),
                        masked_positions=tuple(positions),
                        masked_labels=tuple(labels),
                        is_next=is_next,
                    )
            current_chunk = []
            current_length = 0
        i += 1


def _tokenize_documents(
    documents: Iterable[Sequence[str]], vocab: Vocab, stats: GenerationStats
) -> list[list[list[int]]]:
    """Documents as lists of sentences of piece ids; empty sentences and
    documents without a tokenizable sentence are dropped."""
    piece_id = vocab.piece_ids.__getitem__
    tokenized: list[list[list[int]]] = []
    for doc in documents:
        stats.documents_in += 1
        sentences = [list(map(piece_id, tokenize_text(s, vocab))) for s in doc]
        sentences = [s for s in sentences if s]
        if sentences:
            tokenized.append(sentences)
            stats.sentences += len(sentences)
            stats.pieces += sum(map(len, sentences))
        else:
            stats.documents_skipped += 1
    return tokenized


def _generate(
    tokenized: list[list[list[int]]],
    vocab: Vocab,
    max_seq_len: int,
    cfg: MaskingConfig,
    stats: GenerationStats,
) -> Iterator[TrainingInstance]:
    reserved = vocab.reserved_ids()
    random_ids = [i for i in range(len(vocab)) if i not in reserved]
    if not random_ids:
        raise ValueError("vocabulary has no non-reserved pieces")
    prefix = vocab.continuation_prefix
    word_initial = bytes(not p.startswith(prefix) for p in vocab.pieces)

    for pass_idx in range(cfg.dupe_factor):
        for doc_index in range(len(tokenized)):
            rng = Random(_child_seed(cfg.rng_seed, doc_index, pass_idx))
            for instance in _instances_from_document(
                tokenized, doc_index, vocab, word_initial, max_seq_len, cfg, rng, random_ids
            ):
                stats.instances += 1
                yield instance


def phase_datasets(
    documents: Sequence[Sequence[str]],
    vocab: Vocab,
    seq_lens: Sequence[int],
    cfg: MaskingConfig,
    stats: GenerationStats | None = None,
) -> list[Iterator[TrainingInstance]]:
    """One independent instance stream per phase, at that phase's sequence length.

    The documents are tokenized once, here, and shared by every stream.
    Documents with zero tokenizable sentences are skipped and counted in
    stats. Phase k draws from its own seed derived from (rng_seed, k), and
    its instances come out grouped by document ordinal, repeated dupe_factor
    times over the corpus with independent derived RNGs.
    """
    if not seq_lens:
        raise ValueError("no phases")
    for seq_len in seq_lens:
        _check_seq_len(seq_len)
    stats = stats if stats is not None else GenerationStats()
    tokenized = _tokenize_documents(documents, vocab, stats)
    return [
        _generate(tokenized, vocab, seq_len, replace(cfg, rng_seed=_child_seed(cfg.rng_seed, k)), stats)
        for k, seq_len in enumerate(seq_lens)
    ]


def read_documents(path: str) -> list[list[str]]:
    """Documents from a text file: one sentence per line, blank line between docs."""
    docs: list[list[str]] = []
    current: list[str] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                current.append(line)
            elif current:
                docs.append(current)
                current = []
    if current:
        docs.append(current)
    return docs


def instance_schema() -> dict:
    return {
        "format": "bertpipe-instances",
        "version": SCHEMA_VERSION,
        "endianness": "little",
        "record": [
            {"name": "record_len", "dtype": "u32", "note": "bytes after this prefix"},
            {"name": "seq_len", "dtype": "u16"},
            {"name": "num_masked", "dtype": "u16"},
            {"name": "token_ids", "dtype": "u32", "count": "seq_len"},
            {"name": "input_mask", "dtype": "u8", "count": "seq_len"},
            {"name": "segment_ids", "dtype": "u8", "count": "seq_len"},
            {"name": "masked_positions", "dtype": "u16", "count": "num_masked"},
            {"name": "masked_labels", "dtype": "u32", "count": "num_masked"},
            {"name": "is_next", "dtype": "u8"},
        ],
    }


def write_schema(out: TextIO) -> None:
    """Write the data.schema.json sidecar to an open text file."""
    json.dump(instance_schema(), out, indent=2, sort_keys=True)
    out.write("\n")


def pack_instance(instance: TrainingInstance) -> bytes:
    n = len(instance.token_ids)
    m = len(instance.masked_positions)
    body = b"".join(
        (
            _LENGTHS.pack(n, m),
            struct.pack(f"<{n}I", *instance.token_ids),
            struct.pack(f"<{n}B", *instance.input_mask),
            struct.pack(f"<{n}B", *instance.segment_ids),
            struct.pack(f"<{m}H", *instance.masked_positions),
            struct.pack(f"<{m}I", *instance.masked_labels),
            struct.pack("<B", 1 if instance.is_next else 0),
        )
    )
    return struct.pack("<I", len(body)) + body


def write_instances(instances: Iterable[TrainingInstance], out: BinaryIO) -> int:
    count = 0
    for instance in instances:
        out.write(pack_instance(instance))
        count += 1
    return count


def read_instances(path: str) -> Iterator[TrainingInstance]:
    with open(path, "rb") as f:
        while True:
            prefix = f.read(4)
            if not prefix:
                return
            (length,) = struct.unpack("<I", prefix)
            body = f.read(length)
            if len(body) != length:
                raise ValueError("truncated instance record")
            n, m = _LENGTHS.unpack_from(body, 0)
            off = _LENGTHS.size
            token_ids = struct.unpack_from(f"<{n}I", body, off)
            off += 4 * n
            input_mask = struct.unpack_from(f"<{n}B", body, off)
            off += n
            segment_ids = struct.unpack_from(f"<{n}B", body, off)
            off += n
            positions = struct.unpack_from(f"<{m}H", body, off)
            off += 2 * m
            labels = struct.unpack_from(f"<{m}I", body, off)
            off += 4 * m
            (is_next,) = struct.unpack_from("<B", body, off)
            yield TrainingInstance(
                token_ids=token_ids,
                input_mask=input_mask,
                segment_ids=segment_ids,
                masked_positions=positions,
                masked_labels=labels,
                is_next=bool(is_next),
            )
