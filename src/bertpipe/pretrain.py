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
word's mask group. Words are masked in random order, skipping any that
would overshoot, up to floor(mask_prob * (len - 3)) pieces over the
len - 3 non-special positions, so the count scales with the phase's
sequence length. BERT's create_pretraining_data.py uses
max(1, round(len * mask_prob)) over the whole sequence, capped by a per-run
maximum because its records are fixed-size arrays. The records here are
fixed-size too, but the bound is derived per phase from its sequence length
and the masking rate, so it needs no setting of its own.

Generation is deterministic: every document derives its own RNG from
(seed, document ordinal), so output does not depend on worker
scheduling. A phase is serialized as a short header (magic tag with the
format version, seq_len and the masked bound) followed by records that all
have one size, as BERT's write_instance_to_example_files writes
fixed-length features: a record holds the token ids, the lengths of
segments A and B, the masked count, the masked positions and labels padded
to the bound, and is_next. The input mask and segment ids follow from the
two lengths and are not stored. A data.schema.json sidecar describes the
layout, so a reader can find record k by its offset alone.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress
from random import Random
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .jsonfile import FieldError
from .vocab import CONTINUATION_PREFIX, Vocab, tokenize_text

SCHEMA_VERSION = 2

# The header stores seq_len, and the record stores the lengths and the
# masked positions, as u16.
MAX_SEQ_LEN = 65535

_MAGIC = b"BPINSTv%d" % SCHEMA_VERSION
_HEADER = struct.Struct("<8sHH")  # magic, seq_len, max_masked

# BERT's create_pretraining_data.py: a masked piece becomes [MASK] with
# probability 0.8, a random piece with 0.1, and keeps its id otherwise
REPLACE_MASK = 0.8
REPLACE_RANDOM = 0.1


@dataclass(frozen=True)
class MaskingConfig:
    mask_prob: float = 0.15
    seed: int = 0
    dupe_factor: int = 1

    def __post_init__(self):
        if not 0.0 < self.mask_prob < 1.0:
            raise FieldError("mask_prob", f"must be in (0, 1), got {self.mask_prob}")
        if self.dupe_factor < 1:
            raise FieldError("dupe_factor", f"must be >= 1, got {self.dupe_factor}")


@dataclass(frozen=True)
class TrainingInstance:
    """One packed MLM sequence [CLS] A [SEP] B [SEP], padded to the max
    sequence length; len_a and len_b are the piece counts of A and B."""

    token_ids: tuple[int, ...]
    len_a: int
    len_b: int
    masked_positions: tuple[int, ...]
    masked_labels: tuple[int, ...]
    is_next: bool

    def __post_init__(self):
        if self.len_a < 1 or self.len_b < 1 or self.len_a + self.len_b + 3 > len(self.token_ids):
            raise ValueError(
                f"segments of {self.len_a} and {self.len_b} pieces do not fit {len(self.token_ids)} positions"
            )
        if len(self.masked_positions) != len(self.masked_labels):
            raise ValueError("masked positions and labels must align")
        positions = self.masked_positions
        if positions and (
            positions[0] < 1
            or positions[-1] > self.len_a + self.len_b + 1
            or self.len_a + 1 in positions
            or any(b <= a for a, b in zip(positions, positions[1:]))
        ):
            raise ValueError("masked positions must be strictly increasing and within A or B")

    @property
    def input_mask(self) -> tuple[int, ...]:
        n = self.len_a + self.len_b + 3
        return (1,) * n + (0,) * (len(self.token_ids) - n)

    @property
    def segment_ids(self) -> tuple[int, ...]:
        a, b = self.len_a + 2, self.len_b + 1
        return (0,) * a + (1,) * b + (0,) * (len(self.token_ids) - a - b)


@dataclass
class GenerationStats:
    documents_in: int = 0
    documents_skipped: int = 0
    sentences: int = 0
    pieces: int = 0


def _child_seed(seed: int, *parts: int) -> int:
    payload = (str(seed) + ":" + ":".join(str(p) for p in parts)).encode("ascii")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _masked_bound(mask_prob: float, length: int) -> int:
    """The most pieces masked in a sequence of length pieces: the floor of
    mask_prob over its length - 3 non-special positions."""
    return int(mask_prob * (length - 3))


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
    num_to_predict = _masked_bound(cfg.mask_prob, n)
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
            if u < REPLACE_MASK:
                ids[pos] = mask_id
            elif u < REPLACE_MASK + REPLACE_RANDOM:
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
            ids = [vocab.cls_id, *tokens_a, vocab.sep_id, *tokens_b, vocab.sep_id]
            positions, labels = _mask_tokens(
                ids, len(tokens_a) + 1, word_initial, vocab.mask_id, cfg, rng, random_ids
            )
            yield TrainingInstance(
                token_ids=tuple(ids + [vocab.pad_id] * (max_seq_len - len(ids))),
                len_a=len(tokens_a),
                len_b=len(tokens_b),
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
) -> Iterator[TrainingInstance]:
    # the reserved tokens are the first pieces
    random_ids = range(len(vocab.reserved), len(vocab))
    if not random_ids:
        raise ValueError("vocabulary has no non-reserved pieces")
    word_initial = bytes(not p.startswith(CONTINUATION_PREFIX) for p in vocab.pieces)

    for pass_idx in range(cfg.dupe_factor):
        for doc_index in range(len(tokenized)):
            rng = Random(_child_seed(cfg.seed, doc_index, pass_idx))
            yield from _instances_from_document(
                tokenized, doc_index, vocab, word_initial, max_seq_len, cfg, rng, random_ids
            )


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
    stats. Phase k draws from its own seed derived from (seed, k), and
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
        _generate(tokenized, vocab, seq_len, replace(cfg, seed=_child_seed(cfg.seed, k)))
        for k, seq_len in enumerate(seq_lens)
    ]


def instance_schema() -> dict:
    return {
        "format": "bertpipe-instances",
        "version": SCHEMA_VERSION,
        "endianness": "little",
        "header": [
            {"name": "magic", "dtype": "bytes", "count": len(_MAGIC), "value": _MAGIC.decode("ascii")},
            {"name": "seq_len", "dtype": "u16"},
            {"name": "max_masked", "dtype": "u16", "note": "floor(mask_prob * (seq_len - 3))"},
        ],
        "record": [
            {"name": "token_ids", "dtype": "u32", "count": "seq_len"},
            {"name": "len_a", "dtype": "u16"},
            {"name": "len_b", "dtype": "u16"},
            {"name": "num_masked", "dtype": "u16"},
            {"name": "masked_positions", "dtype": "u16", "count": "max_masked", "note": "0 after num_masked"},
            {"name": "masked_labels", "dtype": "u32", "count": "max_masked", "note": "0 after num_masked"},
            {"name": "is_next", "dtype": "u8"},
        ],
    }


@lru_cache(maxsize=None)
def _record(seq_len: int, max_masked: int) -> struct.Struct:
    """The record of a phase file whose header holds seq_len and max_masked."""
    return struct.Struct(f"<{seq_len}I3H{max_masked}H{max_masked}IB")


def pack_instance(instance: TrainingInstance, seq_len: int, max_masked: int) -> bytes:
    """The instance as one record of a phase file with this header."""
    m = len(instance.masked_positions)
    if len(instance.token_ids) != seq_len or m > max_masked:
        raise ValueError(
            f"instance of {len(instance.token_ids)} pieces with {m} masked does not fit"
            f" seq_len {seq_len} and max_masked {max_masked}"
        )
    pad = (0,) * (max_masked - m)
    return _record(seq_len, max_masked).pack(
        *instance.token_ids,
        instance.len_a,
        instance.len_b,
        m,
        *instance.masked_positions,
        *pad,
        *instance.masked_labels,
        *pad,
        instance.is_next,
    )


def write_instances(instances: Iterable[TrainingInstance], out: BinaryIO, *, seq_len: int, mask_prob: float) -> int:
    """Write a phase file of instances of seq_len pieces masked at mask_prob;
    returns the number of instances."""
    max_masked = _masked_bound(mask_prob, seq_len)
    out.write(_HEADER.pack(_MAGIC, seq_len, max_masked))
    count = 0
    for instance in instances:
        out.write(pack_instance(instance, seq_len, max_masked))
        count += 1
    return count


def _open_phase(f: BinaryIO) -> tuple[int, int, int]:
    """(seq_len, max_masked, record count) of a phase file open at its start,
    which is left at its first record. A bad header or a partial record at
    the end is a ValueError."""
    header = f.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ValueError(f"instance file of {len(header)} bytes is shorter than its {_HEADER.size}-byte header")
    magic, seq_len, max_masked = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValueError(f"instance file starts with {magic!r}, not {_MAGIC!r}")
    size = _record(seq_len, max_masked).size
    count, rest = divmod(os.fstat(f.fileno()).st_size - _HEADER.size, size)
    if rest:
        raise ValueError(f"truncated instance file: {rest} bytes after {count} records of {size} bytes")
    return seq_len, max_masked, count


def read_instances(path: str) -> Iterator[TrainingInstance]:
    with open(path, "rb") as f:
        n, m, count = _open_phase(f)
        record = _record(n, m)
        for _ in range(count):
            values = record.unpack(f.read(record.size))
            len_a, len_b, k = values[n : n + 3]
            if k > m:
                raise ValueError(f"instance record masks {k} pieces, more than the file's bound of {m}")
            yield TrainingInstance(
                token_ids=values[:n],
                len_a=len_a,
                len_b=len_b,
                masked_positions=values[n + 3 : n + 3 + k],
                masked_labels=values[n + 3 + m : n + 3 + m + k],
                is_next=bool(values[-1]),
            )


def count_instances(path: str) -> int:
    """The number of records in a phase file, from its header and size alone."""
    with open(path, "rb") as f:
        return _open_phase(f)[2]
