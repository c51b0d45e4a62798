import hashlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import oracle_check_instances
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe import pretrain
from bertpipe.corpus import read_documents
from bertpipe.jsonfile import FieldError
from bertpipe.pipeline import _write_json
from bertpipe.pretrain import (
    MAX_SEQ_LEN,
    MaskingConfig,
    TrainingInstance,
    count_instances,
    instance_schema,
    pack_instance,
    phase_units,
    read_instances,
    tokenize_documents,
    unit_instances,
    write_instances,
)
from bertpipe.vocab import RESERVED_TOKENS, Vocab, WordCounts, learn_wordpieces, tokenize_text


@pytest.fixture(scope="module")
def toy_vocab():
    rng = random.Random(77)
    words = {}
    for _ in range(500):
        w = "".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 9)))
        words[w] = words.get(w, 0) + rng.randint(1, 40)
    wc = WordCounts(words)
    return learn_wordpieces(wc, target_size=220), sorted(words)


def make_docs(lexicon, rng, n_docs=30, sents=(3, 9), words=(4, 14)):
    docs = []
    for _ in range(n_docs):
        doc = [
            " ".join(rng.choice(lexicon) for _ in range(rng.randint(*words)))
            for _ in range(rng.randint(*sents))
        ]
        docs.append(doc)
    return docs


def restore_original_ids(instance: TrainingInstance) -> list[int]:
    ids = list(instance.token_ids)
    for pos, label in zip(instance.masked_positions, instance.masked_labels):
        ids[pos] = label
    return ids


def word_groups(ids, vocab: Vocab):
    """Whole-word position groups recomputed from original token ids."""
    groups = []
    special = {vocab.cls_id, vocab.sep_id, vocab.pad_id}
    for i, tid in enumerate(ids):
        if tid in special:
            continue
        piece = vocab.pieces[tid]
        if groups and piece.startswith("##") and groups[-1][-1] == i - 1:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def phase_streams(tokenized, vocab, seq_lens, cfg):
    """One instance stream per phase: the phase's units, in file order, as one run."""
    return [
        unit_instances(tokenized, vocab, seq_lens, cfg, phase_units(k, cfg.dupe_factor, len(tokenized)))
        for k in range(len(seq_lens))
    ]


def datasets(documents, vocab, seq_lens, cfg):
    """The phase streams of documents, tokenized as the pipeline tokenizes them."""
    tokenized, _ = tokenize_documents(documents, vocab)
    return phase_streams(tokenized, vocab, seq_lens, cfg)


class TestBuildInstances:
    """Instance building, through the phase streams with one phase."""

    def test_packing_bounds(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(1))
        instances = list(datasets(docs, vocab, [128], MaskingConfig(seed=5))[0])
        assert instances
        for inst in instances:
            assert len(inst.token_ids) <= 128
            assert sum(inst.input_mask) >= 5
            assert inst.token_ids[0] == vocab.cls_id
            seps = sum(1 for t in inst.token_ids if t == vocab.sep_id)
            assert seps in (1, 2)
            assert 0 not in inst.masked_positions  # [CLS] position never masked

    def test_no_masked_position_on_cls_or_sep(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(2))
        for inst in datasets(docs, vocab, [64], MaskingConfig(seed=3))[0]:
            originals = restore_original_ids(inst)
            for pos in inst.masked_positions:
                assert originals[pos] not in (vocab.cls_id, vocab.sep_id, vocab.pad_id)

    def test_whole_word_atomicity(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(3), n_docs=40)
        checked_multi = 0
        for inst in datasets(docs, vocab, [128], MaskingConfig(seed=11))[0]:
            originals = restore_original_ids(inst)
            masked = set(inst.masked_positions)
            for group in word_groups(originals, vocab):
                hit = [p for p in group if p in masked]
                if hit:
                    assert len(hit) == len(group), (group, sorted(masked))
                    if len(group) > 1:
                        checked_multi += 1
        assert checked_multi > 0, "fixture never masked a multi-piece word"

    def test_labels_hold_original_ids_regardless_of_replacement(self, toy_vocab, monkeypatch):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(4), n_docs=10)
        monkeypatch.setattr(pretrain, "REPLACE_MASK", 0.0)
        monkeypatch.setattr(pretrain, "REPLACE_RANDOM", 0.0)
        for inst in datasets(docs, vocab, [64], MaskingConfig(seed=8))[0]:
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                assert inst.token_ids[pos] == label

    def test_random_replacement_never_uses_reserved_ids(self, toy_vocab, monkeypatch):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(5), n_docs=10)
        monkeypatch.setattr(pretrain, "REPLACE_MASK", 0.0)
        monkeypatch.setattr(pretrain, "REPLACE_RANDOM", 1.0)
        reserved = {vocab.piece_ids[t] for t in RESERVED_TOKENS}
        seen_replacement = 0
        for inst in datasets(docs, vocab, [64], MaskingConfig(seed=9))[0]:
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                assert inst.token_ids[pos] not in reserved
                if inst.token_ids[pos] != label:
                    seen_replacement += 1
        assert seen_replacement > 0

    def test_mask_replacement_uses_mask_token(self, toy_vocab, monkeypatch):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(6), n_docs=10)
        monkeypatch.setattr(pretrain, "REPLACE_MASK", 1.0)
        monkeypatch.setattr(pretrain, "REPLACE_RANDOM", 0.0)
        for inst in datasets(docs, vocab, [64], MaskingConfig(seed=10))[0]:
            for pos in inst.masked_positions:
                assert inst.token_ids[pos] == vocab.mask_id

    def test_deterministic_under_fixed_seed(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(7))
        cfg = MaskingConfig(seed=21)
        a = list(datasets(docs, vocab, [96], cfg)[0])
        b = list(datasets(docs, vocab, [96], cfg)[0])
        assert a == b
        c = list(datasets(docs, vocab, [96], MaskingConfig(seed=22))[0])
        assert a != c

    def test_document_without_tokenizable_sentences_is_skipped(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = [[" ", ""], [lexicon[0] + " " + lexicon[1]] * 4]
        tokenized, counts = tokenize_documents(docs, vocab)
        assert len(tokenized) == 1
        assert counts["documents"] == 2
        assert counts["documents_skipped"] == 1

    def test_short_max_seq_len_rejected(self, toy_vocab):
        vocab, _ = toy_vocab
        with pytest.raises(ValueError):
            datasets([["a"]], vocab, [8], MaskingConfig())

    @pytest.mark.parametrize(
        "cfg, key", [(MaskingConfig(mask_prob=1.0), "mask_prob"), (MaskingConfig(dupe_factor=0), "dupe_factor")]
    )
    def test_masking_config_out_of_bounds_rejected(self, toy_vocab, cfg, key):
        vocab, _ = toy_vocab
        with pytest.raises(FieldError) as rejected:
            datasets([["a"]], vocab, [32], cfg)
        assert rejected.value.key == key

    def test_masked_count_floors_over_non_special_positions(self):
        # With one-piece words, masking stops exactly at its target count,
        # which at 256 goes past BERT's 128-token cap of 20.
        vocab = Vocab(RESERVED_TOKENS + list("abcdefgh"))
        docs = make_docs(list("abcdefgh"), random.Random(17), n_docs=20, sents=(1, 40), words=(1, 12))
        counts = set()
        for inst in datasets(docs, vocab, [256], MaskingConfig(seed=7))[0]:
            expected = int(0.15 * (sum(inst.input_mask) - 3))
            assert len(inst.masked_positions) == expected
            counts.add(expected)
        assert len(counts) > 2 and max(counts) > 20

    def test_max_seq_len_above_u16_rejected(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = [[lexicon[0]]]
        instances = list(datasets(docs, vocab, [MAX_SEQ_LEN], MaskingConfig())[0])
        assert [len(i.token_ids) for i in instances] == [MAX_SEQ_LEN]
        with pytest.raises(ValueError, match="max_seq_len"):
            datasets(docs, vocab, [MAX_SEQ_LEN + 1], MaskingConfig())
        with pytest.raises(ValueError, match="max_seq_len"):
            datasets(docs, vocab, [128, MAX_SEQ_LEN + 1], MaskingConfig())

    def test_reserved_words_stay_out_of_content(self):
        lexicon = ["[SEP]", "[MASK]", "[CLS]", "[PAD]", "[UNK]", "ab", "ba", "abba", "##b"]
        rng = random.Random(3)
        docs = make_docs(lexicon, rng, n_docs=12, words=(2, 9))
        counts = {}
        for doc in docs:
            for word in " ".join(doc).split():
                counts[word] = counts.get(word, 0) + 1
        vocab = learn_wordpieces(WordCounts(counts), target_size=80)
        reserved = {vocab.piece_ids[t] for t in RESERVED_TOKENS}
        instances = list(datasets(docs, vocab, [48], MaskingConfig(seed=2, dupe_factor=3))[0])
        assert instances
        bracket_words = 0
        for inst in instances:
            originals = restore_original_ids(inst)
            content = sum(inst.input_mask)
            sep_a = inst.segment_ids.index(1) - 1
            layout = {0: vocab.cls_id, sep_a: vocab.sep_id, content - 1: vocab.sep_id}
            layout.update((p, vocab.pad_id) for p in range(content, len(originals)))
            assert [(p, t) for p, t in enumerate(originals) if t in reserved] == sorted(layout.items())
            for pos, tid in enumerate(inst.token_ids):
                if tid in reserved and pos not in layout:
                    assert tid == vocab.mask_id and pos in inst.masked_positions
            bracket_words += sum(vocab.pieces[t].startswith("[") and t not in reserved for t in originals)
        assert bracket_words > 0

    def test_dupe_factor_multiplies_passes(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(8), n_docs=5)
        once = list(datasets(docs, vocab, [64], MaskingConfig(seed=2))[0])
        twice = list(
            datasets(docs, vocab, [64], MaskingConfig(seed=2, dupe_factor=2))[0]
        )
        assert len(twice) >= 2 * len(once) - len(docs)  # chunking identical per pass
        assert twice[: len(once)] == once


class TestPhaseDatasets:
    def test_one_stream_per_phase_with_phase_lengths(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(10))
        streams = datasets(docs, vocab, [128, 512], MaskingConfig(seed=6))
        lengths = []
        for stream in streams:
            batch = list(stream)
            assert batch
            lengths.append({len(i.token_ids) for i in batch})
        assert lengths == [{128}, {512}]

    def test_single_phase_plan_single_stream(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(11), n_docs=5)
        streams = datasets(docs, vocab, [32], MaskingConfig(seed=6))
        assert len(streams) == 1
        assert all(len(i.token_ids) == 32 for i in streams[0])

    def test_streams_serialize_identically_for_same_seed(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(12), n_docs=8)

        def serialize():
            out = []
            for seq_len, stream in zip([64, 128], datasets(docs, vocab, [64, 128], MaskingConfig(seed=33))):
                buf = io.BytesIO()
                write_instances(stream, buf, seq_len=seq_len, mask_prob=0.15)
                out.append(buf.getvalue())
            return out

        assert serialize() == serialize()

    def test_documents_are_tokenized_once_for_all_phases(self, toy_vocab, monkeypatch):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(16), n_docs=6) + [["", " "]]
        calls = []

        def counting(text, vocab):
            calls.append(text)
            return tokenize_text(text, vocab)

        monkeypatch.setattr(pretrain, "tokenize_text", counting)
        tokenized, counts = tokenize_documents(docs, vocab)
        streams = phase_streams(tokenized, vocab, [32, 64, 128], MaskingConfig(seed=6))
        sentences = [s for doc in docs for s in doc]
        assert calls == sentences
        assert (counts["documents"], counts["documents_skipped"]) == (7, 1)
        assert counts["sentences"] == len(sentences) - 2
        assert counts["pieces"] == sum(len(tokenize_text(s, vocab)) for s in sentences)
        assert all(sum(1 for _ in stream) > 0 for stream in streams)
        assert calls == sentences


# _mask_tokens inputs over ids 0-4 reserved ([CLS] 2, [SEP] 3, [MASK] 4),
# 5-14 word-initial pieces and 15-24 "##" pieces.
WORD_INITIAL = bytes([1] * 15 + [0] * 10)
MASK_ID = 4
RANDOM_IDS = range(100, 200)  # apart from every input id, so a replacement shows


def masking_input(words_a: list[int], words_b: list[int]) -> tuple[list[int], int]:
    """(ids, sep_a) of [CLS] A [SEP] B [SEP], each word of the given piece count."""

    def pieces(lengths):
        return [p for n in lengths for p in [5 + n % 10] + [15] * (n - 1)]

    a = pieces(words_a)
    return [2, *a, 3, *pieces(words_b), 3], len(a) + 1


class CountingRandom(random.Random):
    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def mask(words_a, words_b, rng, mask_prob=0.15):
    ids, sep_a = masking_input(words_a, words_b)
    positions, labels = pretrain._mask_tokens(
        ids, sep_a, WORD_INITIAL, MASK_ID, MaskingConfig(mask_prob=mask_prob), rng, RANDOM_IDS
    )
    return ids, positions, labels


class TestLazyWordDraw:
    """_mask_tokens draws the words in a uniformly random order, one word
    before each use, and stops once the budget is full."""

    def test_every_word_is_first_equally_often(self):
        # 10 one-piece words: a budget of floor(0.15 * 10) = 1 masks exactly
        # the first word drawn
        firsts = [0] * 13
        seeds = 3000
        for seed in range(seeds):
            _, positions, _ = mask([1] * 5, [1] * 5, random.Random(seed))
            assert len(positions) == 1
            firsts[positions[0]] += 1
        counts = firsts[1:6] + firsts[7:12]
        assert sum(counts) == seeds
        expected = seeds / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 27.88, counts  # the 0.999 quantile of chi-square with 9 degrees of freedom

    def test_a_budget_below_the_word_count_stops_the_draws_early(self):
        # 100 one-piece words and a budget of 15
        for seed in range(20):
            rng = CountingRandom(seed)
            _, positions, _ = mask([1] * 50, [1] * 50, rng)
            assert len(positions) == 15
            assert 15 <= rng.calls < 100

    def test_a_budget_that_cannot_be_filled_exactly_tries_every_word(self):
        # 20 two-piece words and a budget of floor(0.15 * 40) = 6 pieces are
        # filled exactly; a budget of 3 takes one word and then tries the rest
        for seed in range(20):
            rng = CountingRandom(seed)
            _, positions, _ = mask([2] * 10, [2] * 10, rng, mask_prob=0.09)
            assert len(positions) == 2
            assert rng.calls >= 19
        # with one one-piece word among them, the budget of 3 is always filled,
        # also where that word is drawn last
        for seed in range(200):
            _, positions, _ = mask([2] * 10, [2] * 9 + [1], random.Random(seed), mask_prob=0.09)
            assert len(positions) == 3

    def test_replacement_split_is_80_10_10(self):
        replaced = {"mask": 0, "random": 0, "keep": 0}
        for seed in range(400):
            ids, positions, labels = mask([1] * 50, [1] * 50, random.Random(seed))
            for pos, label in zip(positions, labels):
                shown = ids[pos]
                kind = "mask" if shown == MASK_ID else "random" if shown in RANDOM_IDS else "keep"
                assert kind != "keep" or shown == label
                replaced[kind] += 1
        n = sum(replaced.values())
        assert n == 400 * 15
        for kind, p in (("mask", 0.8), ("random", 0.1), ("keep", 0.1)):
            assert abs(replaced[kind] - n * p) <= 4.5 * math.sqrt(n * p * (1 - p)), replaced


def truncate_by_pops(tokens_a: list[int], tokens_b: list[int], max_num_tokens: int) -> None:
    """The reference for _truncate_pair: pop the longer segment's last piece
    until the pair fits, alternating A and B on ties, A first."""
    trim_a = True
    while len(tokens_a) + len(tokens_b) > max_num_tokens:
        if len(tokens_a) > len(tokens_b):
            tokens_a.pop()
        elif len(tokens_b) > len(tokens_a):
            tokens_b.pop()
        else:
            (tokens_a if trim_a else tokens_b).pop()
            trim_a = not trim_a


def test_truncate_pair_equals_popping_one_piece_at_a_time():
    for len_a in range(30):
        for len_b in range(30):
            for max_num_tokens in range(60):
                want = list(range(len_a)), list(range(100, 100 + len_b))
                got = list(range(len_a)), list(range(100, 100 + len_b))
                truncate_by_pops(*want, max_num_tokens)
                pretrain._truncate_pair(*got, max_num_tokens)
                assert got == want, (len_a, len_b, max_num_tokens)


# Documents of words over a-h, every one of which PINNED_PIECES splits
# without [UNK]; empty sentences stay in, and tokenize_documents drops them.
ORACLE_DOCUMENTS = st.lists(
    st.lists(
        st.lists(st.text("abcdefgh", min_size=1, max_size=9), max_size=14).map(" ".join),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=6,
)


def read_back(instances, seq_len: int, mask_prob: float = 0.15) -> list[TrainingInstance]:
    """The instances as read_instances decodes them from a written phase file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phase.bin")
        with open(path, "wb") as f:
            write_instances(instances, f, seq_len=seq_len, mask_prob=mask_prob)
        return list(read_instances(path))


# At 160 a full instance masks floor(0.15 * 157) = 23 pieces, more than
# BERT's 128-token cap of 20.
@pytest.mark.parametrize("seq_len", [32, 160])
@settings(max_examples=60, deadline=None)
@given(documents=ORACLE_DOCUMENTS, seed=st.integers(0, 2**32))
def test_instances_pass_the_independent_oracle(seq_len, documents, seed):
    cfg = MaskingConfig(seed=seed)
    [stream] = datasets(documents, Vocab(PINNED_PIECES), [seq_len], cfg)
    instances = list(stream)
    read = read_back(instances, seq_len, cfg.mask_prob)
    assert read == instances
    oracle_check_instances(read, documents, PINNED_PIECES, seq_len, cfg.mask_prob)


# magic, seq_len and max_masked
HEADER_SIZE = 12


def record_size(seq_len: int, max_masked: int) -> int:
    return 4 * seq_len + 3 * 2 + max_masked * (2 + 4) + 1


@st.composite
def phases(draw):
    """(seq_len, mask_prob, instances): arbitrary valid instances of one phase."""
    seq_len = draw(st.integers(16, 80))
    mask_prob = draw(st.sampled_from([0.05, 0.15, 0.5]))
    bound = int(mask_prob * (seq_len - 3))
    ids = st.integers(0, 2**32 - 1)
    instances = []
    for _ in range(draw(st.integers(0, 5))):
        len_a = draw(st.integers(1, seq_len - 4))
        len_b = draw(st.integers(1, seq_len - 3 - len_a))
        maskable = [*range(1, len_a + 1), *range(len_a + 2, len_a + len_b + 2)]
        positions = sorted(draw(st.sets(st.sampled_from(maskable), max_size=bound)))
        instances.append(
            TrainingInstance(
                token_ids=tuple(draw(st.lists(ids, min_size=seq_len, max_size=seq_len))),
                len_a=len_a,
                len_b=len_b,
                masked_positions=tuple(positions),
                masked_labels=tuple(draw(st.lists(ids, min_size=len(positions), max_size=len(positions)))),
                is_next=draw(st.booleans()),
            )
        )
    return seq_len, mask_prob, instances


@settings(max_examples=100, deadline=None)
@given(phase=phases())
def test_read_instances_returns_every_written_instance(phase):
    seq_len, mask_prob, instances = phase
    buf = io.BytesIO()
    assert write_instances(instances, buf, seq_len=seq_len, mask_prob=mask_prob) == len(instances)
    if not instances:
        assert len(buf.getvalue()) == HEADER_SIZE
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phase.bin")
        with open(path, "wb") as f:
            f.write(buf.getvalue())
        assert list(read_instances(path)) == instances
        assert count_instances(path) == len(instances)


def parent_format_record(instance: TrainingInstance) -> bytes:
    """The instance as the length-prefixed record of format version 1."""
    n, m = len(instance.token_ids), len(instance.masked_positions)
    body = struct.pack(
        f"<HH{n}I{2 * n}B{m}H{m}IB",
        n,
        m,
        *instance.token_ids,
        *instance.input_mask,
        *instance.segment_ids,
        *instance.masked_positions,
        *instance.masked_labels,
        instance.is_next,
    )
    return struct.pack("<I", len(body)) + body


class TestSerialization:
    def phase(self, toy_vocab, seed, n_docs=6):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(seed), n_docs=n_docs)
        return list(datasets(docs, vocab, [64], MaskingConfig(seed=5))[0])

    def written(self, instances, path, seq_len=64):
        with open(path, "wb") as f:
            write_instances(instances, f, seq_len=seq_len, mask_prob=0.15)
        return str(path)

    def test_round_trip(self, toy_vocab):
        instances = self.phase(toy_vocab, 13)
        buf = io.BytesIO()
        assert write_instances(instances, buf, seq_len=64, mask_prob=0.15) == len(instances)
        # floor(0.15 * 61) = 9 masked slots per record
        assert len(buf.getvalue()) == HEADER_SIZE + len(instances) * record_size(64, 9)

    def test_read_back_equals_written(self, toy_vocab, tmp_path):
        instances = self.phase(toy_vocab, 14)
        assert list(read_instances(self.written(instances, tmp_path / "insts.bin"))) == instances

    def test_truncated_record_detected(self, toy_vocab, tmp_path):
        path = tmp_path / "broken.bin"
        data = Path(self.written(self.phase(toy_vocab, 15, n_docs=2), path)).read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            list(read_instances(str(path)))
        with pytest.raises(ValueError, match="truncated"):
            count_instances(str(path))

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data, first: b"", "shorter than its 12-byte header"),
            (lambda data, first: data[:7], "shorter than its 12-byte header"),
            (lambda data, first: parent_format_record(first), "not b'BPINSTv2'"),
            (lambda data, first: b"BPINSTv1" + data[8:], "not b'BPINSTv2'"),
            (lambda data, first: data[: HEADER_SIZE + 1], "truncated"),
            # num_masked of the first record is 10, one above the bound of 9
            (lambda data, first: data[: HEADER_SIZE + 260] + b"\x0a\x00" + data[HEADER_SIZE + 262 :], "bound of 9"),
            # len_a of the first record is 62, so that A and B overrun 64
            (lambda data, first: data[: HEADER_SIZE + 256] + b"\x3e\x00" + data[HEADER_SIZE + 258 :], "do not fit"),
        ],
        ids=[
            "empty file",
            "partial header",
            "parent format",
            "wrong version",
            "cut inside a record",
            "masked count above the bound",
            "segments longer than seq_len",
        ],
    )
    def test_malformed_file_is_a_value_error(self, toy_vocab, tmp_path, damage, message):
        instances = self.phase(toy_vocab, 15, n_docs=2)
        data = Path(self.written(instances, tmp_path / "phase.bin")).read_bytes()
        path = tmp_path / "broken.bin"
        path.write_bytes(damage(data, instances[0]))
        with pytest.raises(ValueError, match=re.escape(message)):
            list(read_instances(str(path)))

    def test_pack_rejects_an_instance_that_does_not_fit_the_header(self, toy_vocab):
        instance = self.phase(toy_vocab, 15, n_docs=2)[0]
        assert len(pack_instance(instance, 64, 9)) == record_size(64, 9)
        for seq_len, max_masked in [(63, 9), (65, 9), (64, len(instance.masked_positions) - 1)]:
            with pytest.raises(ValueError, match="does not fit"):
                pack_instance(instance, seq_len, max_masked)

    def test_count_instances_reads_only_the_header(self, toy_vocab, tmp_path):
        instances = self.phase(toy_vocab, 16)
        path = tmp_path / "insts.bin"
        self.written(instances, path)
        assert count_instances(str(path)) == len(instances) > 0
        header = path.read_bytes()[:HEADER_SIZE]
        # records of arbitrary bytes, which read_instances would reject
        path.write_bytes(header + b"\xff" * (3 * record_size(64, 9)))
        assert count_instances(str(path)) == 3
        with pytest.raises(ValueError):
            list(read_instances(str(path)))

    def test_phase_without_instances_is_a_header_alone(self, tmp_path):
        path = self.written([], tmp_path / "empty.bin")
        assert os.path.getsize(path) == HEADER_SIZE
        assert count_instances(path) == 0
        assert list(read_instances(path)) == []

    def test_schema_sidecar_lists_fields_in_type_order(self, tmp_path):
        path = tmp_path / "data.schema.json"
        _write_json(str(path), instance_schema())
        schema = json.loads(path.read_text(encoding="utf-8"))
        assert [f["name"] for f in schema["header"]] == ["magic", "seq_len", "max_masked"]
        assert [f["name"] for f in schema["record"]] == [
            "token_ids",
            "len_a",
            "len_b",
            "num_masked",
            "masked_positions",
            "masked_labels",
            "is_next",
        ]
        assert schema == instance_schema()

    def test_sidecar_alone_decodes_a_record(self, toy_vocab, tmp_path):
        # The layout comes from data.schema.json alone: a dtype is a struct
        # code, and a count is a number or the name of a header field.
        schema = instance_schema()
        codes = {"bytes": "s", "u8": "B", "u16": "H", "u32": "I"}
        assert schema["endianness"] == "little"

        def layout(fields, header):
            counts = [f.get("count", 1) for f in fields]
            counts = [header[c] if isinstance(c, str) else c for c in counts]
            fmt = "<" + "".join(f"{c}{codes[f['dtype']]}" for f, c in zip(fields, counts))
            return struct.Struct(fmt), counts

        data = Path(self.written(self.phase(toy_vocab, 17), tmp_path / "phase.bin")).read_bytes()
        header_struct, _ = layout(schema["header"], {})
        header = dict(zip((f["name"] for f in schema["header"]), header_struct.unpack_from(data)))
        assert header["magic"] == schema["header"][0]["value"].encode("ascii")
        record_struct, counts = layout(schema["record"], header)
        flat = iter(record_struct.unpack_from(data, header_struct.size))
        record = {f["name"]: tuple(next(flat) for _ in range(c)) for f, c in zip(schema["record"], counts)}
        k = record["num_masked"][0]
        first = next(read_instances(str(tmp_path / "phase.bin")))
        assert (record["len_a"], record["len_b"]) == ((first.len_a,), (first.len_b,))
        assert record["token_ids"] == first.token_ids
        assert record["masked_positions"][:k] == first.masked_positions
        assert record["masked_labels"][:k] == first.masked_labels
        assert record["is_next"] == (first.is_next,)
        assert len(data) == header_struct.size + count_instances(str(tmp_path / "phase.bin")) * record_struct.size


class TestInstanceInvariants:
    TOKENS = (2, 10, 11, 3, 12, 3, 0, 0)  # [CLS] A A [SEP] B [SEP] [PAD] [PAD]

    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            TrainingInstance(self.TOKENS, 2, 1, (2, 1), (5, 6), True).check()

    @pytest.mark.parametrize("position", [0, 3, 5, 6, 8])
    def test_positions_in_range(self, position):
        TrainingInstance(self.TOKENS, 2, 1, (1, 2, 4), (5, 6, 7), False).check()
        with pytest.raises(ValueError, match="within A or B"):
            TrainingInstance(self.TOKENS, 2, 1, (position,), (7,), False).check()

    def test_labels_align_with_positions(self):
        with pytest.raises(ValueError):
            TrainingInstance(self.TOKENS, 2, 1, (1,), (), False).check()

    @pytest.mark.parametrize("len_a, len_b", [(0, 1), (2, 0), (3, 3)])
    def test_segments_must_be_non_empty_and_fit(self, len_a, len_b):
        with pytest.raises(ValueError, match="do not fit"):
            TrainingInstance(self.TOKENS, len_a, len_b, (), (), False).check()

    def test_pack_instance_checks_the_instance(self):
        with pytest.raises(ValueError, match="within A or B"):
            pack_instance(TrainingInstance(self.TOKENS, 2, 1, (3,), (7,), False), 8, 1)

    def test_mask_and_segment_ids_follow_from_the_lengths(self):
        instance = TrainingInstance(self.TOKENS, 2, 1, (), (), True)
        assert instance.input_mask == (1, 1, 1, 1, 1, 1, 0, 0)
        assert instance.segment_ids == (0, 0, 0, 0, 1, 1, 0, 0)


def test_read_documents(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("s one\ns two\n\n\ns three\n", encoding="utf-8")
    assert read_documents(str(path)) == [["s one", "s two"], ["s three"]]


# Pieces of a hand-written vocabulary: every letter a-h as an initial and a
# continuation piece, some longer pieces so that most words split into
# several, and "##x" so that the corpus word spelled "##x" is one piece.
PINNED_PIECES = [
    *RESERVED_TOKENS,
    *"abcdefgh",
    *("##" + c for c in "abcdefgh"),
    "ab", "ba", "cab", "dead", "fed", "gag", "##ab", "##de", "##fgh", "##ce", "##x",
]


def pinned_corpus():
    """Fixed documents: multi-piece words, one "##x" word, one [UNK] word
    and one document without any tokenizable sentence."""
    rng = random.Random(2020)
    lexicon = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 9))) for _ in range(40)]
    lexicon += ["##x", "zz"]
    docs = [
        [" ".join(rng.choice(lexicon) for _ in range(rng.randint(2, 16))) for _ in range(rng.randint(1, 7))]
        for _ in range(11)
    ]
    docs.insert(4, ["  ", ""])
    return docs


def stream_sha256(stream, seq_len: int) -> str:
    buf = io.BytesIO()
    write_instances(stream, buf, seq_len=seq_len, mask_prob=0.15)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def instances_sha256(stream) -> str:
    """The sha256 of the decoded fields of every instance, independent of
    how the instances are serialized."""
    digest = hashlib.sha256()
    for inst in stream:
        fields = (
            inst.token_ids,
            inst.input_mask,
            inst.segment_ids,
            inst.masked_positions,
            inst.masked_labels,
            inst.is_next,
        )
        digest.update(repr(fields).encode("ascii"))
    return digest.hexdigest()


class TestPinnedBytes:
    """Instances pinned by sha256, as written bytes and as decoded fields: a
    refactor of generation must keep both, and a change of the file format
    only the decoded fields."""

    CFG = MaskingConfig(seed=1234, dupe_factor=2)

    def test_phase_datasets_bytes(self):
        vocab = Vocab(PINNED_PIECES)
        streams = datasets(pinned_corpus(), vocab, [32, 64], self.CFG)
        assert [stream_sha256(s, seq_len) for s, seq_len in zip(streams, [32, 64])] == [
            "914936299d3a2f10b3369e168e4c0215cf480047f1effd66dd412eb7ead08612",
            "da31b4dc8bd2138d882ef58337a56f6732feb7cbb080a521d02b7b912e996c75",
        ]

    def test_units_cut_anywhere_write_the_phase_file(self):
        vocab = Vocab(PINNED_PIECES)
        tokenized, _ = tokenize_documents(pinned_corpus(), vocab)
        units = phase_units(1, self.CFG.dupe_factor, len(tokenized))
        assert len(units) == 2 * len(tokenized)
        for cut in range(1, len(units)):
            buf = io.BytesIO()
            for i, run in enumerate((units[:cut], units[cut:])):
                stream = unit_instances(tokenized, vocab, [32, 64], self.CFG, run)
                write_instances(stream, buf, seq_len=64, mask_prob=0.15, header=i == 0)
            assert hashlib.sha256(buf.getvalue()).hexdigest() == (
                "da31b4dc8bd2138d882ef58337a56f6732feb7cbb080a521d02b7b912e996c75"
            ), cut

    def test_phase_datasets_instances(self):
        vocab = Vocab(PINNED_PIECES)
        streams = datasets(pinned_corpus(), vocab, [32, 64], self.CFG)
        assert [instances_sha256(s) for s in streams] == [
            "b2f2127f97326721ab2ad33e3e438242dea06a4d93bf02947fc3a2e7e37cf291",
            "77169aee995ade9ee28a0273fc4c550141a85e71c8577103ba91129bdd9702fe",
        ]

    def test_phase_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([pinned_corpus(), PINNED_PIECES]), encoding="utf-8")
        probe = (
            "import json, sys\n"
            "from bertpipe.pretrain import MaskingConfig, phase_units, tokenize_documents, unit_instances, write_instances\n"
            "from bertpipe.vocab import Vocab\n"
            "docs, pieces = json.load(open(sys.argv[1], encoding='utf-8'))\n"
            "cfg, vocab = MaskingConfig(seed=1234, dupe_factor=2), Vocab(pieces)\n"
            "tokenized, _ = tokenize_documents(docs, vocab)\n"
            "for k in range(2):\n"
            "    stream = unit_instances(tokenized, vocab, [32, 64], cfg, phase_units(k, 2, len(tokenized)))\n"
            "    with open(f'{sys.argv[2]}{k}.bin', 'wb') as f:\n"
            "        write_instances(stream, f, seq_len=[32, 64][k], mask_prob=cfg.mask_prob)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(pretrain.__file__)))
        written = []
        for seed in ("0", "1"):
            prefix = str(tmp_path / f"seed{seed}-phase")
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", probe, str(corpus), prefix],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=env,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            written.append([Path(f"{prefix}{k}.bin").read_bytes() for k in range(2)])
        assert written[0] == written[1]
        here = datasets(pinned_corpus(), Vocab(PINNED_PIECES), [32, 64], self.CFG)
        assert [hashlib.sha256(b).hexdigest() for b in written[0]] == [
            stream_sha256(s, seq_len) for s, seq_len in zip(here, [32, 64])
        ]
