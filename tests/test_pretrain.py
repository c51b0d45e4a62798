import hashlib
import io
import json
import random
import struct

import pytest
from conftest import oracle_check_instances
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe import pretrain
from bertpipe.corpus import read_documents
from bertpipe.pretrain import (
    MAX_SEQ_LEN,
    GenerationStats,
    MaskingConfig,
    TrainingInstance,
    count_instances,
    instance_schema,
    pack_instance,
    phase_datasets,
    read_instances,
    write_instances,
    write_schema,
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


class TestBuildInstances:
    """Instance building, through phase_datasets with one phase."""

    def test_packing_bounds(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(1))
        instances = list(phase_datasets(docs, vocab, [128], MaskingConfig(seed=5))[0])
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
        for inst in phase_datasets(docs, vocab, [64], MaskingConfig(seed=3))[0]:
            originals = restore_original_ids(inst)
            for pos in inst.masked_positions:
                assert originals[pos] not in (vocab.cls_id, vocab.sep_id, vocab.pad_id)

    def test_whole_word_atomicity(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(3), n_docs=40)
        checked_multi = 0
        for inst in phase_datasets(docs, vocab, [128], MaskingConfig(seed=11))[0]:
            originals = restore_original_ids(inst)
            masked = set(inst.masked_positions)
            for group in word_groups(originals, vocab):
                hit = [p for p in group if p in masked]
                if hit:
                    assert len(hit) == len(group), (group, sorted(masked))
                    if len(group) > 1:
                        checked_multi += 1
        assert checked_multi > 0, "fixture never masked a multi-piece word"

    def test_labels_hold_original_ids_regardless_of_replacement(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(4), n_docs=10)
        keep_all = MaskingConfig(
            replace_mask=0.0, replace_random=0.0, seed=8
        )
        for inst in phase_datasets(docs, vocab, [64], keep_all)[0]:
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                assert inst.token_ids[pos] == label

    def test_random_replacement_never_uses_reserved_ids(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(5), n_docs=10)
        random_all = MaskingConfig(
            replace_mask=0.0, replace_random=1.0, seed=9
        )
        reserved = {vocab.piece_ids[t] for t in RESERVED_TOKENS}
        seen_replacement = 0
        for inst in phase_datasets(docs, vocab, [64], random_all)[0]:
            for pos, label in zip(inst.masked_positions, inst.masked_labels):
                assert inst.token_ids[pos] not in reserved
                if inst.token_ids[pos] != label:
                    seen_replacement += 1
        assert seen_replacement > 0

    def test_mask_replacement_uses_mask_token(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(6), n_docs=10)
        mask_all = MaskingConfig(
            replace_mask=1.0, replace_random=0.0, seed=10
        )
        for inst in phase_datasets(docs, vocab, [64], mask_all)[0]:
            for pos in inst.masked_positions:
                assert inst.token_ids[pos] == vocab.mask_id

    def test_deterministic_under_fixed_seed(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(7))
        cfg = MaskingConfig(seed=21)
        a = list(phase_datasets(docs, vocab, [96], cfg)[0])
        b = list(phase_datasets(docs, vocab, [96], cfg)[0])
        assert a == b
        c = list(phase_datasets(docs, vocab, [96], MaskingConfig(seed=22))[0])
        assert a != c

    def test_document_without_tokenizable_sentences_is_skipped(self, toy_vocab):
        vocab, lexicon = toy_vocab
        stats = GenerationStats()
        docs = [[" ", ""], [lexicon[0] + " " + lexicon[1]] * 4]
        list(phase_datasets(docs, vocab, [32], MaskingConfig(seed=1), stats)[0])
        assert stats.documents_in == 2
        assert stats.documents_skipped == 1

    def test_short_max_seq_len_rejected(self, toy_vocab):
        vocab, _ = toy_vocab
        with pytest.raises(ValueError):
            phase_datasets([["a"]], vocab, [8], MaskingConfig())

    def test_masked_count_floors_over_non_special_positions(self):
        # With one-piece words, masking stops exactly at its target count,
        # which at 256 goes past BERT's 128-token cap of 20.
        vocab = Vocab(RESERVED_TOKENS + list("abcdefgh"))
        docs = make_docs(list("abcdefgh"), random.Random(17), n_docs=20, sents=(1, 40), words=(1, 12))
        counts = set()
        for inst in phase_datasets(docs, vocab, [256], MaskingConfig(seed=7))[0]:
            expected = int(0.15 * (sum(inst.input_mask) - 3))
            assert len(inst.masked_positions) == expected
            counts.add(expected)
        assert len(counts) > 2 and max(counts) > 20

    def test_max_seq_len_above_u16_rejected(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = [[lexicon[0]]]
        instances = list(phase_datasets(docs, vocab, [MAX_SEQ_LEN], MaskingConfig())[0])
        assert [len(i.token_ids) for i in instances] == [MAX_SEQ_LEN]
        with pytest.raises(ValueError, match="max_seq_len"):
            phase_datasets(docs, vocab, [MAX_SEQ_LEN + 1], MaskingConfig())
        with pytest.raises(ValueError, match="max_seq_len"):
            phase_datasets(docs, vocab, [128, MAX_SEQ_LEN + 1], MaskingConfig())

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
        instances = list(phase_datasets(docs, vocab, [48], MaskingConfig(seed=2, dupe_factor=3))[0])
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
        once = list(phase_datasets(docs, vocab, [64], MaskingConfig(seed=2))[0])
        twice = list(
            phase_datasets(docs, vocab, [64], MaskingConfig(seed=2, dupe_factor=2))[0]
        )
        assert len(twice) >= 2 * len(once) - len(docs)  # chunking identical per pass
        assert twice[: len(once)] == once


class TestPhaseDatasets:
    def test_one_stream_per_phase_with_phase_lengths(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(10))
        streams = phase_datasets(docs, vocab, [128, 512], MaskingConfig(seed=6))
        lengths = []
        for stream in streams:
            batch = list(stream)
            assert batch
            lengths.append({len(i.token_ids) for i in batch})
        assert lengths == [{128}, {512}]

    def test_single_phase_plan_single_stream(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(11), n_docs=5)
        streams = phase_datasets(docs, vocab, [32], MaskingConfig(seed=6))
        assert len(streams) == 1
        assert all(len(i.token_ids) == 32 for i in streams[0])

    def test_streams_serialize_identically_for_same_seed(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(12), n_docs=8)

        def serialize():
            out = []
            for stream in phase_datasets(docs, vocab, [64, 128], MaskingConfig(seed=33)):
                buf = io.BytesIO()
                write_instances(stream, buf)
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
        stats = GenerationStats()
        streams = phase_datasets(docs, vocab, [32, 64, 128], MaskingConfig(seed=6), stats)
        sentences = [s for doc in docs for s in doc]
        assert calls == sentences
        assert (stats.documents_in, stats.documents_skipped) == (7, 1)
        assert stats.sentences == len(sentences) - 2
        assert stats.pieces == sum(len(tokenize_text(s, vocab)) for s in sentences)
        assert all(sum(1 for _ in stream) > 0 for stream in streams)
        assert calls == sentences


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 600), seed=st.integers())
def test_inline_shuffle_draws_like_random_shuffle(n, seed):
    expected, rng = random.Random(seed), random.Random(seed)
    want, got = list(range(n)), list(range(n))
    expected.shuffle(want)
    pretrain._shuffle(got, rng.getrandbits)
    assert got == want
    assert rng.getstate() == expected.getstate()


# Documents of words over a-h, every one of which PINNED_PIECES splits
# without [UNK]; empty sentences stay in, and phase_datasets drops them.
ORACLE_DOCUMENTS = st.lists(
    st.lists(
        st.lists(st.text("abcdefgh", min_size=1, max_size=9), max_size=14).map(" ".join),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=6,
)


# At 160 a full instance masks floor(0.15 * 157) = 23 pieces, more than
# BERT's 128-token cap of 20.
@pytest.mark.parametrize("seq_len", [32, 160])
@settings(max_examples=60, deadline=None)
@given(documents=ORACLE_DOCUMENTS, seed=st.integers(0, 2**32))
def test_instances_pass_the_independent_oracle(seq_len, documents, seed):
    cfg = MaskingConfig(seed=seed)
    [stream] = phase_datasets(documents, Vocab(PINNED_PIECES), [seq_len], cfg)
    oracle_check_instances(list(stream), documents, PINNED_PIECES, seq_len, cfg.mask_prob)


class TestSerialization:
    def test_round_trip(self, toy_vocab):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(13), n_docs=6)
        instances = list(phase_datasets(docs, vocab, [64], MaskingConfig(seed=5))[0])
        buf = io.BytesIO()
        assert write_instances(instances, buf) == len(instances)
        path_bytes = buf.getvalue()
        assert len(path_bytes) > 0

    def test_read_back_equals_written(self, toy_vocab, tmp_path):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(14), n_docs=6)
        instances = list(phase_datasets(docs, vocab, [64], MaskingConfig(seed=5))[0])
        path = tmp_path / "insts.bin"
        with open(path, "wb") as f:
            write_instances(instances, f)
        assert list(read_instances(str(path))) == instances

    def test_truncated_record_detected(self, toy_vocab, tmp_path):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(15), n_docs=2)
        instances = list(phase_datasets(docs, vocab, [64], MaskingConfig(seed=5))[0])
        payload = pack_instance(instances[0])
        path = tmp_path / "broken.bin"
        path.write_bytes(payload[: len(payload) - 3])
        with pytest.raises(ValueError, match="truncated"):
            list(read_instances(str(path)))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda record: record + b"\x07\x00",
            lambda record: struct.pack("<I", len(record) - 7) + record[4:-3],
            lambda record: struct.pack("<I", len(record) - 3) + record[4:] + b"\x00",
        ],
        ids=["partial length prefix", "body shorter than its counts", "body longer than its counts"],
    )
    def test_malformed_record_is_a_value_error(self, toy_vocab, tmp_path, damage):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(15), n_docs=2)
        record = pack_instance(next(phase_datasets(docs, vocab, [64], MaskingConfig(seed=5))[0]))
        path = tmp_path / "broken.bin"
        path.write_bytes(damage(record))
        with pytest.raises(ValueError, match="instance record"):
            list(read_instances(str(path)))

    def test_count_instances_reads_only_the_length_prefixes(self, toy_vocab, tmp_path):
        vocab, lexicon = toy_vocab
        docs = make_docs(lexicon, random.Random(16), n_docs=6)
        instances = list(phase_datasets(docs, vocab, [64], MaskingConfig(seed=5))[0])
        path = tmp_path / "insts.bin"
        with open(path, "wb") as f:
            write_instances(instances, f)
        assert count_instances(str(path)) == len(instances) > 0
        # a record whose body disagrees with its counts is still one record
        with open(path, "ab") as f:
            f.write(struct.pack("<I", 2) + b"\x00\x00")
        assert count_instances(str(path)) == len(instances) + 1
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(ValueError, match="truncated"):
            count_instances(str(path))

    def test_empty_file_holds_no_instances(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert count_instances(str(path)) == 0
        assert list(read_instances(str(path))) == []

    def test_schema_sidecar_lists_fields_in_type_order(self, tmp_path):
        path = tmp_path / "data.schema.json"
        with open(path, "w", encoding="utf-8") as f:
            write_schema(f)
        schema = json.loads(path.read_text())
        names = [f["name"] for f in schema["record"]]
        assert names == [
            "record_len",
            "seq_len",
            "num_masked",
            "token_ids",
            "input_mask",
            "segment_ids",
            "masked_positions",
            "masked_labels",
            "is_next",
        ]
        assert schema == instance_schema()


class TestInstanceInvariants:
    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            TrainingInstance((1, 2, 3), (1, 1, 1), (0, 0, 0), (2, 1), (5, 6), True)

    def test_positions_in_range(self):
        with pytest.raises(ValueError):
            TrainingInstance((1, 2), (1, 1), (0, 0), (5,), (7,), False)

    def test_labels_align_with_positions(self):
        with pytest.raises(ValueError):
            TrainingInstance((1, 2), (1, 1), (0, 0), (0,), (), False)


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


def stream_sha256(stream) -> str:
    buf = io.BytesIO()
    write_instances(stream, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


class TestPinnedBytes:
    """Instance bytes pinned by sha256: a refactor of generation must keep them."""

    CFG = MaskingConfig(seed=1234, dupe_factor=2)

    def test_phase_datasets_bytes(self):
        vocab = Vocab(PINNED_PIECES)
        streams = phase_datasets(pinned_corpus(), vocab, [32, 64], self.CFG)
        assert [stream_sha256(s) for s in streams] == [
            "d2e9e04da39109174f7a792932d40053f2a5a2c4e222c69f42e19151b359c37d",
            "d1a708083de422d94763f9fa90a4e3246a99d0f3759a6540794a4982cfd171bf",
        ]
