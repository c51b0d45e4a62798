import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe.evaluation.ner import (
    LabelMap,
    _spans,
    harmonize,
    ner_scores,
    parse_ner,
)

from conftest import oracle_chunk_prf, oracle_macro_f1, oracle_prf

LABELS = ("PER", "LOC", "ORG", "O")


def sentence(labels):
    return tuple(labels)


class TestParseNer:
    def test_two_token_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("John\tB-PER\n.\tO\n", encoding="utf-8")
        sents = parse_ner(str(path))
        assert len(sents) == 1
        assert sents[0] == ("B-PER", "O")

    def test_crlf_same_as_lf(self, tmp_path):
        lf = tmp_path / "lf.tsv"
        crlf = tmp_path / "crlf.tsv"
        lf.write_text("a\tO\nb\tO\n\nc\tO\n", encoding="utf-8")
        crlf.write_bytes(b"a\tO\r\nb\tO\r\n\r\nc\tO\r\n")
        assert parse_ner(str(lf)) == parse_ner(str(crlf))

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tO\n\n\n\n", encoding="utf-8")
        assert len(parse_ner(str(path))) == 1

    def test_ragged_line_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tO\nno_tag_here\nb\tO\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            parse_ner(str(path))

    def test_not_utf8_error_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("Päike\tO\n".encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
            parse_ner(str(path))

    def test_empty_file_empty_list(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert parse_ner(str(path)) == []

    def test_token_count_matches_line_count_oracle(self, tmp_path):
        rng = random.Random(6)
        lines = []
        non_blank = 0
        for _ in range(1000):
            for _ in range(rng.randint(1, 12)):
                lines.append(f"tok{rng.randint(0, 99)}\t{rng.choice(LABELS)}")
                non_blank += 1
            lines.append("")
        path = tmp_path / "big.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sents = parse_ner(str(path))
        assert sum(len(s) for s in sents) == non_blank


class TestHarmonize:
    def test_direct_mapping(self):
        m = LabelMap({"PERSON": "PER", "GPE": "LOC", "O": "O"})
        out = harmonize([sentence(("B-PERSON", "I-PERSON", "GPE", "O"))], m)
        assert out[0] == ("B-PER", "I-PER", "LOC", "O")

    def test_bio_prefix_kept_and_o_class_loses_it(self):
        m = LabelMap({"PER": "PER", "LOC": "LOC", "ORG": "ORG", "MISC": "O", "O": "O"})
        out = harmonize([sentence(("B-PER", "I-PER", "B-MISC", "I-MISC", "O"))], m)
        assert out[0] == ("B-PER", "I-PER", "O", "O", "O")

    def test_identity_on_four_label_corpus(self):
        sents = [sentence(("PER", "O", "ORG", "LOC"))]
        out = harmonize(sents, LabelMap.identity())
        assert out == sents

    def test_idempotent_under_identity_map(self):
        sents = [sentence(("B-PER", "I-PER", "O", "ORG"))]
        once = harmonize(sents, LabelMap.identity())
        assert once == sents
        assert harmonize(once, LabelMap.identity()) == once

    def test_unmapped_tag_error_names_tag(self):
        m = LabelMap({"PER": "PER", "O": "O"})
        with pytest.raises(ValueError, match="DERIV-PER"):
            harmonize([sentence(("DERIV-PER",))], m)
        with pytest.raises(ValueError, match="I-MISC"):
            harmonize([sentence(("I-MISC",))], m)

    def test_map_must_land_in_four_labels(self):
        with pytest.raises(ValueError, match="MISC"):
            LabelMap({"MISC": "MISC"})

    @pytest.mark.parametrize("key", ["B-PER", "I-MISC"])
    def test_prefixed_map_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key}.*prefix"):
            LabelMap({key: "PER"})

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"map": {"PER": "PER", "MISC": "O", "O": "O"}}', encoding="utf-8")
        m = LabelMap.load(str(path))
        assert m.resolve("B-PER") == "B-PER"
        assert m.resolve("I-MISC") == "O"


    def test_load_rejects_a_repeated_class(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"map": {"PER": "PER", "MISC": "O", "PER": "O"}}', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"label map {path}: repeated key 'PER'")):
            LabelMap.load(str(path))

class TestNerScores:
    def test_perfect_predictions(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        metrics = ner_scores(gold, gold)
        assert metrics["macro_f1"] == 1.0

    def test_all_o_predictions(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        pred = [sentence(("O", "O", "O", "O"))]
        metrics = ner_scores(gold, pred)
        assert metrics["macro_f1"] == 0.0
        for label in ("per", "loc", "org"):
            assert metrics[f"f1_{label}"] == 0.0

    def test_mixed_case_against_confusion_matrix_oracle(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        pred = [sentence(("PER", "PER", "ORG", "O"))]
        metrics = ner_scores(gold, pred)
        g, p = list(gold[0]), list(pred[0])
        for label in ("PER", "LOC", "ORG"):
            precision, recall, f1 = oracle_prf(g, p, label)
            key = label.lower()
            assert metrics[f"precision_{key}"] == precision
            assert metrics[f"recall_{key}"] == recall
            assert metrics[f"f1_{key}"] == f1
        assert metrics["macro_f1"] == oracle_macro_f1(g, p)

    def test_shape_mismatch_names_first_offending_sentence(self):
        gold = [sentence(("O",)), sentence(("O", "O"))]
        pred = [sentence(("O",)), sentence(("O",))]
        with pytest.raises(ValueError, match="sentence 1"):
            ner_scores(gold, pred)

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError, match="sentences"):
            ner_scores([sentence(("O",))], [])

    def test_permutation_invariance(self):
        rng = random.Random(8)
        gold = [sentence([rng.choice(LABELS) for _ in range(rng.randint(1, 9))]) for _ in range(40)]
        pred = [sentence([rng.choice(LABELS) for _ in range(len(g))]) for g in gold]
        base = ner_scores(gold, pred)
        order = list(range(len(gold)))
        rng.shuffle(order)
        shuffled = ner_scores([gold[i] for i in order], [pred[i] for i in order])
        assert base == shuffled

    def test_span_level_flag(self):
        gold = [sentence(("PER", "PER", "O", "ORG", "LOC"))]
        pred_exact = [sentence(("PER", "PER", "O", "ORG", "LOC"))]
        pred_partial = [sentence(("PER", "O", "O", "ORG", "LOC"))]
        assert ner_scores(gold, pred_exact, span_level=True)["macro_f1"] == 1.0
        partial = ner_scores(gold, pred_partial, span_level=True)
        assert partial["f1_per"] == 0.0  # span boundaries must match exactly
        assert partial["f1_org"] == 1.0

    def test_zero_support_class_contributes_zero_to_macro(self):
        gold = [sentence(("PER", "O", "ORG"))]
        metrics = ner_scores(gold, gold)
        assert metrics["f1_loc"] == 0.0
        assert metrics["macro_f1"] == pytest.approx(2 / 3)

@pytest.mark.parametrize(
    "tags, chunks",
    [
        (("B-PER", "B-PER"), {(0, 1, "PER"), (1, 2, "PER")}),
        (("B-PER", "I-PER"), {(0, 2, "PER")}),
        (("O", "I-PER", "I-PER"), {(1, 3, "PER")}),
        (("B-PER", "I-LOC"), {(0, 1, "PER"), (1, 2, "LOC")}),
        (("I-PER", "B-PER", "I-PER"), {(0, 1, "PER"), (1, 3, "PER")}),
        (("PER", "PER", "O", "LOC"), {(0, 2, "PER"), (3, 4, "LOC")}),
        (("B-PER", "PER", "B-PER"), {(0, 2, "PER"), (2, 3, "PER")}),
        (("O", "O"), set()),
        ((), set()),
    ],
)
def test_spans_are_conlleval_chunks(tags, chunks):
    assert _spans(tags) == chunks


def test_adjacent_same_class_entities_are_two_spans():
    gold = [sentence(("B-PER", "B-PER"))]
    pred = [sentence(("B-PER", "I-PER"))]
    assert ner_scores(gold, pred, span_level=True)["f1_per"] == 0.0
    assert ner_scores(gold, pred)["f1_per"] == 1.0


def random_tagged(seed, n_sentences):
    """Gold and predicted tag lists of equal lengths, with B-, I- and bare tags."""
    rng = random.Random(seed)

    def tags(length):
        classes = [rng.choice(LABELS) for _ in range(length)]
        return [c if c == "O" else rng.choice(("B-", "I-", "")) + c for c in classes]

    lengths = [rng.randint(0, 12) for _ in range(n_sentences)]
    return [tags(n) for n in lengths], [tags(n) for n in lengths]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(1, 8))
def test_span_scores_match_conlleval_oracle(seed, n_sentences):
    gold, pred = random_tagged(seed, n_sentences)
    metrics = ner_scores([sentence(g) for g in gold], [sentence(p) for p in pred], span_level=True)
    f1s = []
    for label in ("PER", "LOC", "ORG"):
        precision, recall, f1 = oracle_chunk_prf(gold, pred, label)
        key = label.lower()
        assert (metrics[f"precision_{key}"], metrics[f"recall_{key}"], metrics[f"f1_{key}"]) == (
            precision, recall, f1
        )
        f1s.append(f1)
    assert metrics["macro_f1"] == pytest.approx(sum(f1s) / 3, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sentences=st.integers(1, 8))
def test_scores_match_oracle(seed, n_sentences):
    # token-level scores strip each tag's prefix, then count classes
    gold, pred = random_tagged(seed, n_sentences)
    label_map = LabelMap.identity()
    metrics = ner_scores(
        harmonize([sentence(g) for g in gold], label_map), harmonize([sentence(p) for p in pred], label_map)
    )
    flat_gold = [t.removeprefix("B-").removeprefix("I-") for g in gold for t in g]
    flat_pred = [t.removeprefix("B-").removeprefix("I-") for p in pred for t in p]
    for label in ("PER", "LOC", "ORG"):
        key = label.lower()
        assert (metrics[f"precision_{key}"], metrics[f"recall_{key}"], metrics[f"f1_{key}"]) == oracle_prf(
            flat_gold, flat_pred, label
        )
    assert metrics["macro_f1"] == pytest.approx(oracle_macro_f1(flat_gold, flat_pred), rel=1e-12)
    assert all(0.0 <= v <= 1.0 for v in metrics.values())
