import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe.evaluation.ner import (
    LabelMap,
    NerSentence,
    harmonize,
    ner_scores,
    parse_ner,
)

from conftest import oracle_macro_f1, oracle_prf

LABELS = ("PER", "LOC", "ORG", "O")


def sentence(labels, tokens=None):
    tokens = tokens or tuple(f"t{i}" for i in range(len(labels)))
    return NerSentence(tuple(tokens), tuple(labels))


class TestParseNer:
    def test_two_token_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("John\tB-PER\n.\tO\n", encoding="utf-8")
        sents = parse_ner(str(path))
        assert len(sents) == 1
        assert sents[0].tokens == ("John", ".")
        assert sents[0].labels == ("B-PER", "O")

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
        m = LabelMap(
            {"B-PER": "PER", "I-PER": "PER", "B-MISC": "O", "O": "O"}, "passthrough"
        )
        out = harmonize([sentence(("B-PER", "I-PER", "B-MISC"))], m)
        assert out[0].labels == ("PER", "PER", "O")

    def test_strip_prefix_reduces_bio(self):
        m = LabelMap({"PER": "PER", "LOC": "LOC", "ORG": "ORG", "MISC": "O", "O": "O"})
        out = harmonize([sentence(("B-PER", "I-PER", "B-MISC", "O"))], m)
        assert out[0].labels == ("PER", "PER", "O", "O")

    def test_identity_on_four_label_corpus(self):
        sents = [sentence(("PER", "O", "ORG", "LOC"))]
        out = harmonize(sents, LabelMap.identity())
        assert out == sents

    def test_idempotent_under_identity_map(self):
        sents = [sentence(("PER", "O", "ORG"))]
        once = harmonize(sents, LabelMap.identity())
        assert harmonize(once, LabelMap.identity()) == once

    def test_unmapped_tag_error_names_tag(self):
        m = LabelMap({"PER": "PER", "O": "O"}, "passthrough")
        with pytest.raises(ValueError, match="DERIV-PER"):
            harmonize([sentence(("DERIV-PER",))], m)

    def test_map_must_land_in_four_labels(self):
        with pytest.raises(ValueError, match="MISC"):
            LabelMap({"B-MISC": "MISC"})

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            '{"map": {"PER": "PER", "O": "O"}, "bio_handling": "strip_prefix"}',
            encoding="utf-8",
        )
        m = LabelMap.load(str(path))
        assert m.resolve("B-PER") == "PER"


class TestNerScores:
    def test_perfect_predictions(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        report = ner_scores(gold, gold)
        assert report.metrics["macro_f1"] == 1.0

    def test_all_o_predictions(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        pred = [sentence(("O", "O", "O", "O"))]
        report = ner_scores(gold, pred)
        assert report.metrics["macro_f1"] == 0.0
        for label in ("per", "loc", "org"):
            assert report.metrics[f"f1_{label}"] == 0.0

    def test_mixed_case_against_confusion_matrix_oracle(self):
        gold = [sentence(("PER", "O", "ORG", "LOC"))]
        pred = [sentence(("PER", "PER", "ORG", "O"))]
        report = ner_scores(gold, pred)
        g, p = list(gold[0].labels), list(pred[0].labels)
        for label in ("PER", "LOC", "ORG"):
            precision, recall, f1 = oracle_prf(g, p, label)
            key = label.lower()
            assert report.metrics[f"precision_{key}"] == precision
            assert report.metrics[f"recall_{key}"] == recall
            assert report.metrics[f"f1_{key}"] == f1
        assert report.metrics["macro_f1"] == oracle_macro_f1(g, p)

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
        base = ner_scores(gold, pred).metrics
        order = list(range(len(gold)))
        rng.shuffle(order)
        shuffled = ner_scores([gold[i] for i in order], [pred[i] for i in order]).metrics
        assert base == shuffled

    def test_span_level_flag(self):
        gold = [sentence(("PER", "PER", "O", "ORG", "LOC"))]
        pred_exact = [sentence(("PER", "PER", "O", "ORG", "LOC"))]
        pred_partial = [sentence(("PER", "O", "O", "ORG", "LOC"))]
        assert ner_scores(gold, pred_exact, span_level=True).metrics["macro_f1"] == 1.0
        partial = ner_scores(gold, pred_partial, span_level=True).metrics
        assert partial["f1_per"] == 0.0  # span boundaries must match exactly
        assert partial["f1_org"] == 1.0

    def test_zero_support_class_contributes_zero_to_macro(self):
        gold = [sentence(("PER", "O", "ORG"))]
        report = ner_scores(gold, gold)
        assert report.metrics["f1_loc"] == 0.0
        assert report.metrics["macro_f1"] == pytest.approx(2 / 3)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sentences=st.integers(1, 8),
)
def test_scores_match_oracle(seed, n_sentences):
    rng = random.Random(seed)
    gold, pred = [], []
    for _ in range(n_sentences):
        length = rng.randint(1, 12)
        gold.append(sentence([rng.choice(LABELS) for _ in range(length)]))
        pred.append(sentence([rng.choice(LABELS) for _ in range(length)]))
    report = ner_scores(gold, pred)
    flat_gold = [l for s in gold for l in s.labels]
    flat_pred = [l for s in pred for l in s.labels]
    assert report.metrics["macro_f1"] == pytest.approx(
        oracle_macro_f1(flat_gold, flat_pred), rel=1e-12
    )
    assert all(0.0 <= v <= 1.0 for v in report.metrics.values())
