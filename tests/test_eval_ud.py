import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe.evaluation.ud import (
    UdToken,
    attachment_scores,
    parse_conllu,
    upos_accuracy,
)

from conftest import oracle_accuracy, oracle_attachment

UPOS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "PUNCT", "DET")
DEPRELS = ("nsubj", "obj", "root", "nmod", "nmod:poss", "punct", "det")


def conllu_line(i, form="w", upos="NOUN", head=0, deprel="root"):
    return f"{i}\t{form}\t_\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def write_conllu(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def random_sentences(rng, n_sentences, with_subtypes=False):
    sentences = []
    for _ in range(n_sentences):
        length = rng.randint(1, 10)
        sentences.append(
            [
                UdToken(
                    id=i + 1,
                    upos=rng.choice(UPOS_TAGS),
                    head=rng.randint(0, length),
                    deprel=rng.choice(DEPRELS if with_subtypes else DEPRELS[:4]),
                )
                for i in range(length)
            ]
        )
    return sentences


class TestParseConllu:
    def test_minimal_two_token_sentence(self, tmp_path):
        path = write_conllu(
            tmp_path,
            "a.conllu",
            ["# sent_id = 1", conllu_line(1, "quick", "ADJ", 2, "amod"), conllu_line(2, "fox", "NOUN", 0, "root")],
        )
        sents = parse_conllu(path)
        assert len(sents) == 1
        assert [t.head for t in sents[0]] == [2, 0]
        assert [t.upos for t in sents[0]] == ["ADJ", "NOUN"]

    def test_multiword_range_line_excluded(self, tmp_path):
        path = write_conllu(
            tmp_path,
            "mwt.conllu",
            [
                "3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_".replace("3-4", "1-2"),
                conllu_line(1, "de", "ADP", 2, "case"),
                conllu_line(2, "el", "DET", 0, "root"),
            ],
        )
        sents = parse_conllu(path)
        assert len(sents[0]) == 2

    def test_empty_node_excluded(self, tmp_path):
        path = write_conllu(
            tmp_path,
            "en.conllu",
            [
                conllu_line(1, "a", "DET", 0, "root"),
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
            ],
        )
        assert len(parse_conllu(path)[0]) == 1

    def test_non_integer_head_error_carries_line_number(self, tmp_path):
        path = write_conllu(
            tmp_path,
            "bad.conllu",
            [conllu_line(1, "a", "DET", 0, "root"), "2\tb\t_\tNOUN\t_\t_\tX\tdep\t_\t_"],
        )
        with pytest.raises(ValueError, match=":2:"):
            parse_conllu(path)

    def test_missing_head_rejected_for_gold(self, tmp_path):
        path = write_conllu(tmp_path, "nohead.conllu", ["1\ta\t_\tDET\t_\t_\t_\tdet\t_\t_"])
        with pytest.raises(ValueError, match="missing HEAD"):
            parse_conllu(path)
        sents = parse_conllu(path, allow_missing_heads=True)
        assert sents[0][0].head is None

    def test_head_out_of_range_rejected(self, tmp_path):
        path = write_conllu(tmp_path, "range.conllu", [conllu_line(1, "a", "DET", 5, "det")])
        with pytest.raises(ValueError, match="out of range"):
            parse_conllu(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = write_conllu(tmp_path, "short.conllu", ["1\ta\tb"])
        with pytest.raises(ValueError, match="10 tab-separated"):
            parse_conllu(path)

    def test_non_sequential_id_rejected(self, tmp_path):
        path = write_conllu(
            tmp_path, "seq.conllu", [conllu_line(1, "a", "DET", 0, "root"), conllu_line(3, "b", "NOUN", 1, "dep")]
        )
        with pytest.raises(ValueError, match="non-sequential"):
            parse_conllu(path)

    def test_scorable_tokens_match_line_filter_oracle(self, tmp_path):
        rng = random.Random(4)
        lines = []
        integer_id_lines = 0
        for _ in range(100):
            length = rng.randint(1, 8)
            lines.append(f"# text = sentence")
            if rng.random() < 0.3:
                lines.append(f"1-2\tmwt\t_\t_\t_\t_\t_\t_\t_\t_")
            for i in range(1, length + 1):
                head = 0 if i == 1 else rng.randint(0, length)
                lines.append(conllu_line(i, f"w{i}", rng.choice(UPOS_TAGS), head, "dep"))
                integer_id_lines += 1
            lines.append("")
        path = write_conllu(tmp_path, "big.conllu", lines)
        sents = parse_conllu(path)
        assert sum(len(s) for s in sents) == integer_id_lines


class TestUposAccuracy:
    def test_perfect(self):
        sents = random_sentences(random.Random(1), 10)
        assert upos_accuracy(sents, sents)["upos_acc"] == 1.0

    def test_half_flipped(self):
        gold = [[UdToken(i + 1, "NOUN", 0, "root") for i in range(10)]]
        pred = [
            [
                UdToken(i + 1, "NOUN" if i < 5 else "VERB", 0, "root")
                for i in range(10)
            ]
        ]
        assert upos_accuracy(gold, pred)["upos_acc"] == 0.5

    def test_matches_counting_oracle(self):
        rng = random.Random(2)
        gold = random_sentences(rng, 60)
        pred = [
            [
                UdToken(t.id, rng.choice(UPOS_TAGS), t.head, t.deprel)
                for t in sent
            ]
            for sent in gold
        ]
        got = upos_accuracy(gold, pred)["upos_acc"]
        flat_gold = [t.upos for s in gold for t in s]
        flat_pred = [t.upos for s in pred for t in s]
        assert got == oracle_accuracy(flat_gold, flat_pred)

    def test_alignment_mismatch_rejected(self):
        gold = random_sentences(random.Random(3), 2)
        pred = [gold[0], gold[1][:-1]] if len(gold[1]) > 1 else [gold[0], gold[1] * 2]
        with pytest.raises(ValueError, match="alignment mismatch"):
            upos_accuracy(gold, pred)


class TestAttachmentScores:
    def test_perfect(self):
        sents = random_sentences(random.Random(5), 10)
        metrics = attachment_scores(sents, sents)
        assert metrics["uas"] == metrics["las"] == 1.0

    def test_right_heads_wrong_deprels(self):
        gold = [[UdToken(1, "X", 0, "root"), UdToken(2, "X", 1, "obj")]]
        pred = [[UdToken(1, "X", 0, "nsubj"), UdToken(2, "X", 1, "det")]]
        metrics = attachment_scores(gold, pred)
        assert metrics["uas"] == 1.0
        assert metrics["las"] == 0.0

    def test_constructed_fifty_tokens(self):
        # 50 tokens; 10 wrong heads; 5 more with right head, wrong label
        gold = [[UdToken(i + 1, "X", 0, "dep") for i in range(50)]]
        pred_tokens = []
        for i in range(50):
            if i < 10:
                pred_tokens.append(UdToken(i + 1, "X", i + 1 if i + 1 != 0 else 2, "dep"))
            elif i < 15:
                pred_tokens.append(UdToken(i + 1, "X", 0, "other"))
            else:
                pred_tokens.append(UdToken(i + 1, "X", 0, "dep"))
        pred = [pred_tokens]
        metrics = attachment_scores(gold, pred)
        g = [(t.head, t.deprel) for t in gold[0]]
        p = [(t.head, t.deprel) for t in pred[0]]
        uas, las = oracle_attachment(g, p)
        assert metrics["uas"] == uas == 0.8
        assert metrics["las"] == las == 0.7

    def test_las_compares_universal_deprels(self):
        gold = [[UdToken(1, "X", 0, "nmod:poss"), UdToken(2, "X", 1, "obl:tmod")]]
        pred = [[UdToken(1, "X", 0, "nmod"), UdToken(2, "X", 1, "obj:tmod")]]
        assert attachment_scores(gold, pred)["las"] == 0.5

    def test_pred_without_head_rejected(self):
        gold = [[UdToken(1, "X", 0, "root")]]
        pred = [[UdToken(1, "X", None, "root")]]
        with pytest.raises(ValueError, match="lacks a head"):
            attachment_scores(gold, pred)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_attachment_matches_oracle_and_las_bounded(seed, n):
    rng = random.Random(seed)
    gold = random_sentences(rng, n, with_subtypes=True)
    pred = [
        [
            UdToken(t.id, rng.choice(UPOS_TAGS), rng.randint(0, len(sent)), rng.choice(DEPRELS))
            for t in sent
        ]
        for sent in gold
    ]
    upos_acc = upos_accuracy(gold, pred)["upos_acc"]
    assert upos_acc == oracle_accuracy([t.upos for s in gold for t in s], [t.upos for s in pred for t in s])
    metrics = attachment_scores(gold, pred)
    flat_gold = [(t.head, t.deprel) for s in gold for t in s]
    flat_pred = [(t.head, t.deprel) for s in pred for t in s]
    uas, las = oracle_attachment(flat_gold, flat_pred)
    assert metrics["uas"] == pytest.approx(uas, rel=1e-12)
    assert metrics["las"] == pytest.approx(las, rel=1e-12)
    assert metrics["las"] <= metrics["uas"]

