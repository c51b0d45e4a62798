"""The pipeline run in-process, read through its event channel."""

import json

from bertpipe.pipeline import STAGES, StageError, load_config, run_pipeline
from bertpipe.pretrain import read_documents
from bertpipe.vocab import Vocab, tokenize_text

CORPORA = {
    "en": ["the cat sat on the mat", "a dog ran after the cat", "", "the mat was red", "so was the dog"],
    "fi": ["kissa istui matolla", "koira juoksi kissan perässä", "", "matto oli punainen"],
}


def write_config(tmp_path):
    for lang, lines in CORPORA.items():
        (tmp_path / f"{lang}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {
        "languages": [{"code": lang, "corpus": [f"{lang}.txt"], "vocab_budget": 50} for lang in CORPORA],
        "dedup": {"n": 3, "threshold": 0.5, "granularity": "sentence"},
        "vocab": {"target_size": 70, "seed": 0},
        "phases": [{"epochs": 1, "batch_size": 8, "seq_len": 32}, {"epochs": 1, "batch_size": 8, "seq_len": 64}],
        "masking": {"seed": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return load_config(str(path))


def run_collecting_events(config, out_dir):
    events = []
    try:
        run_pipeline(config, out_dir, events=events.append)
    except StageError as e:
        # Only the stages up to pretrain_data matter here.
        assert STAGES.index(e.stage) > STAGES.index("pretrain_data"), e
    return events


def test_pretrain_tokenized_event_counts_the_tokenized_corpus(tmp_path):
    out = tmp_path / "out"
    events = run_collecting_events(write_config(tmp_path), str(out))
    tokenized = [e for e in events if e["event"] == "pretrain_tokenized"]
    assert len(tokenized) == 1

    vocab = Vocab.load(str(out / "vocab.txt"))
    docs = [doc for lang in CORPORA for doc in read_documents(str(out / "dedup" / f"{lang}.txt"))]
    pieces = [len(tokenize_text(s, vocab)) for doc in docs for s in doc]
    assert tokenized[0] == {
        "event": "pretrain_tokenized",
        "documents": len(docs),
        "documents_skipped": 0,
        "sentences": len(pieces),
        "pieces": sum(pieces),
    }
    kinds = [e["event"] for e in events]
    assert kinds.index("pretrain_tokenized") < kinds.index("pretrain_phase")
    assert [e["phase"] for e in events if e["event"] == "pretrain_phase"] == [0, 1]
