"""The pipeline run in-process, read through its event channel."""

import json
from dataclasses import replace

import pytest

from bertpipe import pipeline
from bertpipe.pipeline import STAGES, StageError, file_sha256, load_config, run_pipeline
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


def test_failed_write_leaves_no_tmp_file_and_no_manifest(tmp_path, monkeypatch):
    def failing(instances, out):
        out.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "write_instances", failing)
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(write_config(tmp_path), str(out))
    assert failure.value.stage == "pretrain_data"
    assert list(out.rglob("*.tmp")) == []
    assert not (out / "manifest.json").exists()


@pytest.fixture
def completing(monkeypatch):
    """The schedule stage's event names an undefined `n_tok`; give it one."""
    monkeypatch.setattr(pipeline, "n_tok", 0, raising=False)


def statuses(results):
    return {r.name: r.status for r in results}


def rerun_stages(config, out_dir):
    return [name for name, status in statuses(run_pipeline(config, out_dir)).items() if status == "completed"]


def test_identical_rerun_skips_every_stage(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    assert rerun_stages(config, str(out)) == list(STAGES)
    manifest = (out / "manifest.json").read_bytes()
    assert statuses(run_pipeline(config, str(out))) == dict.fromkeys(STAGES, "skipped (up-to-date)")
    assert (out / "manifest.json").read_bytes() == manifest


def test_changed_vocab_size_reruns_vocab_and_pretrain_data(tmp_path, completing):
    config, out = write_config(tmp_path), str(tmp_path / "out")
    run_pipeline(config, out)
    larger = replace(config, vocab=replace(config.vocab, target_size=config.vocab.target_size + 5))
    assert rerun_stages(larger, out) == ["vocab", "pretrain_data"]


def test_deleted_output_reruns_its_stage(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    (out / "vocab.txt").unlink()
    # the rewritten vocab.txt has the same bytes, so pretrain_data stays up to date
    assert rerun_stages(config, str(out)) == ["vocab"]
    (out / "plan.json").unlink()
    assert rerun_stages(config, str(out)) == ["schedule"]


def test_unreadable_manifest_reruns_every_stage(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    (out / "manifest.json").write_text("{not json", encoding="utf-8")
    assert rerun_stages(config, str(out)) == list(STAGES)


def test_each_file_is_hashed_at_most_once_per_run(tmp_path, completing, monkeypatch):
    config, out = write_config(tmp_path), str(tmp_path / "out")
    hashed = []

    def counting(path):
        hashed.append(path)
        return file_sha256(path)

    monkeypatch.setattr(pipeline, "file_sha256", counting)
    for _ in range(2):  # a full run, then a run that skips every stage
        hashed.clear()
        run_pipeline(config, out)
        with open(f"{out}/manifest.json", encoding="utf-8") as f:
            outputs = [rel for stage in json.load(f)["stages"] for rel in stage["outputs"]]
        assert len(hashed) == len(set(hashed)) == len(CORPORA) + len(outputs)
