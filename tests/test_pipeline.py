"""The pipeline run in-process, read through its event channel."""

import json
import logging
import os
import re
import signal
import time
import unicodedata

import pytest

from bertpipe import pipeline, pretrain
from bertpipe.corpus import Granularity, read_documents, read_units
from bertpipe.pipeline import ConfigError, PhaseConfig, StageError, file_sha256, load_config, run_pipeline
from bertpipe.pretrain import count_instances, read_instances
from bertpipe.vocab import Vocab, tokenize_text

STAGES = ("dedup", "sample", "vocab", "pretrain_data", "schedule")

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


def test_budget_shortfalls_are_event_fields_not_log_records(tmp_path, caplog):
    caplog.set_level(logging.DEBUG)
    config, out = write_config(tmp_path), tmp_path / "out"
    events = run_collecting_events(config, str(out))

    samples = [e for e in events if e["event"] == "sample_lang"]
    assert [e["lang"] for e in samples] == list(CORPORA)
    for event in samples:
        # the corpus is smaller than the budget, so the sample is all of it
        lang = event["lang"]
        units = read_units(str(out / "dedup" / f"{lang}.txt"), lang, config.dedup.granularity)
        tokens = sum(len(unit.tokens()) for unit in units)
        assert tokens < 50
        assert event == {"event": "sample_lang", "lang": lang, "units": len(units), "tokens": tokens, "budget": 50}
    built = [e for e in events if e["event"] == "vocab_built"]
    size = len(Vocab.load(str(out / "vocab.txt")))
    assert built == [{"event": "vocab_built", "size": size, "target": 70}]
    assert caplog.records == []


@pytest.mark.parametrize("budget", [6, 50])
def test_sample_event_tokens_count_the_written_sample(tmp_path, budget):
    config = write_config(tmp_path)
    config = config._replace(languages=[lang._replace(vocab_budget=budget) for lang in config.languages])
    out = tmp_path / "out"
    events = run_collecting_events(config, str(out))
    for event in (e for e in events if e["event"] == "sample_lang"):
        lang = event["lang"]
        sample = (out / "sample" / f"{lang}.txt").read_text(encoding="utf-8").split()
        dedup = (out / "dedup" / f"{lang}.txt").read_text(encoding="utf-8").split()
        # 6 samples part of each corpus, 50 exceeds it and takes all of it
        assert (len(sample) < len(dedup)) == (budget < len(dedup))
        assert event["tokens"] == len(sample) >= min(budget, len(dedup))


def test_failed_write_leaves_no_tmp_file_and_no_manifest(tmp_path, monkeypatch):
    def failing(instances, out, **header):
        out.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "write_instances", failing)
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(write_config(tmp_path), str(out))
    assert failure.value.stage == "pretrain_data"
    assert isinstance(failure.value.__cause__, OSError)
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


def test_every_stage_done_reports_its_duration_and_the_peak_rss_so_far(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    for expected in ("completed", "skipped (up-to-date)"):
        events = []
        run_pipeline(config, str(out), events=events.append)
        done = [e for e in events if e["event"] == "stage_done"]
        assert [(e["stage"], e["status"]) for e in done] == [(stage, expected) for stage in STAGES]
        assert all(e["duration_s"] >= 0 for e in done)
        peaks = [e["max_rss_mb"] for e in done]
        assert peaks[0] > 0 and peaks == sorted(peaks)
    # timings stay out of the manifest
    assert "duration_s" not in (out / "manifest.json").read_text(encoding="utf-8")


def test_changed_vocab_size_reruns_vocab_and_pretrain_data(tmp_path, completing):
    config, out = write_config(tmp_path), str(tmp_path / "out")
    run_pipeline(config, out)
    larger = config._replace(vocab=config.vocab._replace(target_size=config.vocab.target_size + 5))
    assert rerun_stages(larger, out) == ["vocab", "pretrain_data", "schedule"]


def test_changed_epochs_rerun_only_schedule(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    phases = (config.phases[0]._replace(epochs=2.5), *config.phases[1:])
    assert rerun_stages(config._replace(phases=phases), str(out)) == ["schedule"]
    plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
    assert plan["phases"][0]["epochs"] == 2.5


def bump_rev(monkeypatch, name):
    stages = pipeline._stages

    def bumped(config):
        return [s._replace(rev=s.rev + 1) if s.name == name else s for s in stages(config)]

    monkeypatch.setattr(pipeline, "_stages", bumped)


def test_bumped_rev_reruns_its_stage_and_the_stages_its_bytes_reach(tmp_path, completing, monkeypatch):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    old_vocab = (out / "vocab.txt").read_bytes()

    learn = pipeline.learn_wordpieces
    monkeypatch.setattr(pipeline, "learn_wordpieces", lambda counts, target_size: learn(counts, target_size - 5))
    bump_rev(monkeypatch, "vocab")
    assert rerun_stages(config, str(out)) == ["vocab", "pretrain_data", "schedule"]
    new_vocab = (out / "vocab.txt").read_bytes()
    assert new_vocab != old_vocab
    assert len(new_vocab.splitlines()) == len(old_vocab.splitlines()) - 5


def test_bumped_rev_with_equal_bytes_reruns_only_its_stage(tmp_path, completing, monkeypatch):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    bump_rev(monkeypatch, "dedup")
    assert rerun_stages(config, str(out)) == ["dedup"]
    assert rerun_stages(config, str(out)) == []


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


@pytest.mark.parametrize("manifest", ["[]", '{"stages": [1]}'])
def test_manifest_without_stage_objects_reruns_every_stage(tmp_path, completing, manifest):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    (out / "manifest.json").write_text(manifest, encoding="utf-8")
    assert rerun_stages(config, str(out)) == list(STAGES)


def test_manifest_with_a_repeated_key_reruns_every_stage(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    text = (out / "manifest.json").read_text(encoding="utf-8")
    assert text.count('"stages": [') == 1
    (out / "manifest.json").write_text(text.replace('"stages": [', '"stages": [], "stages": ['), encoding="utf-8")
    assert rerun_stages(config, str(out)) == list(STAGES)


def test_stage_record_without_output_hashes_reruns_every_stage(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["stages"][0]["outputs"] = []
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert rerun_stages(config, str(out)) == list(STAGES)


def artifacts(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_reordered_languages_rerun_to_the_artifacts_of_a_fresh_run(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    reordered = config._replace(languages=config.languages[::-1])
    assert {"sample", "pretrain_data"} <= set(rerun_stages(reordered, str(out)))
    run_pipeline(reordered, str(tmp_path / "fresh"))
    assert artifacts(out) == artifacts(tmp_path / "fresh")


def test_stage_table_declares_every_file_a_run_writes_and_reads(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(out))
    stages = pipeline._stages(config)
    assert [stage.name for stage in stages] == list(STAGES)
    assert set(artifacts(out)) == {rel for stage in stages for rel in stage.outputs} | {"manifest.json"}
    written = set(stages[0].outputs)
    for stage in stages[1:]:
        assert set(stage.inputs.values()) <= written, stage.name
        written.update(stage.outputs)


def test_decomposed_corpus_gives_the_artifacts_of_its_composed_twin(tmp_path, completing):
    outs = {}
    for form in ("NFC", "NFD"):
        base = tmp_path / form
        base.mkdir()
        config = write_config(base)
        for lang in CORPORA:
            path = base / f"{lang}.txt"
            path.write_text(unicodedata.normalize(form, path.read_text(encoding="utf-8")), encoding="utf-8")
        run_pipeline(config, str(base / "out"))
        outs[form] = artifacts(base / "out")
    assert (tmp_path / "NFD" / "fi.txt").read_bytes() != (tmp_path / "NFC" / "fi.txt").read_bytes()
    del outs["NFC"]["manifest.json"], outs["NFD"]["manifest.json"]
    assert outs["NFD"] == outs["NFC"]

    unk = Vocab.load(str(tmp_path / "NFD" / "out" / "vocab.txt")).piece_ids["[UNK]"]
    phases = sorted((tmp_path / "NFD" / "out" / "pretrain").glob("phase*.bin"))
    assert len(phases) == 2
    for path in phases:
        for instance in read_instances(str(path)):
            assert unk not in instance.token_ids + instance.masked_labels


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


def test_plan_counts_the_instances_of_each_phase_file(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    events = []
    run_pipeline(config, str(out), events=events.append)
    written = [e["instances"] for e in events if e["event"] == "pretrain_phase"]
    plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
    for k, (phase, config_phase) in enumerate(zip(plan["phases"], config.phases, strict=True)):
        path = str(out / "pretrain" / f"phase{k}.bin")
        assert phase["instances"] == count_instances(path) == len(list(read_instances(path))) == written[k] > 0
        assert phase == {
            "batch_size": config_phase.batch_size,
            "epochs": config_phase.epochs,
            "seq_len": config_phase.seq_len,
            "instances": phase["instances"],
            "steps": phase["instances"] * config_phase.epochs // config_phase.batch_size,
        }
    assert plan["total_steps"] == sum(phase["steps"] for phase in plan["phases"])



@pytest.mark.parametrize(
    "field, edit",
    [
        ("phases[0].batch_size", lambda c: c._replace(phases=(PhaseConfig(1, 0, 128),))),
        ("phases[1].seq_len", lambda c: c._replace(phases=(c.phases[0], c.phases[1]._replace(seq_len=8)))),
        (
            "languages[1].vocab_budget",
            lambda c: c._replace(languages=(c.languages[0], c.languages[1]._replace(vocab_budget=0))),
        ),
        ("dedup.threshold", lambda c: c._replace(dedup=c.dedup._replace(threshold=1.5))),
        ("vocab.target_size", lambda c: c._replace(vocab=c.vocab._replace(target_size=0))),
        ("masking.mask_prob", lambda c: c._replace(masking=c.masking._replace(mask_prob=0.0))),
        ("languages", lambda c: c._replace(languages=())),
        ("phases", lambda c: c._replace(phases=())),
        ("languages[0].code", lambda c: c._replace(languages=(c.languages[0]._replace(code=""),))),
        ("languages[1].corpus", lambda c: c._replace(languages=(c.languages[0], c.languages[1]._replace(corpus=())))),
        (
            "languages[0].corpus[1]",
            lambda c: c._replace(languages=(c.languages[0]._replace(corpus=(*c.languages[0].corpus, "")),)),
        ),
    ],
)
def test_config_built_out_of_bounds_is_rejected_before_any_event_or_write(tmp_path, field, edit):
    config, out = edit(write_config(tmp_path)), tmp_path / "out"
    events = []
    with pytest.raises(ConfigError, match=re.escape(field)):
        run_pipeline(config, str(out), events=events.append)
    assert events == []
    assert not out.exists()


def test_pretrain_data_reads_each_dedup_file_after_the_last_one_is_tokenized(tmp_path, completing, monkeypatch):
    config, log = write_config(tmp_path), tmp_path / "calls.jsonl"

    def logged(*call):
        # one short append per call, so that the lines of two processes never mix
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps([os.getpid(), *call]) + "\n")

    def reading(path):
        logged("read", path)
        return read_documents(path)

    def tokenizing(text, vocab):
        logged("tokenize", text)
        return tokenize_text(text, vocab)

    monkeypatch.setattr(pipeline, "read_documents", reading)
    monkeypatch.setattr(pretrain, "tokenize_text", tokenizing)
    for n in (1, 2):
        on_cpus(monkeypatch, n)
        out = tmp_path / f"out{n}"
        log.unlink(missing_ok=True)
        run_pipeline(config, str(out))
        # the calls of one dedup file: its read, then a tokenization of each sentence
        files = {}
        for lang in CORPORA:
            path = str(out / "dedup" / f"{lang}.txt")
            files[path] = [["read", path]] + [["tokenize", s] for doc in read_documents(path) for s in doc]
        calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        if n == 1:
            assert [call[1:] for call in calls] == [call for block in files.values() for call in block]
        by_process = {}
        for pid, *call in calls:
            by_process.setdefault(pid, []).append(call)
        assert len(by_process) == n
        read = []
        for process_calls in by_process.values():
            while process_calls:
                kind, path = process_calls[0]
                assert kind == "read" and process_calls[: len(files[path])] == files[path]
                del process_calls[: len(files[path])]
                read.append(path)
        assert sorted(read) == sorted(files)


def on_cpus(monkeypatch, n):
    """Make the pipeline see n CPUs, through the affinity call it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_stage_done_reports_the_processes_each_stage_ran_on(tmp_path, completing, monkeypatch):
    on_cpus(monkeypatch, 2)
    config, out = write_config(tmp_path), str(tmp_path / "out")
    # two languages and two phases: dedup, sample and pretrain_data fork one worker
    expected = {"dedup": 2, "sample": 2, "vocab": 1, "pretrain_data": 2, "schedule": 1}
    for workers in (expected, dict.fromkeys(STAGES, 1)):  # a full run, then one that skips every stage
        events = []
        run_pipeline(config, out, events=events.append)
        assert {e["stage"]: e["workers"] for e in events if e["event"] == "stage_done"} == workers


def test_stage_done_reports_the_most_processes_of_any_spread_of_the_stage(tmp_path, completing, monkeypatch):
    on_cpus(monkeypatch, 2)
    config = write_config(tmp_path)
    # two languages and one phase: pretrain_data tokenizes on two processes
    # and, with its units cut into one run, writes its phase file on one
    monkeypatch.setattr(pipeline, "_cut", lambda weights, n: [0, len(weights)])
    config = config._replace(phases=config.phases[:1])
    events = []
    run_pipeline(config, str(tmp_path / "out"), events=events.append)
    workers = {e["stage"]: e["workers"] for e in events if e["event"] == "stage_done"}
    assert workers == {"dedup": 2, "sample": 2, "vocab": 1, "pretrain_data": 2, "schedule": 1}


def without_timings(events):
    return [{k: v for k, v in e.items() if k not in ("duration_s", "max_rss_mb", "workers")} for e in events]


def test_one_and_two_cpus_write_the_same_files_and_events(tmp_path, completing, monkeypatch):
    config = write_config(tmp_path)
    runs = []
    for n in (1, 2):
        on_cpus(monkeypatch, n)
        out, events = tmp_path / f"out{n}", []
        run_pipeline(config, str(out), events=events.append)
        runs.append((artifacts(out), without_timings(events)))
    assert {"manifest.json", "plan.json", "pretrain/phase1.bin", "dedup/fi.stats.json"} <= set(runs[0][0])
    assert runs[0] == runs[1]


def test_stale_tmp_files_are_removed_and_the_run_writes_what_a_clean_run_does(tmp_path, completing):
    config, out = write_config(tmp_path), tmp_path / "out"
    run_pipeline(config, str(tmp_path / "clean"))
    for rel in ("dedup/fi.txt.tmp", "pretrain/phase1.bin.tmp", "pretrain/phase0.bin.part1.tmp", "pretrain/phase1.bin.part3.tmp"):
        (out / rel).parent.mkdir(parents=True, exist_ok=True)
        (out / rel).write_bytes(b"left by a killed run")
    run_pipeline(config, str(out))
    assert list(out.rglob("*.tmp")) == []
    assert artifacts(out) == artifacts(tmp_path / "clean")


def failing_at(seq_len, before=lambda: None):
    """write_instances that, at seq_len, writes part of a file, calls before
    and raises; at any other seq_len it writes the file."""
    write = pipeline.write_instances

    def failing(instances, out, **header):
        if header["seq_len"] != seq_len:
            return write(instances, out, **header)
        out.write(b"partial")
        before()
        raise OSError("disk full")

    return failing


def assert_failed_cleanly(failure, out):
    assert failure.value.stage == "pretrain_data"
    assert isinstance(failure.value.__cause__, OSError)
    assert str(failure.value.__cause__) == "disk full"
    assert list(out.rglob("*.tmp")) == []
    assert not (out / "manifest.json").exists()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_failed_worker_task_is_the_stage_error_of_its_cause(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    # phase 1 (seq_len 64) is task 1, the worker's
    monkeypatch.setattr(pipeline, "write_instances", failing_at(64))
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(write_config(tmp_path), str(out))
    assert_failed_cleanly(failure, out)


def test_failed_own_share_kills_and_reaps_the_running_worker(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    worker_tmp = out / "pretrain" / "phase1.bin.tmp"

    def worker_started():
        deadline = time.monotonic() + 10
        while not worker_tmp.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker_tmp.exists()

    # the worker's phase 1 (seq_len 64) sleeps once it has opened its tmp
    # file, and then phase 0, this process's share, fails
    monkeypatch.setattr(pipeline, "write_instances", failing_at(64, lambda: time.sleep(60)))
    monkeypatch.setattr(pipeline, "write_instances", failing_at(32, worker_started))
    started = time.monotonic()
    with pytest.raises(StageError) as failure:
        run_pipeline(write_config(tmp_path), str(out))
    assert time.monotonic() - started < 30  # the parent did not wait for the worker's sleep
    assert_failed_cleanly(failure, out)


class TwoPartError(Exception):
    """Pickles, but does not unpickle: its constructor takes two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def raise_two_part():
    raise TwoPartError("disk full", "phase1.bin")


@pytest.mark.parametrize(
    "fail, message",
    [
        (raise_two_part, "disk full at phase1.bin"),
        (lambda: os._exit(3), "worker process 1 exited with status 3 before it replied"),
    ],
    ids=["exception_that_does_not_unpickle", "exit_without_reply"],
)
def test_worker_failure_that_cannot_be_sent_is_a_runtime_error(tmp_path, monkeypatch, fail, message):
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "write_instances", failing_at(64, fail))
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(write_config(tmp_path), str(out))
    assert type(failure.value.__cause__) is RuntimeError
    assert str(failure.value.__cause__) == message
    assert list(out.rglob("*.tmp")) == []


def documents_config(tmp_path, dupe_factor=1, phases=2):
    """write_config at paragraph granularity, which keeps each corpus's two
    paragraphs as documents: four documents, each in dupe_factor passes."""
    config = write_config(tmp_path)
    return config._replace(
        dedup=config.dedup._replace(granularity=Granularity.PARAGRAPH),
        phases=config.phases[:phases],
        masking=config.masking._replace(dupe_factor=dupe_factor),
    )


@pytest.mark.parametrize("dupe_factor", [1, 3])
def test_phase_files_and_events_do_not_depend_on_the_cpus(tmp_path, completing, monkeypatch, dupe_factor):
    config = documents_config(tmp_path, dupe_factor)
    runs = []
    for n in (1, 2, 3):
        on_cpus(monkeypatch, n)
        out, events = tmp_path / f"out{n}", []
        run_pipeline(config, str(out), events=events.append)
        phases = {rel: data for rel, data in artifacts(out).items() if rel.startswith("pretrain/")}
        runs.append((phases, without_timings(events)))
    tokenized = [e for e in runs[0][1] if e["event"] == "pretrain_tokenized"]
    assert tokenized[0]["documents"] == 4
    assert {"pretrain/phase0.bin", "pretrain/phase1.bin"} <= set(runs[0][0])
    assert runs[0] == runs[1] == runs[2]


def test_cut_gives_nonempty_runs_of_about_equal_weight():
    # two phases of equal weight on two CPUs: the cut is the phase boundary
    assert pipeline._cut([3, 5, 2, 3, 5, 2], 2) == [0, 3, 6]
    assert pipeline._cut([1, 1, 1, 1], 3) == [0, 1, 3, 4]
    # the nearer of the two places around an equal share, the later on a tie
    assert pipeline._cut([3, 6, 1], 2) == [0, 1, 3]
    assert pipeline._cut([1, 6, 3], 2) == [0, 2, 3]
    assert pipeline._cut([2, 6, 2], 2) == [0, 2, 3]
    # no run is empty, and there are no more runs than weights
    assert pipeline._cut([100, 1, 1], 3) == [0, 1, 2, 3]
    assert pipeline._cut([1, 1, 100], 3) == [0, 1, 2, 3]
    assert pipeline._cut([7], 3) == [0, 1]


def logging_writes(monkeypatch, log):
    """Log the file name of each write_instances call, with its pid, to log."""
    write = pipeline.write_instances

    def logged(instances, out, **header):
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps([os.getpid(), os.path.basename(out.name), header.get("header", True)]) + "\n")
        return write(instances, out, **header)

    monkeypatch.setattr(pipeline, "write_instances", logged)


def test_phase_cut_inside_a_phase_is_written_in_parts_and_joined(tmp_path, completing, monkeypatch):
    config, log = documents_config(tmp_path, phases=1), tmp_path / "writes.jsonl"
    logging_writes(monkeypatch, log)
    outs = {}
    for n in (1, 3):
        on_cpus(monkeypatch, n)
        log.unlink(missing_ok=True)
        outs[n] = tmp_path / f"out{n}"
        run_pipeline(config, str(outs[n]))
        writes = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert len({pid for pid, _, _ in writes}) == n
    # one phase of four documents on three CPUs: this process writes the
    # file's first run with its header, and each worker a part of it
    assert sorted(name for _, name, _ in writes) == ["phase0.bin.part1.tmp", "phase0.bin.part2.tmp", "phase0.bin.tmp"]
    assert all(header == (name == "phase0.bin.tmp") for _, name, header in writes)
    assert list(outs[3].rglob("*.tmp")) == []
    assert artifacts(outs[3]) == artifacts(outs[1])


def failing_in(name, fail):
    """write_instances that, into the tmp file called name, writes some
    bytes and calls fail; into any other file it writes the records."""
    write = pipeline.write_instances

    def failing(instances, out, **header):
        if os.path.basename(out.name) != name:
            return write(instances, out, **header)
        out.write(b"partial")
        out.flush()
        fail()

    return failing


def disk_full():
    raise OSError("disk full")


def test_failed_second_part_of_a_phase_is_the_stage_error_of_its_cause(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "write_instances", failing_in("phase0.bin.part2.tmp", disk_full))
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(documents_config(tmp_path, phases=1), str(out))
    assert_failed_cleanly(failure, out)


def test_worker_killed_while_writing_a_part_leaves_no_file(tmp_path, monkeypatch):
    on_cpus(monkeypatch, 2)
    kill = lambda: os.kill(os.getpid(), signal.SIGKILL)  # noqa: E731
    monkeypatch.setattr(pipeline, "write_instances", failing_in("phase0.bin.part1.tmp", kill))
    out = tmp_path / "out"
    with pytest.raises(StageError) as failure:
        run_pipeline(documents_config(tmp_path, phases=1), str(out))
    assert failure.value.stage == "pretrain_data"
    assert str(failure.value.__cause__) == "worker process 1 exited with status -9 before it replied"
    assert list(out.rglob("*.tmp")) == []
    assert not (out / "pretrain" / "phase0.bin").exists()
