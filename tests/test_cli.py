"""The command-line interface, run as a child process like a user runs it."""

import json
import os
import subprocess
import sys

import pytest

import bertpipe
from bertpipe.corpus import read_units
from bertpipe.evaluation.report import load_reports
from bertpipe.schedule import make_plan
from bertpipe.vocab import count_words, learn_wordpieces

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bertpipe.__file__)))


def run_python(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


def bertpipe_cli(*args, stdin=None):
    return run_python("-m", "bertpipe.cli", *args, stdin=stdin)


CORPORA = {
    "en": ["the cat sat on the mat", "a dog ran after the cat", "the mat was red"],
    "fi": ["kissa istui matolla", "koira juoksi kissan perässä", "matto oli punainen"],
}


def write_corpora(tmp_path):
    paths = []
    for lang, lines in CORPORA.items():
        path = tmp_path / f"{lang}.txt"
        path.write_text("\n".join(lines * 4) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def test_import_is_silent_and_starts_no_thread():
    probe = "import threading, bertpipe.cli; print(threading.active_count())"
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"
    assert done.stderr == ""


def test_help_lists_exactly_the_kept_commands():
    done = bertpipe_cli("--help")
    assert done.returncode == 0, done.stderr
    assert "{vocab,schedule,eval,report,pipeline,version}" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [["dedup", "--lang", "en", "in.txt", "out.txt"], ["vocab", "build", "out.txt"], ["pretrain-data", "out.bin"]],
)
def test_removed_stage_commands_are_a_validation_error(tmp_path, argv):
    done = bertpipe_cli(*argv)
    assert done.returncode == 1
    assert "invalid choice" in done.stderr


def test_vocab_tokenize_round_trips_a_word(tmp_path):
    paths = write_corpora(tmp_path)
    vocab = tmp_path / "vocab.txt"
    counts = count_words([read_units(path, lang) for path, lang in zip(paths, CORPORA)])
    with open(vocab, "w", encoding="utf-8", newline="\n") as f:
        learn_wordpieces(counts, target_size=60).save(f)
    done = bertpipe_cli("vocab", "tokenize", "--vocab", str(vocab), stdin="kissan\n")
    assert done.returncode == 0, done.stderr
    pieces = done.stdout.split()
    assert "[UNK]" not in pieces
    assert "".join(p.removeprefix("##") for p in pieces) == "kissan"


def test_schedule_prints_the_plan():
    done = bertpipe_cli(
        "schedule", "--tokens", "1e6", "--phase", "epochs=40,batch=1024,seqlen=128",
        "--phase", "epochs=4,batch=256,seqlen=512",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == make_plan(1e6, [(40, 1024, 128), (4, 256, 512)]).as_dict()


def test_eval_report_round_trips_one_report(tmp_path):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("Ana\tPER\nin\tO\nTartu\tLOC\n\nACME\tORG\n", encoding="utf-8")
    pred.write_text("Ana\tPER\nin\tO\nTartu\tO\n\nACME\tORG\n", encoding="utf-8")
    one = tmp_path / "one.json"
    done = bertpipe_cli(
        "eval", "ner", "--gold", str(gold), "--pred", str(pred), "--train-lang", "et",
        "--test-lang", "et", "--model", "m", "--out", str(one),
    )
    assert done.returncode == 0, done.stderr
    [report] = load_reports(str(one))
    assert json.loads(done.stdout) == report.as_dict()
    combined = tmp_path / "all.json"
    done = bertpipe_cli("report", "--task", "ner", "--json", str(combined), str(one))
    assert done.returncode == 0, done.stderr
    assert load_reports(str(combined)) == [report]
    assert done.stdout.splitlines()[-1] == "| et    | et   | 0.667 |"


def test_removed_max_iterations_flag_is_a_validation_error(tmp_path):
    config = write_config(tmp_path)
    done = bertpipe_cli(
        "pipeline", "run", config, "--out", str(tmp_path / "out"), "--max-iterations", "4"
    )
    assert done.returncode == 1
    assert "--max-iterations" in done.stderr
    assert not (tmp_path / "out").exists()


def test_config_with_max_iterations_is_rejected_by_name(tmp_path):
    write_corpora(tmp_path)
    config = {
        "languages": [
            {"code": "en", "corpus": ["en.txt"], "vocab_budget": 50},
            {"code": "fi", "corpus": ["fi.txt"], "vocab_budget": 50},
        ],
        "dedup": {"n": 3, "threshold": 0.5, "granularity": "sentence"},
        "vocab": {"target_size": 60, "seed": 0, "max_iterations": 4},
        "phases": [{"epochs": 1, "batch_size": 8, "seq_len": 32}],
        "masking": {},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    done = bertpipe_cli("pipeline", "run", str(path), "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert "max_iterations" in done.stderr
    assert not (tmp_path / "out").exists()


def test_version_reports_the_schema_version_in_the_schema_title():
    done = bertpipe_cli("version", "--json")
    assert done.returncode == 0, done.stderr
    version = json.loads(done.stdout)["config_schema_version"]
    schema_path = os.path.join(os.path.dirname(bertpipe.__file__), "config.schema.json")
    with open(schema_path, encoding="utf-8") as f:
        title = json.load(f)["title"]
    assert version == 2
    assert title.endswith(f"(schema version {version})")


def write_config(tmp_path, phases=({"epochs": 1, "batch_size": 8, "seq_len": 32},)):
    write_corpora(tmp_path)
    config = {
        "languages": [
            {"code": "en", "corpus": ["en.txt"], "vocab_budget": 50},
            {"code": "fi", "corpus": ["fi.txt"], "vocab_budget": 50},
        ],
        "dedup": {"n": 3, "threshold": 0.5, "granularity": "sentence"},
        "vocab": {"target_size": 60, "seed": 0},
        "phases": list(phases),
        "masking": {},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_removed_jobs_flag_is_a_validation_error(tmp_path):
    config = write_config(tmp_path)
    done = bertpipe_cli("pipeline", "run", config, "--out", str(tmp_path / "out"), "--jobs", "2")
    assert done.returncode == 1
    assert "--jobs" in done.stderr
    assert not (tmp_path / "out").exists()


def test_seq_len_beyond_u16_is_rejected_by_name(tmp_path):
    config = write_config(tmp_path, phases=[{"epochs": 1, "batch_size": 8, "seq_len": 65536}])
    done = bertpipe_cli("pipeline", "run", config, "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    assert "seq_len" in done.stderr
    assert not (tmp_path / "out").exists()
