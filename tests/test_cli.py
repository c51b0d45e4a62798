"""The command-line interface, run as a child process like a user runs it."""

import json
import os
import subprocess
import sys

import bertpipe
from bertpipe.corpus import read_units
from bertpipe.vocab import LanguageBudget, count_words, learn_wordpieces, sample_subset

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


def test_vocab_build_equals_library_learning(tmp_path):
    paths = write_corpora(tmp_path)
    out = tmp_path / "vocab.txt"
    done = bertpipe_cli(
        "vocab", "build", "--target-size", "90", "--budget", "en=20", "--budget", "fi=15",
        "--seed", "3", *paths, str(out),
    )
    assert done.returncode == 0, done.stderr

    budgets = [LanguageBudget("en", 20), LanguageBudget("fi", 15)]
    subsets = [
        sample_subset(read_units(path, b.lang), b, seed=3 + i)
        for i, (path, b) in enumerate(zip(paths, budgets))
    ]
    expected = learn_wordpieces(count_words(subsets), target_size=90)
    assert out.read_text(encoding="utf-8") == "".join(p + "\n" for p in expected.pieces)


def test_vocab_tokenize_round_trips_a_word(tmp_path):
    paths = write_corpora(tmp_path)
    vocab = tmp_path / "vocab.txt"
    built = bertpipe_cli(
        "vocab", "build", "--target-size", "60", "--budget", "en=50", "--budget", "fi=50",
        *paths, str(vocab),
    )
    assert built.returncode == 0, built.stderr
    done = bertpipe_cli("vocab", "tokenize", "--vocab", str(vocab), stdin="kissan\n")
    assert done.returncode == 0, done.stderr
    pieces = done.stdout.split()
    assert "[UNK]" not in pieces
    assert "".join(p.removeprefix("##") for p in pieces) == "kissan"


def test_removed_max_iterations_flag_is_a_validation_error(tmp_path):
    paths = write_corpora(tmp_path)
    done = bertpipe_cli(
        "vocab", "build", "--target-size", "60", "--max-iterations", "4",
        "--budget", "en=50", "--budget", "fi=50", *paths, str(tmp_path / "vocab.txt"),
    )
    assert done.returncode == 1
    assert "--max-iterations" in done.stderr
    assert not (tmp_path / "vocab.txt").exists()


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
