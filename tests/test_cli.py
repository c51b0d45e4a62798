"""The command-line interface, run as a child process like a user runs it."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import unicodedata

import pytest

import bertpipe
from bertpipe.corpus import read_units
from bertpipe.evaluation.report import load_reports
from bertpipe.pipeline import CONFIG_SCHEMA_VERSION
from bertpipe.vocab import count_words, learn_wordpieces

from conftest import make_dedup_corpus

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bertpipe.__file__)))


def run_python(*args, stdin=None, **env_vars):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8", **env_vars)
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, encoding="utf-8", env=env, timeout=120
    )


def bertpipe_cli(*args, stdin=None, **env_vars):
    return run_python("-m", "bertpipe.cli", *args, stdin=stdin, **env_vars)


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
    probe = (
        "import sys, threading, bertpipe.cli;"
        " print(threading.active_count(), 'jsonschema' in sys.modules, 'bertpipe.evaluation' in sys.modules)"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 False False\n"
    assert done.stderr == ""


def test_pipeline_run_never_imports_dataclasses_or_fractions(tmp_path):
    """dataclasses pulls in inspect, and fractions pulls in decimal: about 30
    ms of start-up in all. None of them loads with the CLI, nor later in a run
    that reaches its last stage, through a deferred import."""
    config = write_config(tmp_path)
    probe = (
        "import sys, bertpipe.cli;"
        " heavy = lambda: [m for m in ('dataclasses', 'inspect', 'fractions', 'decimal') if m in sys.modules];"
        " print(heavy());"
        " bertpipe.cli.main(sys.argv[1:]);"
        " print(heavy())"
    )
    done = run_python("-c", probe, "pipeline", "run", config, "--out", str(tmp_path / "out"))
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), done.stderr
    assert (tmp_path / "out" / "plan.json").exists()


def test_help_lists_exactly_the_kept_commands():
    done = bertpipe_cli("--help")
    assert done.returncode == 0, done.stderr
    assert "{vocab,eval,report,pipeline,version}" in done.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["dedup", "--lang", "en", "in.txt", "out.txt"],
        ["vocab", "build", "out.txt"],
        ["pretrain-data", "out.bin"],
        ["schedule", "--tokens", "1e6"],
    ],
)
def test_removed_stage_commands_are_a_validation_error(tmp_path, argv):
    done = bertpipe_cli(*argv)
    assert done.returncode == 1
    assert "invalid choice" in done.stderr


def write_vocab(tmp_path):
    paths = write_corpora(tmp_path)
    vocab = tmp_path / "vocab.txt"
    counts = count_words([read_units(path, lang) for path, lang in zip(paths, CORPORA)])
    with open(vocab, "w", encoding="utf-8", newline="\n") as f:
        learn_wordpieces(counts, target_size=60).save(f)
    return str(vocab)


def test_vocab_tokenize_round_trips_a_word(tmp_path):
    done = bertpipe_cli("vocab", "tokenize", "--vocab", write_vocab(tmp_path), stdin="kissan\n")
    assert done.returncode == 0, done.stderr
    pieces = done.stdout.split()
    assert "[UNK]" not in pieces
    assert "".join(p.removeprefix("##") for p in pieces) == "kissan"


def test_vocab_tokenize_reads_decomposed_input_as_composed(tmp_path):
    vocab = write_vocab(tmp_path)
    composed = "\n".join(CORPORA["fi"]) + "\n"
    nfc = bertpipe_cli("vocab", "tokenize", "--vocab", vocab, stdin=composed)
    nfd = bertpipe_cli("vocab", "tokenize", "--vocab", vocab, stdin=unicodedata.normalize("NFD", composed))
    assert nfc.returncode == nfd.returncode == 0, nfd.stderr
    assert nfd.stdout == nfc.stdout
    assert "[UNK]" not in nfc.stdout


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
    assert json.loads(done.stdout) == report._asdict()
    combined = tmp_path / "all.json"
    done = bertpipe_cli("report", "--task", "ner", "--json", str(combined), str(one))
    assert done.returncode == 0, done.stderr
    assert load_reports(str(combined)) == [report]
    assert done.stdout.splitlines()[-1] == "| et    | et   | 0.667 |"


def test_eval_ner_reads_bio_tags_without_a_label_map(tmp_path):
    def score(gold, pred):
        (tmp_path / "gold.tsv").write_text(gold, encoding="utf-8")
        (tmp_path / "pred.tsv").write_text(pred, encoding="utf-8")
        done = bertpipe_cli(
            "eval", "ner", "--gold", str(tmp_path / "gold.tsv"), "--pred", str(tmp_path / "pred.tsv"),
            "--train-lang", "et", "--test-lang", "et", "--model", "m",
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    bio = score(
        "Ana\tB-PER\nMaria\tI-PER\nin\tO\nTartu\tB-LOC\n\nACME\tB-ORG\n",
        "Ana\tB-PER\nMaria\tO\nin\tO\nTartu\tB-ORG\n\nACME\tB-ORG\n",
    )
    bare = score(
        "Ana\tPER\nMaria\tPER\nin\tO\nTartu\tLOC\n\nACME\tORG\n",
        "Ana\tPER\nMaria\tO\nin\tO\nTartu\tORG\n\nACME\tORG\n",
    )
    assert bio == bare
    assert 0 < bio["metrics"]["macro_f1"] < 1


def conllu(*words):
    """A CoNLL-U sentence of (UPOS, HEAD, DEPREL) words."""
    return "".join(
        f"{i}\tw{i}\t_\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n" for i, (upos, head, rel) in enumerate(words, 1)
    ) + "\n"


def eval_cli(tmp_path, task, gold, pred, *extra, model="m"):
    (tmp_path / "gold").write_text(gold, encoding="utf-8")
    (tmp_path / "pred").write_text(pred, encoding="utf-8")
    return bertpipe_cli(
        "eval", task, "--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred"),
        "--train-lang", "sl", "--test-lang", "hr", "--model", model, *extra,
    )


def test_eval_pos_scores_upos_accuracy(tmp_path):
    gold = conllu(("NOUN", 2, "nsubj"), ("VERB", 0, "root")) + conllu(("ADJ", 0, "root"))
    # a POS-only model may leave heads and deprels unset
    pred = conllu(("NOUN", "_", "_"), ("NOUN", "_", "_")) + conllu(("ADJ", "_", "_"))
    done = eval_cli(tmp_path, "pos", gold, pred)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["task"], report["train_lang"], report["test_lang"]) == ("POS", "sl", "hr")
    assert report["metrics"] == {"upos_acc": pytest.approx(2 / 3)}


def test_eval_dp_compares_universal_deprels(tmp_path):
    gold = conllu(("NOUN", 2, "nmod:poss"), ("NOUN", 0, "root"), ("ADV", 2, "advmod"), ("NOUN", 2, "obj"))
    pred = conllu(("NOUN", 2, "nmod"), ("NOUN", 0, "root"), ("ADV", 2, "obl:tmod"), ("NOUN", 1, "obj"))
    done = eval_cli(tmp_path, "dp", gold, pred)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["metrics"] == {"uas": 0.75, "las": 0.5}


@pytest.mark.parametrize(
    "flag, key", [("--train-lang", "train_lang"), ("--test-lang", "test_lang"), ("--model", "model_name")]
)
def test_eval_empty_label_is_a_validation_error_before_any_output(tmp_path, flag, key):
    gold = conllu(("NOUN", 0, "root"))
    out = tmp_path / "report.json"
    done = eval_cli(tmp_path, "pos", gold, gold, "--out", str(out), flag, "")
    assert done.returncode == 1
    assert done.stderr == f"bertpipe: validation error: report {key} must not be empty\n"
    assert done.stdout == ""
    assert not out.exists()


def test_eval_dp_strip_subtypes_flag_is_gone(tmp_path):
    gold = conllu(("NOUN", 0, "root"))
    done = eval_cli(tmp_path, "dp", gold, gold, "--strip-subtypes")
    assert done.returncode == 1
    assert "--strip-subtypes" in done.stderr


def test_report_dp_renders_uas_and_las_per_model(tmp_path):
    gold = conllu(("NOUN", 2, "nsubj"), ("VERB", 0, "root"))
    paths = []
    for model, pred in [("mbert", conllu(("NOUN", 2, "obj"), ("VERB", 0, "root"))), ("cse", gold)]:
        path = tmp_path / f"{model}.json"
        done = eval_cli(tmp_path, "dp", gold, pred, "--out", str(path), model=model)
        assert done.returncode == 0, done.stderr
        paths.append(str(path))
    done = bertpipe_cli("report", "--task", "dp", *paths)
    assert done.returncode == 0, done.stderr
    header, _, row = done.stdout.splitlines()
    assert header.split("|")[3:-1] == [
        " mbert UAS ", " mbert LAS ", " cse UAS ", " cse LAS ", " cse-mbert UAS ", " cse-mbert LAS ",
    ]
    assert [cell.strip() for cell in row.split("|")[1:-1]] == [
        "sl", "hr", "1.000", "0.500", "1.000", "1.000", "+0.000", "+0.500",
    ]


PINNED_NER_GOLD = "Ana\tB-PERSON\nMaria\tI-PERSON\nin\tO\nTartu\tB-GPE\n\nACME\tB-ORG\nLtd\tI-ORG\nsold\tO\nEmacs\tB-MISC\n"
PINNED_NER_PRED = "Ana\tB-PERSON\nMaria\tB-PERSON\nin\tO\nTartu\tB-ORG\n\nACME\tB-ORG\nLtd\tI-ORG\nsold\tO\nEmacs\tB-GPE\n"
PINNED_UD_GOLD = conllu(("NOUN", 2, "nmod:poss"), ("VERB", 0, "root"), ("ADV", 2, "advmod")) + conllu(
    ("PRON", 2, "nsubj"), ("VERB", 0, "root"), ("NOUN", 2, "obj")
)
PINNED_UD_PRED = conllu(("NOUN", 2, "nmod"), ("VERB", 0, "root"), ("ADJ", 2, "obl:tmod")) + conllu(
    ("PRON", 3, "nsubj"), ("VERB", 0, "root"), ("VERB", 2, "obj")
)


class TestPinnedReportBytes:
    """`bertpipe eval` stdout and --out bytes pinned by sha256: a refactor of scoring must keep them."""

    @pytest.mark.parametrize(
        "task, gold, pred, stdout_sha256, out_sha256",
        [
            (
                "ner", PINNED_NER_GOLD, PINNED_NER_PRED,
                "a3e6c27161d19115a628e6a0a15b865afd6f0c98223c9b44758d96f72cc0a1fe",
                "57c0c8c64b2914cd0430dca51302e09071f77df98bae1e5b6ed118ff93c3fba2",
            ),
            (
                "pos", PINNED_UD_GOLD, PINNED_UD_PRED,
                "100bdacfc0279bbe7b9bb4ea6eaf97f5aa4fa693ae55d7b335bd15b6f82bcf5a",
                "7bf0ea145eb552421b4a3b3e4abbf6e7fa6c2a56ca146546356afec01a543aca",
            ),
            (
                "dp", PINNED_UD_GOLD, PINNED_UD_PRED,
                "368ac69d5f2e4718ccb4e50fb363e82fdd461fc715b2f726151571d20c8341dd",
                "b524c424036e35d5f6734e9effa9f0e3f8d9f84caac1a410ca17705e2f44b1e7",
            ),
        ],
    )
    def test_eval_report_bytes(self, tmp_path, task, gold, pred, stdout_sha256, out_sha256):
        extra = []
        if task == "ner":
            label_map = tmp_path / "map.json"
            label_map.write_text(
                json.dumps({"map": {"PERSON": "PER", "GPE": "LOC", "ORG": "ORG", "MISC": "O", "O": "O"}}),
                encoding="utf-8",
            )
            extra = ["--span-level", "--label-map", str(label_map)]
        out = tmp_path / "report.json"
        done = eval_cli(tmp_path, task, gold, pred, *extra, "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == stdout_sha256
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha256


def test_report_baseline_absent_from_the_reports_is_a_validation_error(tmp_path):
    gold = conllu(("NOUN", 0, "root"))
    path = tmp_path / "m.json"
    assert eval_cli(tmp_path, "dp", gold, gold, "--out", str(path)).returncode == 0
    done = bertpipe_cli("report", "--task", "dp", "--baseline", "nope", str(path))
    assert done.returncode == 1, done.stderr
    assert "validation error: baseline model 'nope' not among the DP reports" in done.stderr
    assert done.stdout == ""


def assert_one_error_line(done, path):
    """Exit 2 with one `bertpipe: error:` line naming path, and no traceback."""
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert done.stderr.startswith("bertpipe: error: ")
    assert str(path) in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize(
    "label_map, message",
    [
        ('{"PER": "PER", "O": "O"}', "at $.PER: unknown key"),
        ('[{"map": {"PER": "PER"}}]', "at $: expected an object"),
        ('{"map": {"PER": "PER", "O": "O"}, "bio_handling": "passthrough"}', "at $.bio_handling: unknown key"),
        ('{"map": {"PER": "PER", "O": "O", "PER": "O"}}', "repeated key 'PER'"),
        ('{"map": {"B-PER": "PER", "O": "O"}}', "'B-PER' carries a B-/I- prefix"),
        ('{"map": {"PER": "PERSON", "O": "O"}}', "sends 'PER' to 'PERSON'"),
        ('{"map": ', "Expecting value"),
        ("[" * 100_000, "recursion"),
    ],
)
def test_malformed_label_map_is_one_error_line(tmp_path, label_map, message):
    path = tmp_path / "map.json"
    path.write_text(label_map, encoding="utf-8")
    tags = "Ana\tB-PER\n"
    done = eval_cli(tmp_path, "ner", tags, tags, "--label-map", str(path))
    assert_one_error_line(done, path)
    assert message in done.stderr


@pytest.mark.parametrize(
    "report, message",
    [
        ({"task": "NER", "test_lang": "et", "model_name": "m", "metrics": {"macro_f1": 0.5}}, "at $.train_lang: missing key"),
        ({"task": "NER", "train_lang": "et", "test_lang": "et", "model_name": "m", "metrics": {}}, "'macro_f1'"),
        ("[" * 100_000, "recursion"),
        (
            '[{"task": "NER", "train_lang": "et", "test_lang": "et", "model_name": "m", "model_name": "n",'
            ' "metrics": {"macro_f1": 0.5}}]',
            "repeated key 'model_name'",
        ),
    ],
)
def test_malformed_report_file_is_one_error_line(tmp_path, report, message):
    path = tmp_path / "report.json"
    path.write_text(report if isinstance(report, str) else json.dumps(report), encoding="utf-8")
    done = bertpipe_cli("report", "--task", "ner", str(path))
    assert_one_error_line(done, path)
    assert message in done.stderr


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


def test_version_reports_the_config_schema_version():
    done = bertpipe_cli("version", "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["config_schema_version"] == CONFIG_SCHEMA_VERSION == 5


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


def assert_runtime_error(done, out_dir, message):
    """Exit 2 with one readable line, no traceback and no half-written file."""
    assert done.returncode == 2, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not list(out_dir.rglob("*.tmp"))


def test_missing_corpus_file_is_a_runtime_error(tmp_path):
    config = write_config(tmp_path)
    (tmp_path / "fi.txt").unlink()
    done = bertpipe_cli("pipeline", "run", config, "--out", str(tmp_path / "out"))
    assert_runtime_error(done, tmp_path / "out", "stage 'dedup' failed")
    assert "fi.txt" in done.stderr


def test_vocab_below_alphabet_size_is_a_runtime_error(tmp_path):
    path = tmp_path / "config.json"
    write_config(tmp_path)
    config = json.loads(path.read_text(encoding="utf-8"))
    config["vocab"]["target_size"] = 20
    path.write_text(json.dumps(config), encoding="utf-8")
    done = bertpipe_cli("pipeline", "run", str(path), "--out", str(tmp_path / "out"))
    assert_runtime_error(done, tmp_path / "out", "stage 'vocab' failed: target below alphabet size")
    assert not (tmp_path / "out" / "vocab.txt").exists()


def test_language_without_text_is_one_error_line_naming_it_and_its_file(tmp_path):
    path = tmp_path / "config.json"
    write_config(tmp_path)
    (tmp_path / "xx.txt").write_text("\n\n \n", encoding="utf-8")
    config = json.loads(path.read_text(encoding="utf-8"))
    config["languages"].append({"code": "xx", "corpus": ["xx.txt"], "vocab_budget": 100})
    path.write_text(json.dumps(config), encoding="utf-8")
    done = bertpipe_cli("pipeline", "run", str(path), "--out", str(tmp_path / "out"))
    message = f"bertpipe: stage 'dedup' failed: language 'xx': no text in {tmp_path / 'xx.txt'}"
    assert_runtime_error(done, tmp_path / "out", message)
    # every other line is a JSON event
    assert [line for line in done.stderr.splitlines() if not line.startswith("{")] == [message]
    assert not (tmp_path / "out" / "dedup" / "xx.txt").exists()


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


def test_pipeline_run_needs_no_jsonschema(tmp_path):
    config = write_config(tmp_path)
    (tmp_path / "invalid").mkdir()
    invalid = write_config(tmp_path / "invalid", phases=[{"epochs": 1, "batch_size": 8, "seq_len": 8}])
    probe = "import sys; sys.modules['jsonschema'] = None; from bertpipe.cli import main; sys.exit(main())"
    done = run_python("-c", probe, "pipeline", "run", config, "--out", str(tmp_path / "out"))
    # every stage before schedule completes; schedule's crash is a known defect
    assert done.returncode == 2, done.stderr
    assert "stage 'schedule' failed" in done.stderr
    done = run_python("-c", probe, "pipeline", "run", invalid, "--out", str(tmp_path / "invalid" / "out"))
    assert done.returncode == 1
    assert "config does not match schema at $.phases[0].seq_len" in done.stderr


def test_pipeline_run_does_not_depend_on_the_hash_seed(tmp_path):
    """Runs under two string-hash salts write the same files, byte for byte."""
    config = write_config(tmp_path)
    rng = random.Random(4)
    for lang in ("en", "fi"):
        # exact and near repeats, in documents of ten sentences
        lines = [unit.text for unit in make_dedup_corpus(rng, 80, lang)]
        docs = ["\n".join(lines[k : k + 10]) for k in range(0, len(lines), 10)]
        (tmp_path / f"{lang}.txt").write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        done = bertpipe_cli("pipeline", "run", config, "--out", str(out), PYTHONHASHSEED=seed)
        files = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}
        runs.append((done.returncode, files))
    assert runs[0] == runs[1]
    names = set(runs[0][1])
    assert {"vocab.txt", "pretrain/phase0.bin", "plan.json"} <= names
    assert any(name.startswith("dedup/") for name in names)
    assert any(name.startswith("sample/") for name in names)


# `python -c ON_CPUS n args...` runs the CLI on args as if this process had
# n CPUs, with schedule's undefined `n_tok` given a value so the run
# completes, and reports each fork on stderr
ON_CPUS = """
import os, sys
n = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(n))
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print("forked", file=sys.stderr, flush=True)
    return pid
os.fork = reporting_fork
import bertpipe.pipeline
bertpipe.pipeline.n_tok = 0
from bertpipe.cli import main
sys.exit(main())
"""


def without_timings(stderr):
    keys = ("duration_s", "max_rss_mb", "workers")
    return [
        {k: v for k, v in json.loads(line).items() if k not in keys} if line.startswith("{") else line
        for line in stderr.splitlines()
    ]


def test_pipeline_run_on_two_cpus_prints_and_writes_what_one_cpu_does(tmp_path):
    config = write_config(tmp_path, phases=[{"epochs": 1, "batch_size": 8, "seq_len": s} for s in (32, 64)])
    runs, forks = [], []
    for n in (1, 2):
        out = tmp_path / f"out{n}"
        done = run_python("-c", ON_CPUS, str(n), "pipeline", "run", config, "--out", str(out))
        assert done.returncode == 0, done.stderr
        files = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}
        lines = without_timings(done.stderr)
        forks.append(lines.count("forked"))
        runs.append((done.stdout, [line for line in lines if line != "forked"], files))
    # two languages, two piece families and two phases: one fork each in
    # dedup, in sample, in vocab, in the tokenization of pretrain_data and
    # in its phase writing
    assert forks == [0, 5]
    assert runs[0] == runs[1]
    assert "manifest.json" in runs[0][2]


def corpus_config(tmp_path, words):
    """The config of write_config over two corpora of about `words` words each."""
    config = write_config(tmp_path)
    rng = random.Random(5)
    for lang in ("en", "fi"):
        lines = [unit.text for unit in make_dedup_corpus(rng, words // 14, lang)]
        (tmp_path / f"{lang}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


@pytest.mark.parametrize("at", ['{"event": "stage_start", "stage": "dedup"}', "forked"], ids=["stage_start", "forked"])
def test_killed_run_leaves_no_process_in_its_group(tmp_path, at):
    """SIGKILL at dedup's stage_start, as the benchmark's set-up probes do,
    or just after dedup forks its worker: every process of the run ends."""
    config = corpus_config(tmp_path, 200_000)
    cmd = [sys.executable, "-c", ON_CPUS, "2", "pipeline", "run", config, "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, encoding="utf-8", env=env, start_new_session=True
    )
    try:
        for line in proc.stderr:
            if line.strip() == at:
                break
        else:
            pytest.fail(f"the run ended without printing {at}")
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.stderr.close()
        proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the killed run outlived it by 10 s"
        time.sleep(0.05)


# `python -c ORPHANED args...` runs the CLI on args on two CPUs, with
# `n_tok` given a value; dedup's worker, once it has written its output to
# its tmp file, prints "waiting" and waits for the run's process to die
ORPHANED = """
import os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
import bertpipe.pipeline as pipeline
pipeline.n_tok = 0
run = os.getpid()
write_units = pipeline.write_units
def waiting(units, out, granularity):
    write_units(units, out, granularity)
    if os.getpid() != run:
        print("waiting", file=sys.stderr, flush=True)
        deadline = time.monotonic() + 30
        while os.getppid() == run and time.monotonic() < deadline:
            time.sleep(0.01)
pipeline.write_units = waiting
from bertpipe.cli import main
sys.exit(main())
"""


def test_worker_of_a_killed_run_commits_no_output(tmp_path):
    """SIGKILL the run while dedup's worker has fi's output in its tmp file:
    the worker removes it and exits, and renames nothing into the run's
    directory."""
    config, out = write_config(tmp_path), tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHANED, "pipeline", "run", config, "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, encoding="utf-8", env=env, start_new_session=True,
    )
    try:
        for line in proc.stderr:
            if line.strip() == "waiting":
                break
        else:
            pytest.fail("the run ended before its worker waited")
        assert (out / "dedup" / "fi.txt.tmp").exists()
        proc.send_signal(signal.SIGKILL)
        proc.stderr.read()  # the end of the file: the worker, which holds it open too, has exited
    finally:
        proc.stderr.close()
        proc.wait(timeout=10)
    assert not (out / "dedup" / "fi.txt").exists()
    assert not (out / "dedup" / "fi.txt.tmp").exists()
