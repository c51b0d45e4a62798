"""Tests of the benchmark's own parts: generator, tracing and checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import calibrate
import checks
import corpusgen
import layers
import run
from tracing import Tracer, Unavailable, parse_events

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def small(name: str) -> corpusgen.Workload:
    return dataclasses.replace(corpusgen.WORKLOADS[name], words_per_language=3000)


# ------------------------------------------------------------------ generator

@pytest.mark.parametrize("name", list(corpusgen.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = corpusgen.generate(small(name), 7, str(tmp_path / "a"))
    b = corpusgen.generate(small(name), 7, str(tmp_path / "b"))
    c = corpusgen.generate(small(name), 8, str(tmp_path / "c"))
    assert a["corpora"] == b["corpora"]
    for lang in a["corpora"]:
        assert (tmp_path / "a" / "corpus" / f"{lang}.txt").read_bytes() == (
            tmp_path / "b" / "corpus" / f"{lang}.txt"
        ).read_bytes()
        assert a["corpora"][lang]["sha256"] != c["corpora"][lang]["sha256"]
    assert a["words"] == sum(c["words"] for c in a["corpora"].values()) >= 3000


def test_rerun_uses_the_dupes_corpus(tmp_path):
    a = corpusgen.generate(small("dupes"), 3, str(tmp_path / "a"))
    b = corpusgen.generate(small("rerun"), 3, str(tmp_path / "b"))
    assert a["corpora"] == b["corpora"]


def test_corpus_has_documents_duplicates_brackets_and_non_ascii(tmp_path):
    info = corpusgen.generate(small("trilingual"), 1, str(tmp_path))
    text = (tmp_path / "corpus" / "fi.txt").read_text("utf-8")
    sentences = [line for line in text.split("\n") if line]
    assert "\n\n" in text
    assert len(set(sentences)) < len(sentences)
    assert any(line.endswith("]") and "[" in line.split()[-1] for line in sentences)
    assert any(ch in text for ch in "äö")
    assert info["corpora"]["fi"]["words"] == sum(len(s.split()) for s in sentences)


# -------------------------------------------------------------------- tracing

def test_event_parser_tolerates_non_json_lines():
    lines = [
        '{"event": "stage_start", "stage": "dedup"}\n',
        "budget for fi exceeds corpus size (100 > 50 tokens); taking whole corpus\n",
        "\n",
        "[1, 2]\n",
        '{"no_event": 1}\n',
        "bertpipe: stage 'schedule' failed\n",
    ]
    events, other = parse_events(lines)
    assert events == [{"event": "stage_start", "stage": "dedup"}]
    assert other == 4


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.begin("outer")
    tr.begin("inner")
    tr.end()
    tr.end()
    assert tr.spans[1][3] == 0 and tr.spans[0][3] is None
    assert tr.self_time["outer"] == pytest.approx(tr.total["outer"] - tr.total["inner"])


def test_missing_names_read_null_with_reason():
    empty = types.SimpleNamespace(__name__="gone")
    tr = Tracer()
    layers.instrument(tr, empty, empty, empty)
    metrics = layers.layer_metrics(tr, 1.0, {name: Unavailable("not run") for name, _ in layers.OUTSIDE})
    assert set(metrics) == set(layers.UNITS)
    for name, metric in metrics.items():
        assert metric["value"] is None, name
        assert metric["reason"], name
    assert "gone.dedup_corpus not found" in metrics["dedup.dedup_corpus_s"]["reason"]


def test_originals_restored_even_when_the_call_raises():
    def boom():
        raise RuntimeError("boom")

    module = types.SimpleNamespace(__name__="m", boom=boom)
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            tr.wrap(module, "boom", "m.boom")
            assert module.boom is not boom
            module.boom()
    assert module.boom is boom
    assert tr.calls["m.boom"] == 1 and not tr._stack


def test_function_never_called_reads_null_not_zero():
    module = types.SimpleNamespace(__name__="m", f=lambda: 3)
    with Tracer() as tr:
        tr.wrap(module, "f", "m.f")
    with pytest.raises(Unavailable, match="never called"):
        tr.seconds("m.f")


def test_failing_observer_reads_null_not_zero():
    module = types.SimpleNamespace(__name__="m", f=lambda: 3)
    with Tracer() as tr:
        tr.wrap(module, "f", "m.f", lambda t, a, k, r: r.missing_attribute)
        assert module.f() == 3
    with pytest.raises(Unavailable, match="observer failed"):
        tr.count("anything", "m.f")


def test_stage_spans_come_from_events():
    tr = Tracer()
    tr.event({"event": "stage_start", "stage": "dedup"})
    tr.event({"event": "stage_done", "stage": "dedup", "status": "skipped (up-to-date)"})
    tr.event({"event": "stage_start", "stage": "sample"})
    tr.event({"event": "stage_failed", "stage": "sample", "error": "x"})
    assert tr.calls["stage.dedup"] == tr.calls["stage.sample"] == 1
    assert tr.counters["stages_skipped"] == 1


# --------------------------------------------------------------------- checks

def test_oracle_matches_the_program_on_a_generated_corpus(tmp_path):
    from bertpipe.corpus import read_units
    from bertpipe.dedup import dedup_corpus

    corpusgen.generate(small("dupes"), 2, str(tmp_path))
    path = str(tmp_path / "corpus" / "sl.txt")
    kept, stats = dedup_corpus(read_units(path, "sl"), corpusgen.DEDUP_N, corpusgen.DEDUP_THRESHOLD)
    with open(path, encoding="utf-8") as f:
        sentences = [line.strip() for line in f if line.strip()]
    expected = checks.oracle_dedup(sentences, corpusgen.DEDUP_N, corpusgen.DEDUP_THRESHOLD)
    assert [u.text for u in kept] == expected
    assert stats.units_dropped > 0


def test_oracle_drops_exact_and_last_token_near_duplicates():
    long = " ".join(f"w{i}" for i in range(20))
    near = long.rsplit(" ", 1)[0] + " other"
    short = "a b c"
    assert checks.oracle_dedup([long, long, near, short, short], 9, 0.9) == [long, short]


# ------------------------------------------------------------- benchmark file

def test_calibration_work_is_fixed():
    # Scaled times are only comparable while calibrate.py does the same work.
    assert calibrate.main() == "ae630fc386ef869f15813288fb53f33496393c4c528f3b3e83dd4357bf42b6f4"


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(corpusgen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dupes", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
