"""The bertpipe functions the traced run wraps, and the per-layer metrics.

Each function is wrapped at the module attribute its caller looks it up by
(for example `bertpipe.pipeline.dedup_corpus`, not `bertpipe.dedup`'s copy),
so the pipeline's own calls go through the wrapper.
"""

from __future__ import annotations

import os
from typing import Callable

from tracing import Tracer, Unavailable

STAGES = ("dedup", "sample", "vocab", "pretrain_data", "schedule")


def _add_len(key: str):
    def observe(tr, args, kwargs, result):
        tr.counters[key] += len(result)

    return observe


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dedup(tr, args, kwargs, result):
    stats = result[1]
    tr.counters["dedup.units_in"] += stats.units_in
    tr.counters["dedup.units_dropped"] += stats.units_dropped


def _counted(tr, args, kwargs, result):
    tr.counters["vocab.word_types"] = len(result.counts)


def _learned(tr, args, kwargs, result):
    tr.counters["vocab.pieces"] = len(result)


def _tokenized(tr, args, kwargs, result):
    words = _arg(args, kwargs, 0, "text").split()
    tr.counters["vocab.words_tokenized"] += len(words)
    tr.sets["vocab.distinct_words"].update(words)
    tr.counters["vocab.pieces_out"] += len(result)
    tr.counters["vocab.unk_pieces"] += result.count("[UNK]")


def _written(tr, args, kwargs, result):
    tr.counters["pretrain.instances"] += result
    tr.counters["pretrain.bytes_written"] += _arg(args, kwargs, 1, "out").tell()


def _packed(tr, args, kwargs, result):
    instance = _arg(args, kwargs, 0, "instance")
    tr.counters["pretrain.packed"] += 1
    tr.counters["pretrain.positions"] += len(instance.token_ids)
    tr.counters["pretrain.content"] += sum(instance.input_mask)
    tr.counters["pretrain.masked"] += len(instance.masked_positions)
    tr.counters["pretrain.is_next"] += bool(instance.is_next)


def _hashed(tr, args, kwargs, result):
    tr.counters["pipeline.hash_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _planned(tr, args, kwargs, result):
    tr.counters["schedule.total_steps"] = result.total_steps


def instrument(tracer: Tracer, pipeline, dedup, pretrain) -> None:
    """Wrap the layer functions of the given bertpipe modules."""
    tracer.wrap(pipeline, "read_units", "corpus.read_units", _add_len("corpus.units"))
    tracer.wrap(pipeline, "write_units", "corpus.write_units")
    tracer.wrap(pipeline, "dedup_corpus", "dedup.dedup_corpus", _dedup)
    tracer.wrap(dedup, "shingle", "dedup.shingle", _add_len("dedup.shingles"))
    tracer.wrap(pipeline, "sample_subset", "vocab.sample_subset")
    tracer.wrap(pipeline, "count_words", "vocab.count_words", _counted)
    tracer.wrap(pipeline, "learn_wordpieces", "vocab.learn_wordpieces", _learned)
    tracer.wrap(pretrain, "tokenize_text", "vocab.tokenize_text", _tokenized)
    tracer.wrap(pipeline, "read_documents", "pretrain.read_documents", _add_len("pretrain.documents"))
    tracer.wrap(pipeline, "write_instances", "pretrain.write_instances", _written)
    tracer.wrap(pretrain, "pack_instance", "pretrain.pack_instance", _packed)
    tracer.wrap(pipeline, "file_sha256", "pipeline.hash", _hashed)
    tracer.wrap(pipeline, "make_plan", "schedule.make_plan", _planned)


def _stage(stage: str) -> Callable[[Tracer], float]:
    def seconds(tr: Tracer) -> float:
        name = f"stage.{stage}"
        if not tr.calls.get(name):
            raise Unavailable(f"stage {stage!r} never started")
        return tr.total[name]

    return seconds


def _stages_skipped(tr: Tracer) -> float:
    if not any(name.startswith("stage.") for name in tr.calls):
        raise Unavailable("no stage started")
    return tr.counters["stages_skipped"]


def _distinct_words(tr: Tracer) -> float:
    tr.require("vocab.tokenize_text")
    return len(tr.sets["vocab.distinct_words"])


# (name, unit, value from the traced run); read in this order.
TRACED: list[tuple[str, str, Callable[[Tracer], float]]] = [
    *[(f"pipeline.stage.{s}_s", "s", _stage(s)) for s in STAGES],
    ("pipeline.hash_s", "s", lambda tr: tr.seconds("pipeline.hash")),
    ("pipeline.hash_bytes", "bytes", lambda tr: tr.count("pipeline.hash_bytes", "pipeline.hash")),
    ("pipeline.stages_skipped", "count", _stages_skipped),
    ("corpus.read_units_s", "s", lambda tr: tr.seconds("corpus.read_units")),
    ("corpus.write_units_s", "s", lambda tr: tr.seconds("corpus.write_units")),
    ("corpus.units", "count", lambda tr: tr.count("corpus.units", "corpus.read_units")),
    ("dedup.dedup_corpus_s", "s", lambda tr: tr.seconds("dedup.dedup_corpus")),
    ("dedup.shingle_s", "s", lambda tr: tr.seconds("dedup.shingle")),
    ("dedup.shingles", "count", lambda tr: tr.count("dedup.shingles", "dedup.shingle")),
    ("dedup.units_in", "count", lambda tr: tr.count("dedup.units_in", "dedup.dedup_corpus")),
    ("dedup.drop_frac", "ratio", lambda tr: tr.ratio("dedup.units_dropped", "dedup.units_in", "dedup.dedup_corpus")),
    ("vocab.sample_subset_s", "s", lambda tr: tr.seconds("vocab.sample_subset")),
    ("vocab.count_words_s", "s", lambda tr: tr.seconds("vocab.count_words")),
    ("vocab.word_types", "count", lambda tr: tr.count("vocab.word_types", "vocab.count_words")),
    ("vocab.learn_wordpieces_s", "s", lambda tr: tr.seconds("vocab.learn_wordpieces")),
    ("vocab.pieces", "count", lambda tr: tr.count("vocab.pieces", "vocab.learn_wordpieces")),
    ("vocab.tokenize_text_s", "s", lambda tr: tr.seconds("vocab.tokenize_text")),
    ("vocab.words_tokenized", "count", lambda tr: tr.count("vocab.words_tokenized", "vocab.tokenize_text")),
    ("vocab.distinct_words_tokenized", "count", _distinct_words),
    ("vocab.fertility", "pieces/word", lambda tr: tr.ratio("vocab.pieces_out", "vocab.words_tokenized", "vocab.tokenize_text")),
    ("vocab.unk_rate", "ratio", lambda tr: tr.ratio("vocab.unk_pieces", "vocab.pieces_out", "vocab.tokenize_text")),
    ("pretrain.read_documents_s", "s", lambda tr: tr.seconds("pretrain.read_documents")),
    ("pretrain.documents", "count", lambda tr: tr.count("pretrain.documents", "pretrain.read_documents")),
    ("pretrain.write_instances_s", "s", lambda tr: tr.seconds("pretrain.write_instances")),
    ("pretrain.generate_s", "s", lambda tr: tr.seconds("pretrain.write_instances", own=True)),
    ("pretrain.pack_instance_s", "s", lambda tr: tr.seconds("pretrain.pack_instance")),
    ("pretrain.instances", "count", lambda tr: tr.count("pretrain.instances", "pretrain.write_instances")),
    ("pretrain.bytes_written", "bytes", lambda tr: tr.count("pretrain.bytes_written", "pretrain.write_instances")),
    ("pretrain.masked_frac", "ratio", lambda tr: tr.ratio("pretrain.masked", "pretrain.content", "pretrain.pack_instance")),
    ("pretrain.is_next_frac", "ratio", lambda tr: tr.ratio("pretrain.is_next", "pretrain.packed", "pretrain.pack_instance")),
    ("pretrain.pad_frac", "ratio",
     lambda tr: 1 - tr.ratio("pretrain.content", "pretrain.positions", "pretrain.pack_instance")),
    ("schedule.make_plan_s", "s", lambda tr: tr.seconds("schedule.make_plan")),
    ("schedule.total_steps", "count", lambda tr: tr.count("schedule.total_steps", "schedule.make_plan")),
]

# Per-layer metrics measured outside the traced run, by the benchmark itself.
OUTSIDE: list[tuple[str, str]] = [
    ("pipeline.fail_frac", "ratio"),
    ("pipeline.stderr_non_json_lines", "count"),
    ("pipeline.tmp_files_left", "count"),
    ("vocab.reserved_after_load", "count"),
    ("trace.overhead_s", "s"),
]

UNITS = {name: unit for name, unit, _ in TRACED} | dict(OUTSIDE)


def layer_metrics(tr: Tracer, scale: float, outside: dict[str, float | Unavailable]) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit"}, or value None and a reason.

    Traced times are multiplied by the host-speed `scale`; `outside` values
    are taken as they are.
    """
    values: dict[str, float | Unavailable] = dict(outside)
    for name, unit, read in TRACED:
        try:
            values[name] = read(tr) * (scale if unit == "s" else 1)
        except Unavailable as e:
            values[name] = e
    metrics = {}
    for name, unit in UNITS.items():
        value = values[name]
        if isinstance(value, Unavailable):
            metrics[name] = {"value": None, "unit": unit, "reason": str(value)}
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics
