"""End-to-end pipeline: dedup -> sample -> vocab -> pretrain-data -> schedule.

Every stage writes its artifacts atomically (tmp file + rename) and records
input/output content hashes plus parameters in a manifest. Re-running with
unchanged inputs and parameters skips up-to-date stages. The manifest
carries no timestamps or absolute paths, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

import jsonschema

from . import __version__
from .corpus import Granularity, TextUnit, read_units, write_units
from .dedup import dedup_corpus
from .pretrain import (
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

STAGES = ("dedup", "sample", "vocab", "pretrain_data", "schedule")

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
        raise ConfigError(f"config does not match schema: {e.message}") from e

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


def _atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    os.replace(tmp, path)


@dataclass
class StageResult:
    name: str
    status: str  # "completed" | "skipped (up-to-date)"


@dataclass
class _StageRecorder:
    out_dir: str
    previous: dict[str, dict]
    manifest_stages: list[dict] = field(default_factory=list)
    results: list[StageResult] = field(default_factory=list)

    def up_to_date(self, name: str, params: dict, inputs: dict[str, str]) -> bool:
        prev = self.previous.get(name)
        if prev is None or prev.get("params") != params or prev.get("inputs") != inputs:
            return False
        for rel, digest in prev.get("outputs", {}).items():
            path = os.path.join(self.out_dir, rel)
            if not os.path.exists(path) or file_sha256(path) != digest:
                return False
        return True

    def record(self, name: str, params: dict, inputs: dict[str, str], outputs: list[str], skipped: bool) -> None:
        self.manifest_stages.append(
            {
                "name": name,
                "params": params,
                "inputs": inputs,
                "outputs": {rel: file_sha256(os.path.join(self.out_dir, rel)) for rel in sorted(outputs)},
            }
        )
        self.results.append(
            StageResult(name, "skipped (up-to-date)" if skipped else "completed")
        )


def run_pipeline(
    config: PipelineConfig,
    out_dir: str,
    events: EventSink | None = None,
    force: bool = False,
    jobs: int = 1,
) -> list[StageResult]:
    """Run all stages, writing artifacts and a manifest under out_dir.

    `jobs` is accepted for interface stability; the current implementation
    executes stages and units sequentially, which is already deterministic.
    """
    del jobs
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

    rec = _StageRecorder(out_dir=out_dir, previous=previous)

    for name in STAGES:
        runner = _STAGE_RUNNERS[name]
        emit({"event": "stage_start", "stage": name})
        try:
            runner(config, out_dir, rec, emit)
        except StageError:
            raise
        except Exception as e:
            emit({"event": "stage_failed", "stage": name, "error": str(e)})
            raise StageError(name, e) from e
        emit({"event": "stage_done", "stage": name, "status": rec.results[-1].status})

    manifest = {
        "tool": "bertpipe",
        "tool_version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "stages": rec.manifest_stages,
    }
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    emit({"event": "pipeline_done", "manifest": MANIFEST_NAME})
    return rec.results


def _dedup_outputs(config: PipelineConfig) -> dict[str, list[str]]:
    return {
        lang.code: [f"dedup/{lang.code}.txt", f"dedup/{lang.code}.stats.json"]
        for lang in config.languages
    }


def _stage_dedup(config, out_dir, rec, emit):
    params = {
        "n": config.dedup.n,
        "threshold": config.dedup.threshold,
        "granularity": config.dedup.granularity.value,
        "languages": [lang.code for lang in config.languages],
    }
    inputs = {
        p: file_sha256(config.corpus_path(p))
        for lang in config.languages
        for p in lang.corpus
    }
    outputs = [rel for rels in _dedup_outputs(config).values() for rel in rels]
    skipped = rec.up_to_date("dedup", params, inputs)
    if not skipped:
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
            out_txt = os.path.join(out_dir, f"dedup/{lang.code}.txt")
            tmp = out_txt + ".tmp"
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                write_units(kept, f, config.dedup.granularity)
            os.replace(tmp, out_txt)
            _atomic_write_text(
                os.path.join(out_dir, f"dedup/{lang.code}.stats.json"),
                json.dumps(stats.as_dict(), indent=2, sort_keys=True) + "\n",
            )
            emit({"event": "dedup_lang", "lang": lang.code, **stats.as_dict()})
    rec.record("dedup", params, inputs, outputs, skipped)


def _stage_sample(config, out_dir, rec, emit):
    params = {
        "seed": config.vocab.seed,
        "budgets": {lang.code: lang.vocab_budget for lang in config.languages},
    }
    inputs = {
        f"dedup/{lang.code}.txt": file_sha256(os.path.join(out_dir, f"dedup/{lang.code}.txt"))
        for lang in config.languages
    }
    outputs = [f"sample/{lang.code}.txt" for lang in config.languages]
    skipped = rec.up_to_date("sample", params, inputs)
    if not skipped:
        for i, lang in enumerate(config.languages):
            units = read_units(
                os.path.join(out_dir, f"dedup/{lang.code}.txt"),
                lang.code,
                config.dedup.granularity,
            )
            subset = sample_subset(
                units,
                LanguageBudget(lang.code, lang.vocab_budget),
                seed=config.vocab.seed + i,
            )
            out_txt = os.path.join(out_dir, f"sample/{lang.code}.txt")
            tmp = out_txt + ".tmp"
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                write_units(subset, f, config.dedup.granularity)
            os.replace(tmp, out_txt)
            emit({"event": "sample_lang", "lang": lang.code, "units": len(subset)})
    rec.record("sample", params, inputs, outputs, skipped)


def _stage_vocab(config, out_dir, rec, emit):
    params = {
        "target_size": config.vocab.target_size,
        "tolerance": config.vocab.tolerance,
        "seed": config.vocab.seed,
    }
    inputs = {
        f"sample/{lang.code}.txt": file_sha256(os.path.join(out_dir, f"sample/{lang.code}.txt"))
        for lang in config.languages
    }
    outputs = ["vocab.txt"]
    skipped = rec.up_to_date("vocab", params, inputs)
    if not skipped:
        subsets = [
            read_units(
                os.path.join(out_dir, f"sample/{lang.code}.txt"),
                lang.code,
                config.dedup.granularity,
            )
            for lang in config.languages
        ]
        counts = count_words(subsets)
        vocab = learn_wordpieces(
            counts,
            target_size=config.vocab.target_size,
            size_tolerance=config.vocab.tolerance,
        )
        tmp = os.path.join(out_dir, "vocab.txt.tmp")
        vocab.save(tmp)
        os.replace(tmp, os.path.join(out_dir, "vocab.txt"))
        emit({"event": "vocab_built", "size": len(vocab)})
    rec.record("vocab", params, inputs, outputs, skipped)


def _stage_pretrain(config, out_dir, rec, emit):
    params = {
        "phases": [{"seq_len": seq_len} for _, _, seq_len in config.phases],
        "mask_prob": config.masking.mask_prob,
        "replace_mask": config.masking.replace_mask,
        "replace_random": config.masking.replace_random,
        "keep_original": config.masking.keep_original,
        "max_predictions_per_seq": config.masking.max_predictions_per_seq,
        "dupe_factor": config.masking.dupe_factor,
        "seed": config.masking.rng_seed,
    }
    inputs = {
        f"dedup/{lang.code}.txt": file_sha256(os.path.join(out_dir, f"dedup/{lang.code}.txt"))
        for lang in config.languages
    }
    inputs["vocab.txt"] = file_sha256(os.path.join(out_dir, "vocab.txt"))
    outputs = [f"pretrain/phase{k}.bin" for k in range(len(config.phases))]
    outputs.append("pretrain/data.schema.json")
    skipped = rec.up_to_date("pretrain_data", params, inputs)
    if not skipped:
        vocab = Vocab.load(os.path.join(out_dir, "vocab.txt"))
        documents = []
        for lang in config.languages:
            documents.extend(read_documents(os.path.join(out_dir, f"dedup/{lang.code}.txt")))
        plan = make_plan(_kept_tokens(config, out_dir), list(config.phases))
        streams = phase_datasets(documents, vocab, plan, config.masking)
        for k, stream in enumerate(streams):
            out_bin = os.path.join(out_dir, f"pretrain/phase{k}.bin")
            tmp = out_bin + ".tmp"
            with open(tmp, "wb") as f:
                n = write_instances(stream, f)
            os.replace(tmp, out_bin)
            emit(
                {
                    "event": "pretrain_phase",
                    "phase": k,
                    "seq_len": plan.phases[k].seq_len,
                    "instances": n,
                }
            )
        schema_tmp = os.path.join(out_dir, "pretrain/data.schema.json.tmp")
        write_schema(schema_tmp)
        os.replace(schema_tmp, os.path.join(out_dir, "pretrain/data.schema.json"))
    rec.record("pretrain_data", params, inputs, outputs, skipped)


def _kept_tokens(config: PipelineConfig, out_dir: str) -> int:
    n_tok = 0
    for lang in config.languages:
        with open(os.path.join(out_dir, f"dedup/{lang.code}.stats.json"), "r", encoding="utf-8") as f:
            n_tok += json.load(f)["tokens_kept"]
    return n_tok


def _stage_schedule(config, out_dir, rec, emit):
    params = {
        "phases": [
            {"epochs": e, "batch_size": b, "seq_len": l} for e, b, l in config.phases
        ]
    }
    inputs = {
        f"dedup/{lang.code}.stats.json": file_sha256(
            os.path.join(out_dir, f"dedup/{lang.code}.stats.json")
        )
        for lang in config.languages
    }
    outputs = ["plan.json"]
    skipped = rec.up_to_date("schedule", params, inputs)
    if not skipped:
        plan = make_plan(_kept_tokens(config, out_dir), list(config.phases))
        _atomic_write_text(
            os.path.join(out_dir, "plan.json"),
            json.dumps(plan.as_dict(), indent=2, sort_keys=True) + "\n",
        )
        emit({"event": "schedule", "total_steps": plan.total_steps, "tokens": n_tok})
    rec.record("schedule", params, inputs, outputs, skipped)


_STAGE_RUNNERS = {
    "dedup": _stage_dedup,
    "sample": _stage_sample,
    "vocab": _stage_vocab,
    "pretrain_data": _stage_pretrain,
    "schedule": _stage_schedule,
}
