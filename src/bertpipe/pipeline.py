"""End-to-end pipeline: dedup -> sample -> vocab -> pretrain_data -> schedule.

Each stage is one row of a table: its parameters, its input files, its
output files and the function that writes them. Every artifact is written
atomically (tmp file + rename), and the manifest records each stage's
parameters and the content hashes of its inputs and outputs. Re-running
with unchanged inputs and parameters skips up-to-date stages. A stage's
parameters include its `rev`, which a code change that alters the stage's
output bytes by design bumps, so that output dirs written by the older
code re-run it. The manifest carries no timestamps or absolute paths, so
identical runs produce identical bytes. Timings and memory go only into
the events: each `stage_done` carries the stage's `duration_s` and the
process's peak RSS so far, `max_rss_mb`, so a run shows which stage sets
its peak.

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
import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import IO, Callable, Iterator, NamedTuple, Sequence

from . import __version__, jsonfile
from .corpus import Granularity, read_documents, read_units, write_units
from .dedup import dedup_corpus
from .jsonfile import FieldError, read_as
from .pretrain import (
    MAX_SEQ_LEN,
    GenerationStats,
    MaskingConfig,
    count_instances,
    instance_schema,
    phase_datasets,
    write_instances,
)
from .vocab import Vocab, count_words, learn_wordpieces, sample_subset

CONFIG_SCHEMA_VERSION = 5
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

    def __post_init__(self):
        if self.vocab_budget < 1:
            raise FieldError("vocab_budget", f"must be >= 1, got {self.vocab_budget}")


@dataclass(frozen=True)
class DedupConfig:
    n: int
    threshold: float
    granularity: Granularity

    def __post_init__(self):
        if self.n < 1:
            raise FieldError("n", f"must be >= 1, got {self.n}")
        if not 0 <= self.threshold <= 1:
            raise FieldError("threshold", f"must be in [0, 1], got {self.threshold}")


@dataclass(frozen=True)
class VocabConfig:
    target_size: int
    seed: int

    def __post_init__(self):
        if self.target_size < 1:
            raise FieldError("target_size", f"must be >= 1, got {self.target_size}")


@dataclass(frozen=True)
class PhaseConfig:
    epochs: float
    batch_size: int
    seq_len: int

    def __post_init__(self):
        if not self.epochs > 0:
            raise FieldError("epochs", f"must be > 0, got {self.epochs}")
        if self.batch_size < 1:
            raise FieldError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not 16 <= self.seq_len <= MAX_SEQ_LEN:
            raise FieldError("seq_len", f"must be in [16, {MAX_SEQ_LEN}], got {self.seq_len}")


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline run's settings; the config file is this object as JSON.

    Each key of the file is a field name below, nested as the fields are: an
    object for each config dataclass, an array for each tuple. The file
    follows the JSON rules of bertpipe.jsonfile: a repeated key, an unknown
    key or a missing key without a default is an error, numbers are finite,
    and strings and arrays are non-empty.

        languages                 array of objects, one per language
          code                    string; distinct over all languages
          corpus                  array of corpus file paths, relative to the
                                  config file's directory; distinct over all
                                  languages
          vocab_budget            integer >= 1: words sampled for the vocab
        dedup
          n                       integer >= 1: shingle order
          threshold               number in [0, 1]: a unit is dropped when at
                                  least this fraction of its shingles was seen
          granularity             "sentence" or "paragraph"
        vocab
          target_size             integer >= 1: vocabulary size
          seed                    integer: seed of the per-language samples
        phases                    array of objects, one per training phase
          epochs                  number > 0
          batch_size              integer >= 1; with epochs, sets the
                                  phase's steps in plan.json: floor(instances
                                  * epochs / batch_size) over the instances
                                  of its pretrain/phase{k}.bin
          seq_len                 integer in [16, 65535]
        masking                   object; every key has a default
          mask_prob               number in (0, 1); 0.15. A masked piece
                                  becomes [MASK] with probability 0.8, a
                                  random piece with 0.1, and keeps its id
                                  with 0.1, as in BERT
          dupe_factor             integer >= 1; 1
          seed                    integer; 0

    base_dir is not a key of the file: load_config sets it to the config
    file's directory.
    """

    languages: tuple[LanguageConfig, ...]
    dedup: DedupConfig
    vocab: VocabConfig
    phases: tuple[PhaseConfig, ...]
    masking: MaskingConfig
    base_dir: str = field(default=".", metadata={"key": False})

    def __post_init__(self):
        codes, paths = set(), set()
        for i, lang in enumerate(self.languages):
            if lang.code in codes:
                raise FieldError(f"languages[{i}].code", f"repeats language code {lang.code!r}")
            codes.add(lang.code)
            for j, path in enumerate(lang.corpus):
                if path in paths:
                    raise FieldError(
                        f"languages[{i}].corpus[{j}]", f"repeats {path!r}; corpus paths must be distinct"
                    )
                paths.add(path)

    def corpus_path(self, relpath: str) -> str:
        return relpath if os.path.isabs(relpath) else os.path.join(self.base_dir, relpath)


def load_config(path: str) -> PipelineConfig:
    """Read and validate a pipeline config file; raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = jsonfile.load(f)
    # ValueError: not UTF-8, not JSON or a repeated key; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        config = read_as(PipelineConfig, raw)
    except ValueError as e:
        raise ConfigError(f"config {e}") from e
    return replace(config, base_dir=os.path.dirname(os.path.abspath(path)))


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
        units = [
            unit
            for path in lang.corpus
            for unit in read_units(config.corpus_path(path), lang.code, config.dedup.granularity)
        ]
        kept, stats = dedup_corpus(units, config.dedup.n, config.dedup.threshold)
        with _atomic(os.path.join(out_dir, f"dedup/{lang.code}.txt"), "w") as f:
            write_units(kept, f, config.dedup.granularity)
        _write_json(os.path.join(out_dir, f"dedup/{lang.code}.stats.json"), asdict(stats))
        emit({"event": "dedup_lang", "lang": lang.code, **asdict(stats)})


def _run_sample(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    for i, lang in enumerate(config.languages):
        units = read_units(
            os.path.join(out_dir, f"dedup/{lang.code}.txt"), lang.code, config.dedup.granularity
        )
        subset, tokens = sample_subset(units, lang.vocab_budget, seed=config.vocab.seed + i)
        with _atomic(os.path.join(out_dir, f"sample/{lang.code}.txt"), "w") as f:
            write_units(subset, f, config.dedup.granularity)
        # tokens below budget: the whole corpus was too small for the budget
        emit(
            {
                "event": "sample_lang",
                "lang": lang.code,
                "units": len(subset),
                "tokens": tokens,
                "budget": lang.vocab_budget,
            }
        )


def _run_vocab(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    subsets = [
        read_units(os.path.join(out_dir, f"sample/{lang.code}.txt"), lang.code, config.dedup.granularity)
        for lang in config.languages
    ]
    vocab = learn_wordpieces(count_words(subsets), target_size=config.vocab.target_size)
    with _atomic(os.path.join(out_dir, "vocab.txt"), "w") as f:
        vocab.save(f)
    # size below target: the samples had too few candidate pieces
    emit({"event": "vocab_built", "size": len(vocab), "target": config.vocab.target_size})


def _phase_files(config: PipelineConfig) -> list[str]:
    return [f"pretrain/phase{k}.bin" for k in range(len(config.phases))]


def _run_pretrain(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    vocab = Vocab.load(os.path.join(out_dir, "vocab.txt"))
    documents = []
    for rel in _lang_files(config, "dedup/{}.txt"):
        documents.extend(read_documents(os.path.join(out_dir, rel)))
    seq_lens = [phase.seq_len for phase in config.phases]
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
    for k, (rel, seq_len, stream) in enumerate(zip(_phase_files(config), seq_lens, streams)):
        with _atomic(os.path.join(out_dir, rel), "wb") as f:
            n = write_instances(stream, f, seq_len=seq_len, mask_prob=config.masking.mask_prob)
        emit({"event": "pretrain_phase", "phase": k, "seq_len": seq_len, "instances": n})
    _write_json(os.path.join(out_dir, "pretrain/data.schema.json"), instance_schema())


@dataclass(frozen=True)
class TrainingPlan:
    phases: tuple[PhaseConfig, ...]
    instances: tuple[int, ...]
    steps: tuple[int, ...]

    @property
    def total_steps(self) -> int:
        return sum(self.steps)

    def as_dict(self) -> dict:
        return {
            "phases": [
                {**asdict(phase), "instances": n, "steps": steps}
                for phase, n, steps in zip(self.phases, self.instances, self.steps)
            ],
            "total_steps": self.total_steps,
        }


def make_plan(instances: Sequence[int], phases: Sequence[PhaseConfig]) -> TrainingPlan:
    """Phase k trains the full batches of its instances[k] records over its
    epochs: floor(instances * epochs / batch_size) steps, a partial last
    batch being no step. Exact arithmetic on the decimal that epochs reads
    as, so 0.3 is 3/10 and not the binary float just below it."""
    steps = [
        math.floor(n * Fraction(repr(p.epochs)) / p.batch_size) for n, p in zip(instances, phases, strict=True)
    ]
    return TrainingPlan(tuple(phases), tuple(instances), tuple(steps))


def _run_schedule(config: PipelineConfig, out_dir: str, emit: EventSink) -> None:
    instances = [count_instances(os.path.join(out_dir, rel)) for rel in _phase_files(config)]
    plan = make_plan(instances, config.phases)
    _write_json(os.path.join(out_dir, "plan.json"), plan.as_dict())
    emit({"event": "schedule", "total_steps": plan.total_steps, "tokens": n_tok})


class _Stage(NamedTuple):
    name: str
    # bumped when a code change alters this stage's output bytes by design
    rev: int
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
        rev=1,
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
        rev=1,
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
        rev=1,
        params=lambda c: asdict(c.vocab),
        inputs=lambda c: _same(_lang_files(c, "sample/{}.txt")),
        outputs=lambda c: ["vocab.txt"],
        run=_run_vocab,
    ),
    _Stage(
        "pretrain_data",
        rev=2,
        params=lambda c: {
            "phases": [{"seq_len": phase.seq_len} for phase in c.phases],
            **asdict(c.masking),
        },
        inputs=lambda c: _same(_lang_files(c, "dedup/{}.txt") + ["vocab.txt"]),
        outputs=lambda c: _phase_files(c) + ["pretrain/data.schema.json"],
        run=_run_pretrain,
    ),
    _Stage(
        "schedule",
        rev=3,
        params=lambda c: {"phases": [asdict(phase) for phase in c.phases]},
        inputs=lambda c: _same(_phase_files(c)),
        outputs=lambda c: ["plan.json"],
        run=_run_schedule,
    ),
)


def _previous_stages(manifest_path: str) -> dict[str, dict]:
    """The stage records of the last complete run by name; none when the
    manifest is missing or is not an object holding a list of stage objects,
    each with a name and an object of output hashes."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            stages = jsonfile.load(f)["stages"]
        if isinstance(stages, list) and all(
            isinstance(s, dict) and isinstance(s.get("outputs"), dict) for s in stages
        ):
            return {s["name"]: s for s in stages}
    except (OSError, ValueError, LookupError, TypeError):
        pass
    return {}


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
    previous = {} if force else _previous_stages(manifest_path)

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
        for rel, recorded in prev["outputs"].items():
            path = os.path.join(out_dir, rel)
            if not os.path.exists(path) or digest(path) != recorded:
                return False
        return True

    records: list[dict] = []
    results: list[StageResult] = []
    for stage in _STAGES:
        emit({"event": "stage_start", "stage": stage.name})
        started = time.perf_counter()
        try:
            params = {"rev": stage.rev, **stage.params(config)}
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
        emit(
            {
                "event": "stage_done",
                "stage": stage.name,
                "status": results[-1].status,
                "duration_s": time.perf_counter() - started,
                # ru_maxrss is in KiB on Linux
                "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )

    manifest = {
        "tool": "bertpipe",
        "tool_version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
        "stages": records,
    }
    _write_json(manifest_path, manifest)
    emit({"event": "pipeline_done", "manifest": MANIFEST_NAME})
    return results
