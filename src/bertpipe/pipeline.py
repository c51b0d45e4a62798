"""End-to-end pipeline: dedup -> sample -> vocab -> pretrain_data -> schedule.

Each run builds its stage table once from the config (`_stages`): one row
per stage of plain values, its parameters, its input files, its output
files and the function that writes them. In the table a file list is
formed once, as the outputs of the stage that writes it and the inputs of
the stages that read it. Every artifact is written atomically (tmp file
+ rename, making its directory if need be), and the manifest records each
stage's parameters and the content hashes of its inputs and outputs. Re-running
with unchanged inputs and parameters skips up-to-date stages. A stage's
parameters include its `rev`, which a code change that alters the stage's
output bytes by design bumps, so that output dirs written by the older
code re-run it. The manifest carries no timestamps or absolute paths, so
identical runs produce identical bytes. Timings and memory go only into
the events: each `stage_done` carries the stage's `duration_s`, the
number of processes it ran on, `workers`, and the peak RSS so far of any
single process of the run, `max_rss_mb`, so a run shows which stage sets
its peak. Before a stage is checked, and after it fails, the run removes
the `<output>.tmp` files of its outputs that a killed process left.

Two stages spread independent work over the CPUs of
`os.sched_getaffinity(0)`: `dedup` runs one task per language (read,
dedup, write its `.txt` and `.stats.json`; an index is never shared across
languages) and `pretrain_data` one task per phase file, after the shared
tokenization (each phase has its own derived seed). Task i runs in process
i % n, where n is the number of CPUs or of tasks, whichever is smaller;
process 0 is the pipeline's own, the others are forked workers that reply
over a pipe and exit. Each task returns its counts, and the pipeline emits
the `dedup_lang` and `pretrain_phase` events from them in language and
phase order, so the artifacts, the manifest and the events other than the
timings, the peaks and `workers` do not depend on the CPU count. With one
CPU or one task everything runs in this process. An in-process tracer that
wraps the layer functions sees only the calls of process 0's share.

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
import resource
import time
from contextlib import contextmanager, suppress
from functools import partial
from typing import IO, Callable, Iterator, NamedTuple, NoReturn, Sequence

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
# a stage's independent unit of work; it returns a JSON value
Task = Callable[[], object]
# runs tasks as _run_tasks does and returns their values in task order
Spread = Callable[[Sequence[Task]], list]


class ConfigError(ValueError):
    """Configuration failed validation; no stage has run."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _check_at(key: str, record) -> None:
    """record.check(), with the key of a FieldError prefixed by key."""
    try:
        record.check()
    except FieldError as e:
        raise FieldError(f"{key}.{e.key}", e.message) from e


class LanguageConfig(NamedTuple):
    code: str
    corpus: tuple[str, ...]
    vocab_budget: int

    def check(self) -> None:
        if not self.code:
            raise FieldError("code", "must not be empty")
        if not self.corpus:
            raise FieldError("corpus", "must not be empty")
        for j, path in enumerate(self.corpus):
            if not path:
                raise FieldError(f"corpus[{j}]", "must not be empty")
        if self.vocab_budget < 1:
            raise FieldError("vocab_budget", f"must be >= 1, got {self.vocab_budget}")


class DedupConfig(NamedTuple):
    n: int
    threshold: float
    granularity: Granularity

    def check(self) -> None:
        if self.n < 1:
            raise FieldError("n", f"must be >= 1, got {self.n}")
        if not 0 <= self.threshold <= 1:
            raise FieldError("threshold", f"must be in [0, 1], got {self.threshold}")


class VocabConfig(NamedTuple):
    target_size: int
    seed: int

    def check(self) -> None:
        if self.target_size < 1:
            raise FieldError("target_size", f"must be >= 1, got {self.target_size}")


class PhaseConfig(NamedTuple):
    epochs: float
    batch_size: int
    seq_len: int

    def check(self) -> None:
        if not self.epochs > 0:
            raise FieldError("epochs", f"must be > 0, got {self.epochs}")
        if self.batch_size < 1:
            raise FieldError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not 16 <= self.seq_len <= MAX_SEQ_LEN:
            raise FieldError("seq_len", f"must be in [16, {MAX_SEQ_LEN}], got {self.seq_len}")


class PipelineConfig(NamedTuple):
    """A pipeline run's settings; the config file is this object as JSON.

    Each key of the file is a field name below, nested as the fields are: an
    object for each config record, an array for each tuple. The file
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
    base_dir: str = "."

    _not_keys = ("base_dir",)  # fields that are not keys of the file

    def check(self) -> None:
        for key in ("languages", "phases"):
            if not getattr(self, key):
                raise FieldError(key, "must not be empty")
        for i, lang in enumerate(self.languages):
            _check_at(f"languages[{i}]", lang)
        for key in ("dedup", "vocab", "masking"):
            _check_at(key, getattr(self, key))
        for k, phase in enumerate(self.phases):
            _check_at(f"phases[{k}]", phase)
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
    return config._replace(base_dir=os.path.dirname(os.path.abspath(path)))


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def _atomic(path: str, mode: str) -> Iterator[IO]:
    """Write path + ".tmp" and rename it over path; remove it if the write fails."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
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


def _cpus() -> int:
    """The CPUs this process may run on; 1 without fork or the affinity call."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_tasks(tasks: Sequence[Task]) -> tuple[list, list[int]]:
    """Run independent tasks across this process's CPUs: task i runs in
    process i % n, n = min(CPUs, tasks), where process 0 is this one and the
    others are forked workers. Returns the values in task order and each
    worker's peak RSS in KiB. A worker's failure is raised here, after every
    worker is reaped, as the exception its task raised, or as a RuntimeError
    with its message where that exception does not pickle. If this process's
    own share fails, the workers are killed and reaped before it re-raises."""
    n = min(_cpus(), len(tasks))
    if n <= 1:
        return [task() for task in tasks], []
    pids: list[int] = []
    replies: list[IO[bytes]] = []
    try:
        for w in range(1, n):
            read, write = os.pipe()
            replies.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(tasks[w::n], write)
            finally:
                os.close(write)
            pids.append(pid)
        mine = [task() for task in tasks[::n]]
        received = [f.read() for f in replies]
    except BaseException:
        import signal  # only a failed share loads it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for f in replies:
            f.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    values: list = [None] * len(tasks)
    values[::n] = mine
    peaks = []
    for w, (reply, status) in enumerate(zip(received, statuses), 1):
        if status != 0:  # a worker that replied exits 0
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker process {w} exited with status {code} before it replied")
        head, _, pickled = reply.partition(b"\n")
        reply = json.loads(head)
        if "error" in reply:
            raise _unpickled(pickled, reply["error"])
        values[w::n] = reply["values"]
        peaks.append(reply["max_rss_kib"])
    return values, peaks


def _worker(tasks: Sequence[Task], fd: int) -> NoReturn:
    """A forked worker's whole life: run its tasks, write one reply to fd
    and exit. It ends in os._exit on every path, so that it never returns
    into its parent's code."""
    status = 1
    try:
        try:
            reply, pickled = {"values": [task() for task in tasks]}, b""
        except Exception as e:
            reply, pickled = {"error": str(e)}, _pickled(e)
        reply["max_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(fd, "wb") as f:
            f.write(json.dumps(reply).encode() + b"\n" + pickled)
        status = 0
    finally:
        os._exit(status)


def _pickled(e: Exception) -> bytes:
    import pickle  # only a failed task loads it

    try:
        return pickle.dumps(e)
    except Exception:
        return b""


def _unpickled(pickled: bytes, message: str) -> BaseException:
    import pickle  # only a failed task loads it

    try:
        e = pickle.loads(pickled)
    except Exception:
        e = None
    return e if isinstance(e, BaseException) else RuntimeError(message)


def _run_dedup(config: PipelineConfig, out_dir: str, emit: EventSink, spread: Spread) -> None:
    def task(lang: LanguageConfig) -> dict:
        units = [
            unit
            for path in lang.corpus
            for unit in read_units(config.corpus_path(path), lang.code, config.dedup.granularity)
        ]
        kept, stats = dedup_corpus(units, config.dedup.n, config.dedup.threshold)
        with _atomic(os.path.join(out_dir, f"dedup/{lang.code}.txt"), "w") as f:
            write_units(kept, f, config.dedup.granularity)
        _write_json(os.path.join(out_dir, f"dedup/{lang.code}.stats.json"), stats._asdict())
        return stats._asdict()

    counts = spread([partial(task, lang) for lang in config.languages])
    for lang, stats in zip(config.languages, counts):
        emit({"event": "dedup_lang", "lang": lang.code, **stats})


def _run_sample(config: PipelineConfig, out_dir: str, emit: EventSink, spread: Spread) -> None:
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


def _run_vocab(config: PipelineConfig, out_dir: str, emit: EventSink, spread: Spread) -> None:
    # one language's sample at a time, each counted as it is read
    subsets = (
        read_units(os.path.join(out_dir, f"sample/{lang.code}.txt"), lang.code, config.dedup.granularity)
        for lang in config.languages
    )
    vocab = learn_wordpieces(count_words(subsets), target_size=config.vocab.target_size)
    with _atomic(os.path.join(out_dir, "vocab.txt"), "w") as f:
        vocab.save(f)
    # size below target: the samples had too few candidate pieces
    emit({"event": "vocab_built", "size": len(vocab), "target": config.vocab.target_size})


def _run_pretrain(config: PipelineConfig, out_dir: str, emit: EventSink, spread: Spread) -> None:
    vocab = Vocab.load(os.path.join(out_dir, "vocab.txt"))
    # one dedup file's text at a time, each tokenized before the next is read
    documents = (
        doc
        for lang in config.languages
        for doc in read_documents(os.path.join(out_dir, f"dedup/{lang.code}.txt"))
    )
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

    def task(k: int, seq_len: int, stream) -> int:
        with _atomic(os.path.join(out_dir, f"pretrain/phase{k}.bin"), "wb") as f:
            return write_instances(stream, f, seq_len=seq_len, mask_prob=config.masking.mask_prob)

    tasks = [partial(task, k, seq_len, stream) for k, (seq_len, stream) in enumerate(zip(seq_lens, streams))]
    for k, (seq_len, n) in enumerate(zip(seq_lens, spread(tasks))):
        emit({"event": "pretrain_phase", "phase": k, "seq_len": seq_len, "instances": n})
    _write_json(os.path.join(out_dir, "pretrain/data.schema.json"), instance_schema())


class TrainingPlan(NamedTuple):
    phases: tuple[PhaseConfig, ...]
    instances: tuple[int, ...]
    steps: tuple[int, ...]

    @property
    def total_steps(self) -> int:
        return sum(self.steps)

    def as_dict(self) -> dict:
        return {
            "phases": [
                {**phase._asdict(), "instances": n, "steps": steps}
                for phase, n, steps in zip(self.phases, self.instances, self.steps)
            ],
            "total_steps": self.total_steps,
        }


def _decimal_ratio(x: float) -> tuple[int, int]:
    """The decimal that repr(x) spells, as (numerator, denominator): 0.3 is
    (3, 10), 1.5e+16 is (15000000000000000, 1) and 1e-05 is (1, 100000)."""
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, fraction = mantissa.partition(".")
    numerator = int(whole + fraction)
    shift = int(exponent or 0) - len(fraction)
    return (numerator * 10**shift, 1) if shift >= 0 else (numerator, 10**-shift)


def make_plan(instances: Sequence[int], phases: Sequence[PhaseConfig]) -> TrainingPlan:
    """Phase k trains the full batches of its instances[k] records over its
    epochs: floor(instances * epochs / batch_size) steps, a partial last
    batch being no step. Exact integer arithmetic on the decimal that
    epochs reads as, so 0.3 is 3/10 and not the binary float just below it.
    A phase out of its bounds is a FieldError naming it, as phases[k]."""
    for k, phase in enumerate(phases):
        _check_at(f"phases[{k}]", phase)
    steps = []
    for n, p in zip(instances, phases, strict=True):
        numerator, denominator = _decimal_ratio(p.epochs)
        steps.append(n * numerator // (denominator * p.batch_size))
    return TrainingPlan(tuple(phases), tuple(instances), tuple(steps))


def _run_schedule(config: PipelineConfig, out_dir: str, emit: EventSink, spread: Spread) -> None:
    paths = (os.path.join(out_dir, f"pretrain/phase{k}.bin") for k in range(len(config.phases)))
    plan = make_plan([count_instances(path) for path in paths], config.phases)
    _write_json(os.path.join(out_dir, "plan.json"), plan.as_dict())
    emit({"event": "schedule", "total_steps": plan.total_steps, "tokens": n_tok})


class _Stage(NamedTuple):
    name: str
    # bumped when a code change alters this stage's output bytes by design
    rev: int
    params: dict
    # manifest key -> path, relative to the output dir or absolute
    inputs: dict[str, str]
    outputs: list[str]
    run: Callable[[PipelineConfig, str, EventSink, Spread], None]


def _stages(config: PipelineConfig) -> list[_Stage]:
    """The stage table of one run, in run order. Each file list is formed
    once here, so the list that one stage writes is the list that the later
    stages read, and the rows' outputs and inputs are the dependency graph."""
    codes = [lang.code for lang in config.languages]
    corpus = {
        p: os.path.abspath(config.corpus_path(p)) for lang in config.languages for p in lang.corpus
    }
    dedup = [f"dedup/{code}.txt" for code in codes]
    samples = [f"sample/{code}.txt" for code in codes]
    phases = [f"pretrain/phase{k}.bin" for k in range(len(config.phases))]
    budgets = {lang.code: lang.vocab_budget for lang in config.languages}
    # Each row is name, rev, params, inputs, outputs, run. The language
    # order is a param of sample, which seeds language i with seed + i, and
    # of pretrain_data, which numbers and seeds the documents in that order.
    return [
        _Stage(
            "dedup", 1,
            {**config.dedup._asdict(), "granularity": config.dedup.granularity.value,
             "languages": codes},
            corpus, dedup + [f"dedup/{code}.stats.json" for code in codes], _run_dedup,
        ),
        _Stage(
            "sample", 1,
            {"seed": config.vocab.seed, "budgets": budgets, "languages": codes},
            {rel: rel for rel in dedup}, samples, _run_sample,
        ),
        _Stage(
            "vocab", 1,
            config.vocab._asdict(),
            {rel: rel for rel in samples}, ["vocab.txt"], _run_vocab,
        ),
        _Stage(
            "pretrain_data", 3,
            {"phases": [{"seq_len": p.seq_len} for p in config.phases], "languages": codes,
             **config.masking._asdict()},
            {rel: rel for rel in dedup + ["vocab.txt"]},
            phases + ["pretrain/data.schema.json"], _run_pretrain,
        ),
        _Stage(
            "schedule", 3,
            {"phases": [p._asdict() for p in config.phases]},
            {rel: rel for rel in phases}, ["plan.json"], _run_schedule,
        ),
    ]


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


class StageResult(NamedTuple):
    name: str
    status: str  # "completed" | "skipped (up-to-date)"


def run_pipeline(
    config: PipelineConfig,
    out_dir: str,
    events: EventSink | None = None,
    force: bool = False,
) -> list[StageResult]:
    """Run all stages, writing artifacts and a manifest under out_dir. A
    config out of its bounds is a ConfigError, before any event or write."""
    try:
        config.check()
    except ValueError as e:
        raise ConfigError(f"config {e}") from e
    emit = events if events is not None else (lambda e: None)
    os.makedirs(out_dir, exist_ok=True)

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

    def remove_tmp(outputs: list[str]) -> None:
        """Remove the tmp files of outputs that a killed process left."""
        for rel in outputs:
            with suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, rel) + ".tmp")

    # the processes the running stage spreads over, and the peak RSS in KiB
    # of any worker of the run so far
    workers, worker_peak = 1, 0

    def spread(tasks: Sequence[Task]) -> list:
        nonlocal workers, worker_peak
        values, peaks = _run_tasks(tasks)
        workers, worker_peak = 1 + len(peaks), max([worker_peak, *peaks])
        return values

    records: list[dict] = []
    results: list[StageResult] = []
    for stage in _stages(config):
        emit({"event": "stage_start", "stage": stage.name})
        started = time.perf_counter()
        workers = 1
        try:
            remove_tmp(stage.outputs)
            params = {"rev": stage.rev, **stage.params}
            inputs = {key: digest(os.path.join(out_dir, path)) for key, path in stage.inputs.items()}
            skipped = up_to_date(previous.get(stage.name), params, inputs)
            if not skipped:
                for rel in stage.outputs:
                    digests.pop(os.path.join(out_dir, rel), None)
                stage.run(config, out_dir, emit, spread)
            records.append(
                {
                    "name": stage.name,
                    "params": params,
                    "inputs": inputs,
                    "outputs": {rel: digest(os.path.join(out_dir, rel)) for rel in stage.outputs},
                }
            )
        except Exception as e:
            remove_tmp(stage.outputs)
            emit({"event": "stage_failed", "stage": stage.name, "error": str(e)})
            raise StageError(stage.name, e) from e
        results.append(StageResult(stage.name, "skipped (up-to-date)" if skipped else "completed"))
        emit(
            {
                "event": "stage_done",
                "stage": stage.name,
                "status": results[-1].status,
                "duration_s": time.perf_counter() - started,
                "workers": workers,
                # ru_maxrss is in KiB on Linux
                "max_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, worker_peak) / 1024,
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
