"""Benchmark of `bertpipe pipeline run` on seeded synthetic corpora.

    python3 bench/run.py --workload trilingual --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from its
`src/`. Each operation is one `pipeline run` child process, one at a time.
The run generates the workload's corpus (set-up, untimed), spawns a few
set-up probes, then runs operations until `--seconds` have passed, checks
the artifacts and prints a report. Runs of `calibrate.py` around the
pipeline processes scale their times to a reference host speed. The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and the metrics, which are the end-to-end ones with `--trace 0`
and the per-layer ones with `--trace 1`.
`--workload all` runs every workload and ends with one JSON object that
maps each workload to its result. See bench/README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import corpusgen
import layers
from tracing import Tracer, Unavailable, parse_event, parse_events

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-up probes per run: each spawns the pipeline and kills it at its first
# stage_start, adding set-up samples without a full operation.
SETUP_PROBES = 5

CALIBRATION = os.path.join(BENCH, "calibrate.py")
# Wall time of calibrate.py on the reference host (a 2-core VM, CPython 3.11).
CALIBRATION_REF_S = 0.45

E2E_UNITS = {"wall_s": "s", "words_per_s": "words/s", "setup_s": "s", "max_rss_mb": "MiB"}


@dataclass
class Op:
    exit_code: int
    wall_s: float
    setup_s: float | None  # spawn to the first stage_start event
    max_rss_mb: float
    stderr: list[str]
    hashes: dict[str, str | None] = field(default_factory=dict)
    tmp_files: int = 0
    scale: float = 1.0  # host-speed factor from the calibrations around it


def spawn(config: str, out_dir: str, probe: bool = False) -> Op:
    """Run `bertpipe pipeline run` as a child process and time it.

    With `probe`, the child is killed as soon as its first stage starts.
    Peak RSS comes from `os.wait4` of this child alone.
    """
    cmd = [sys.executable, "-m", "bertpipe.cli", "pipeline", "run", config, "--out", out_dir]
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        encoding="utf-8", errors="replace",
    )
    setup = None
    lines: list[str] = []
    try:
        for line in proc.stderr:
            if setup is None and (parse_event(line) or {}).get("event") == "stage_start":
                setup = time.perf_counter() - start
                if probe:
                    proc.kill()
                    break
            lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(proc.returncode, wall, setup, usage.ru_maxrss / 1024, lines)


def failure_reasons(op: Op, first: Op) -> tuple[list[str], list[str]]:
    """(why the operation failed, which of its outputs were wrong)."""
    failed, wrong = [], []
    if op.exit_code != 0:
        other = [line.strip() for line in op.stderr if line.strip() and parse_event(line) is None]
        failed.append(f"exit code {op.exit_code}: {other[-1] if other else 'no message'}")
    missing = [rel for rel, digest in op.hashes.items() if digest is None]
    if missing:
        failed.append("missing " + ", ".join(missing))
    changed = [rel for rel, digest in op.hashes.items() if digest != first.hashes[rel]]
    if changed:
        wrong.append("sha256 differs from the first operation: " + ", ".join(changed))
    return failed, wrong


def traced_run(config: str, out_dir: str) -> tuple[Tracer, float | Unavailable, str | None]:
    """Run the pipeline in this process with every layer wrapped.

    Returns the tracer, the seconds from the first stage_start to the end of
    run_pipeline, and the pipeline's error, if any.
    """
    from bertpipe import dedup, pipeline, pretrain

    tracer = Tracer()
    error = None
    with tracer:
        layers.instrument(tracer, pipeline, dedup, pretrain)
        cfg = pipeline.load_config(config)
        try:
            pipeline.run_pipeline(cfg, out_dir, events=tracer.event)
        except pipeline.StageError as e:
            error = str(e)
        end = time.perf_counter()
    starts = [span[1] for span in tracer.spans if span[0].startswith("stage.")]
    return tracer, end - starts[0] if starts else Unavailable("no stage started"), error


def reserved_after_load(out_dir: str) -> float | Unavailable:
    path = os.path.join(out_dir, "vocab.txt")
    if not os.path.exists(path):
        return Unavailable("vocab.txt was not written")
    from bertpipe.vocab import Vocab

    return len(Vocab.load(path).reserved)


class HostClock:
    """Host speed from `calibrate.py` runs made between the pipeline processes.

    Times measured between two calibrations are scaled by CALIBRATION_REF_S
    over the mean of those two calibrations.
    """

    def __init__(self) -> None:
        self.calibrations = [self._calibrate()]

    @staticmethod
    def _calibrate() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, CALIBRATION], check=True)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Calibrate again; the factor for the times since the last calibration."""
        before = self.calibrations[-1]
        self.calibrations.append(self._calibrate())
        return CALIBRATION_REF_S / ((before + self.calibrations[-1]) / 2)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> tuple[dict, list[str]]:
    workload = corpusgen.WORKLOADS[name]
    info = corpusgen.generate(workload, seed, work)
    config = info["config"]
    rels = checks.artifacts(workload.languages, len(workload.seq_lens))
    out = os.path.join(work, "out")
    if workload.rerun:
        spawn(config, out)  # untimed: fills the directory the operations re-run into

    clock = HostClock()
    probe_dir = os.path.join(work, "probe")
    probes = [spawn(config, probe_dir, probe=True) for _ in range(SETUP_PROBES)]
    scale = clock.scale()  # the probes are short: one pair of calibrations for all
    shutil.rmtree(probe_dir, ignore_errors=True)
    raw_setup = [p.setup_s for p in probes if p.setup_s is not None]
    setup_samples = [s * scale for s in raw_setup]

    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        if not workload.rerun:
            shutil.rmtree(out, ignore_errors=True)
        op = spawn(config, out)
        op.scale = clock.scale()
        op.hashes = checks.hash_artifacts(out, rels)
        op.tmp_files = checks.tmp_files(out)
        ops.append(op)

    from bertpipe.pretrain import read_instances

    corpora = {lang: os.path.join(work, "corpus", f"{lang}.txt") for lang in workload.languages}
    problems = checks.check_artifacts(
        out, corpora, workload.seq_lens, corpusgen.DEDUP_N, corpusgen.DEDUP_THRESHOLD, read_instances
    )
    reasons = [failure_reasons(op, ops[0]) for op in ops]
    wrong = sorted({w for _, ws in reasons for w in ws} | set(problems))
    failed = sum(1 for f, w in reasons if f or w or problems)
    reached = [op for op in ops if op.setup_s is not None]
    setup_samples += [op.setup_s * op.scale for op in reached]
    raw_setup += [op.setup_s for op in reached]
    if not setup_samples:
        raise RuntimeError(f"no operation reached its first stage: {reasons[-1][0]}")

    e2e = {
        "wall_s": statistics.median([op.wall_s * op.scale for op in ops]),
        "words_per_s": statistics.median([info["words"] / (op.wall_s * op.scale) for op in ops]),
        "setup_s": statistics.median(setup_samples),
        "max_rss_mb": statistics.median([op.max_rss_mb for op in ops]),
    }
    raw = {
        "wall_s": statistics.median([op.wall_s for op in ops]),
        "words_per_s": statistics.median([info["words"] / op.wall_s for op in ops]),
        "setup_s": statistics.median(raw_setup),
        "max_rss_mb": e2e["max_rss_mb"],
    }
    samples = {"wall_s": len(ops), "words_per_s": len(ops), "setup_s": len(setup_samples), "max_rss_mb": len(ops)}
    corpus_desc = "; ".join(
        f"{lang}: {c['words']} words, {c['types']} types, sha256 {c['sha256']}" for lang, c in info["corpora"].items()
    )
    lines = [
        f"workload {name} (seed {seed}): {info['words']} input words ({corpus_desc})",
        f"  host: calibration median {statistics.median(clock.calibrations):.4f} s over "
        f"{len(clock.calibrations)} runs, reference {CALIBRATION_REF_S} s; times are scaled to the reference",
        *[f"  {m:<12} {e2e[m]:.6g} {E2E_UNITS[m]}  median of {samples[m]} (unscaled {raw[m]:.6g})" for m in E2E_UNITS],
        f"  {'fail_frac':<12} {failed / len(ops)} ratio  {failed} of {len(ops)} operations failed",
        *[f"  failure: {r}" for r in sorted({r for f, _ in reasons for r in f})],
        "  output checks: " + ("; ".join(wrong) if wrong else
                               f"passed (phase*.bin decode with ids < vocab size, reserved tokens first, "
                               f"dedup equals the oracle, sha256 identical across {len(ops)} operations)"),
        *[f"  sha256 {rel} {digest}" for rel, digest in ops[-1].hashes.items()],
    ]

    if trace:
        run_dir = out if workload.rerun else os.path.join(work, "traced")
        tracer, traced_s, error = traced_run(config, run_dir)
        scale = clock.scale()
        if reached and not isinstance(traced_s, Unavailable):
            overhead = traced_s * scale - statistics.median([(op.wall_s - op.setup_s) * op.scale for op in reached])
        else:
            overhead = Unavailable("no first stage_start to time from")
        last = ops[-1]
        metrics = layers.layer_metrics(tracer, scale, {
            "pipeline.fail_frac": failed / len(ops),
            "pipeline.stderr_non_json_lines": parse_events(last.stderr)[1],
            "pipeline.tmp_files_left": last.tmp_files,
            "vocab.reserved_after_load": reserved_after_load(run_dir),
            "trace.overhead_s": overhead,
        })
        lines.append(f"  traced run: {traced_s} s from first stage_start to end, scale {scale:.4f}"
                     + (f"; pipeline error: {error}" if error else ""))
        for span in sorted(tracer.calls):
            lines.append(f"  span {span:<28} calls {tracer.calls[span]:>8}  "
                         f"total {tracer.total[span]:.4f} s  self {tracer.self_time[span]:.4f} s (unscaled)")
        for m, v in metrics.items():
            lines.append(f"  {m:<34} {v['value']} {v['unit']}" + (f"  ({v['reason']})" if "reason" in v else ""))
    else:
        metrics = {m: {"value": e2e[m], "unit": E2E_UNITS[m]} for m in E2E_UNITS}

    result = {"correct": not wrong, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*corpusgen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "bertpipe", "pipeline.py")):
        print(f"bench: no bertpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(corpusgen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        work = os.path.join(WORK, f"{name}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print("\n".join(lines), flush=True)
    if os.path.isdir(WORK) and not os.listdir(WORK):
        os.rmdir(WORK)
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
