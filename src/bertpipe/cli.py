"""Single entry point exposing the pipeline stages as subcommands.

Human-readable summaries go to standard output; during pipeline runs,
line-delimited JSON events go to standard error. Exit codes: 0 success,
1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .corpus import Granularity, read_units, write_units
from .dedup import DEFAULT_N, DEFAULT_THRESHOLD, dedup_corpus
from .evaluation.ner import LabelMap, harmonize, ner_scores, parse_ner
from .evaluation.report import EvalReport, load_reports, save_reports, transfer_matrix
from .evaluation.ud import attachment_scores, parse_conllu, upos_accuracy
from .pretrain import (
    MaskingConfig,
    build_instances,
    read_documents,
    write_instances,
    write_schema,
)
from .pipeline import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    StageError,
    load_config,
    run_pipeline,
)
from .schedule import make_plan
from .vocab import (
    DEFAULT_SIZE_TOLERANCE,
    LanguageBudget,
    Vocab,
    count_words,
    learn_wordpieces,
    sample_subset,
    tokenize_text,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors (exit 1, not argparse's 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _emit_event(event: dict) -> None:
    print(json.dumps(event, sort_keys=True), file=sys.stderr)


def _cmd_dedup(args) -> int:
    granularity = Granularity(args.granularity)
    units = read_units(args.input, args.lang, granularity)
    kept, stats = dedup_corpus(units, n=args.n, threshold=args.threshold)
    with open(args.output, "w", encoding="utf-8", newline="\n") as f:
        write_units(kept, f, granularity)
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_vocab_build(args) -> int:
    budgets = []
    for spec in args.budget:
        lang, _, amount = spec.partition("=")
        if not lang or not amount:
            raise ConfigError(f"budget must look like lang=tokens, got {spec!r}")
        try:
            budgets.append(LanguageBudget(lang, int(amount)))
        except ValueError as e:
            raise ConfigError(f"bad budget {spec!r}: {e}") from e
    if len(budgets) != len(args.inputs):
        raise ConfigError(
            f"{len(args.inputs)} input files but {len(budgets)} budgets; "
            "pass one --budget per input, in order"
        )
    subsets = []
    for i, (path, budget) in enumerate(zip(args.inputs, budgets)):
        units = read_units(path, budget.lang)
        subsets.append(sample_subset(units, budget, seed=args.seed + i))
    counts = count_words(subsets)
    vocab = learn_wordpieces(
        counts,
        target_size=args.target_size,
        size_tolerance=args.tolerance,
    )
    vocab.save(args.output)
    print(f"wrote {len(vocab)} pieces to {args.output} (target {args.target_size})")
    return EXIT_OK


def _cmd_vocab_tokenize(args) -> int:
    vocab = Vocab.load(args.vocab)
    for line in sys.stdin:
        line = line.strip()
        if not line:
            print()
            continue
        print(" ".join(tokenize_text(line, vocab)))
    return EXIT_OK


def _cmd_pretrain_data(args) -> int:
    vocab = Vocab.load(args.vocab)
    cfg = MaskingConfig(
        mask_prob=args.mask_prob,
        max_predictions_per_seq=args.max_predictions,
        rng_seed=args.seed,
        dupe_factor=args.dupe_factor,
    )
    documents = read_documents(args.docs)
    stream = build_instances(documents, vocab, args.max_seq_len, cfg)
    with open(args.output, "wb") as f:
        count = write_instances(stream, f)
    schema_path = args.schema
    if schema_path is None:
        schema_path = os.path.join(os.path.dirname(os.path.abspath(args.output)), "data.schema.json")
    write_schema(schema_path)
    print(f"wrote {count} instances to {args.output}")
    return EXIT_OK


def _parse_phase(spec: str) -> tuple[float, int, int]:
    fields = {}
    for part in spec.split(","):
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    try:
        return (
            float(fields["epochs"]),
            int(fields["batch"]),
            int(fields["seqlen"]),
        )
    except (KeyError, ValueError) as e:
        raise ConfigError(
            f"phase must look like epochs=40,batch=1024,seqlen=128, got {spec!r}"
        ) from e


def _cmd_schedule(args) -> int:
    phases = [_parse_phase(p) for p in args.phase]
    plan = make_plan(args.tokens, phases)
    print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.task == "ner":
        label_map = LabelMap.load(args.label_map) if args.label_map else LabelMap.identity()
        gold = harmonize(parse_ner(args.gold), label_map)
        pred = harmonize(parse_ner(args.pred), label_map)
        report = ner_scores(
            gold,
            pred,
            train_lang=args.train_lang,
            test_lang=args.test_lang,
            model_name=args.model,
            span_level=args.span_level,
        )
    elif args.task == "pos":
        gold = parse_conllu(args.gold)
        pred = parse_conllu(args.pred, allow_missing_heads=True)
        report = upos_accuracy(
            gold, pred, train_lang=args.train_lang, test_lang=args.test_lang, model_name=args.model
        )
    else:
        gold = parse_conllu(args.gold)
        pred = parse_conllu(args.pred)
        report = attachment_scores(
            gold,
            pred,
            train_lang=args.train_lang,
            test_lang=args.test_lang,
            model_name=args.model,
            strip_subtypes=args.strip_subtypes,
        )
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if args.out:
        save_reports([report], args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    reports: list[EvalReport] = []
    for path in args.reports:
        reports.extend(load_reports(path))
    task = {"ner": "NER", "pos": "POS", "dp": "DP"}[args.task]
    reports = [r for r in reports if r.task == task]
    if not reports:
        raise ConfigError(f"no {task} reports among the inputs")
    matrix = transfer_matrix(reports, baseline=args.baseline)
    print(matrix, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(matrix)
    if args.json:
        save_reports(reports, args.json)
    return EXIT_OK


def _cmd_pipeline_run(args) -> int:
    config = load_config(args.config)
    results = run_pipeline(
        config, args.out, events=_emit_event, force=args.force, jobs=args.jobs
    )
    for result in results:
        print(f"{result.name}: {result.status}")
    return EXIT_OK


def _cmd_version(args) -> int:
    info = {
        "tool": "bertpipe",
        "version": __version__,
        "config_schema_version": CONFIG_SCHEMA_VERSION,
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"bertpipe {info['version']} (config schema v{info['config_schema_version']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bertpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dedup", help="remove near-duplicate units from a corpus")
    p.add_argument("--n", type=int, default=DEFAULT_N, help="shingle order (tokens per n-gram)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, help="duplicate content threshold")
    p.add_argument("--granularity", choices=["sentence", "paragraph"], default="sentence")
    p.add_argument("--lang", required=True, help="ISO language code of the corpus")
    p.add_argument("--jobs", type=int, default=1, help="accepted for interface stability; run is sequential")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_dedup)

    p = sub.add_parser("vocab", help="wordpiece vocabulary operations")
    vocab_sub = p.add_subparsers(dest="vocab_command", required=True)

    pb = vocab_sub.add_parser("build", help="learn a wordpiece vocabulary from corpora")
    pb.add_argument("--target-size", type=int, required=True)
    pb.add_argument("--tolerance", type=float, default=DEFAULT_SIZE_TOLERANCE)
    pb.add_argument(
        "--budget",
        action="append",
        required=True,
        metavar="LANG=TOKENS",
        help="per-language sample budget; one per input file, in order",
    )
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--jobs", type=int, default=1, help="accepted for interface stability; run is sequential")
    pb.add_argument("inputs", nargs="+", help="one corpus file per --budget")
    pb.add_argument("output", help="vocabulary file to write")
    pb.set_defaults(func=_cmd_vocab_build)

    pt = vocab_sub.add_parser("tokenize", help="wordpiece-tokenize words from stdin")
    pt.add_argument("--vocab", required=True)
    pt.set_defaults(func=_cmd_vocab_tokenize)

    p = sub.add_parser("pretrain-data", help="generate whole-word-masked MLM instances")
    p.add_argument("--vocab", required=True)
    p.add_argument("--max-seq-len", type=int, default=128)
    p.add_argument("--mask-prob", type=float, default=0.15)
    p.add_argument("--max-predictions", type=int, default=20)
    p.add_argument("--dupe-factor", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schema", default=None, help="sidecar schema path (default data.schema.json next to the output)")
    p.add_argument("--jobs", type=int, default=1, help="accepted for interface stability; run is sequential")
    p.add_argument("docs", help="input documents: one sentence per line, blank line between documents")
    p.add_argument("output", help="binary instance stream to write")
    p.set_defaults(func=_cmd_pretrain_data)

    p = sub.add_parser("schedule", help="compute training-step counts per phase")
    p.add_argument("--tokens", type=float, required=True, help="training-corpus token count")
    p.add_argument(
        "--phase",
        action="append",
        required=True,
        metavar="epochs=E,batch=B,seqlen=L",
        help="repeat once per phase",
    )
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("eval", help="score predictions against gold annotations")
    eval_sub = p.add_subparsers(dest="task", required=True)
    for task in ("ner", "pos", "dp"):
        pe = eval_sub.add_parser(task)
        pe.add_argument("--gold", required=True)
        pe.add_argument("--pred", required=True)
        pe.add_argument("--train-lang", required=True)
        pe.add_argument("--test-lang", required=True)
        pe.add_argument("--model", required=True)
        pe.add_argument("--out", default=None, help="also write the report JSON here")
        if task == "ner":
            pe.add_argument("--label-map", default=None, help="JSON map of raw tags to PER/LOC/ORG/O")
            pe.add_argument("--span-level", action="store_true", help="score entity spans instead of tokens")
        if task == "dp":
            pe.add_argument("--strip-subtypes", action="store_true", help="compare deprels without subtypes")
        pe.set_defaults(func=_cmd_eval, task=task)

    p = sub.add_parser("report", help="render a cross-lingual transfer matrix")
    p.add_argument("--task", choices=["ner", "pos", "dp"], required=True)
    p.add_argument("--baseline", default=None, help="model used for delta columns")
    p.add_argument("--out", default=None, help="write the Markdown matrix here")
    p.add_argument("--json", default=None, help="write the combined report array here")
    p.add_argument("reports", nargs="+", help="report JSON files from `bertpipe eval`")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    pipe_sub = p.add_subparsers(dest="pipeline_command", required=True)
    pr = pipe_sub.add_parser("run")
    pr.add_argument("config")
    pr.add_argument("--out", required=True, help="artifact directory")
    pr.add_argument("--force", action="store_true", help="re-run stages even if up to date")
    pr.add_argument("--jobs", type=int, default=1, help="accepted for interface stability; run is sequential")
    pr.set_defaults(func=_cmd_pipeline_run)

    p = sub.add_parser("version", help="print tool and schema versions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_version)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"bertpipe: validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as e:
        print(f"bertpipe: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as e:
        print(f"bertpipe: error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
