"""Command-line entry point of bertpipe.

Commands:
  pipeline run     run every stage from a config file (dedup, sample,
                   vocab, pretrain_data, schedule), skipping up-to-date ones;
                   schedule writes plan.json, the training steps of each
                   phase from the instances pretrain_data wrote
  vocab tokenize   wordpiece-tokenize lines from stdin with a vocab file
  eval             score predictions against gold annotations: NER P/R/F1
                   by token class, or by conlleval chunk with --span-level;
                   POS UPOS accuracy; DP UAS and LAS as the CoNLL 2018 UD
                   scorer gives them (LAS on the universal DEPREL)
  report           render a cross-lingual transfer matrix from eval reports
  version          print the tool version and the config format version

The config file of `pipeline run` is documented on
bertpipe.pipeline.PipelineConfig; a config that breaks a rule there is a
validation error naming the offending key's path, such as
$.phases[0].seq_len.

Human-readable summaries go to standard output; during pipeline runs,
line-delimited JSON events go to standard error. Exit codes: 0 success,
1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .corpus import normalize
from .pipeline import CONFIG_SCHEMA_VERSION, ConfigError, StageError, load_config, run_pipeline
from .vocab import Vocab, tokenize_text

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


def _cmd_vocab_tokenize(args) -> int:
    vocab = Vocab.load(args.vocab)
    for line in sys.stdin:
        line = normalize(line)
        if not line:
            print()
            continue
        print(" ".join(tokenize_text(line, vocab)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .evaluation.ner import LabelMap, harmonize, ner_scores, parse_ner
    from .evaluation.report import EvalReport, save_reports
    from .evaluation.ud import attachment_scores, parse_conllu, upos_accuracy

    if args.task == "ner":
        label_map = LabelMap.load(args.label_map) if args.label_map else LabelMap.identity()
        gold = harmonize(parse_ner(args.gold), label_map)
        pred = harmonize(parse_ner(args.pred), label_map)
        metrics = ner_scores(gold, pred, span_level=args.span_level)
    elif args.task == "pos":
        metrics = upos_accuracy(parse_conllu(args.gold), parse_conllu(args.pred, allow_missing_heads=True))
    else:
        metrics = attachment_scores(parse_conllu(args.gold), parse_conllu(args.pred))
    report = EvalReport(args.task.upper(), args.train_lang, args.test_lang, args.model, metrics)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))
    if args.out:
        save_reports([report], args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    from .evaluation.report import load_reports, save_reports, transfer_matrix

    reports = []
    for path in args.reports:
        reports.extend(load_reports(path))
    task = args.task.upper()
    reports = [r for r in reports if r.task == task]
    if not reports:
        raise ConfigError(f"no {task} reports among the inputs")
    # an argument naming no input model is a validation error (exit 1), like --task
    if args.baseline is not None and all(r.model_name != args.baseline for r in reports):
        raise ConfigError(f"baseline model {args.baseline!r} not among the {task} reports")
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
    results = run_pipeline(config, args.out, events=_emit_event, force=args.force)
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
    parser = _Parser(
        prog="bertpipe", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="wordpiece vocabulary operations")
    vocab_sub = p.add_subparsers(dest="vocab_command", required=True)
    pt = vocab_sub.add_parser("tokenize", help="wordpiece-tokenize words from stdin")
    pt.add_argument("--vocab", required=True)
    pt.set_defaults(func=_cmd_vocab_tokenize)

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
            pe.add_argument("--label-map", default=None, help='JSON {"map": {"<class>": "PER|LOC|ORG|O"}}, no B-/I-')
            pe.add_argument("--span-level", action="store_true", help="score conlleval chunks, not tokens by class")
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
    pr.set_defaults(func=_cmd_pipeline_run)

    p = sub.add_parser("version", help="print tool and config format versions")
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
