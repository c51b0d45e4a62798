"""Evaluation reports and cross-lingual transfer-matrix rendering.

The scorers of ner.py and ud.py turn gold and predictions into a metrics
dict; the caller labels it with a task, the train and test languages and
the model name to make an EvalReport.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .. import jsonfile

TASKS = ("NER", "POS", "DP")

_TASK_METRICS = {
    "NER": ("macro_f1",),
    "POS": ("upos_acc",),
    "DP": ("uas", "las"),
}


@dataclass(frozen=True)
class EvalReport:
    """Scores of one model trained on train_lang and tested on test_lang."""

    task: str
    train_lang: str
    test_lang: str
    model_name: str
    metrics: dict[str, float]

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name in _TASK_METRICS[self.task]:
            if name not in self.metrics:
                raise ValueError(f"{self.task} report lacks metric {name!r}")
        for name, value in self.metrics.items():
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ValueError(f"metric {name}={value!r} is not a number in [0, 1]")


def check_aligned(gold: Sequence[Sequence], pred: Sequence[Sequence], unit: str) -> None:
    """Gold and pred must hold as many sentences, each of as many units (tags, words)."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences but pred has {len(pred)}")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ValueError(
                f"alignment mismatch at sentence {i}: {len(g)} gold {unit} vs {len(p)} predicted"
            )


def save_reports(reports: list[EvalReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump([asdict(r) for r in reports], f, indent=2, sort_keys=True)
        f.write("\n")


def load_reports(path: str) -> list[EvalReport]:
    """The reports of a file holding one report object or an array of them."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = jsonfile.load(f)
            if isinstance(data, list):
                return [jsonfile.read_as(EvalReport, d, f"$[{i}]") for i, d in enumerate(data)]
            return [jsonfile.read_as(EvalReport, data)]
        # RecursionError: nested too deeply
        except (ValueError, RecursionError) as e:
            raise ValueError(f"report file {path}: {e}") from None


def transfer_matrix(reports: list[EvalReport], baseline: str | None = None) -> str:
    """Markdown matrix of scores by (train, test) row and model column.

    Monolingual rows come first, then cross-lingual rows; within each block
    rows keep the order of first appearance, so feeding reports in a
    table's order reproduces that table's layout. Each non-baseline model
    gets a delta column against the baseline (default: the first model).
    """
    if not reports:
        raise ValueError("no reports to render")
    task = reports[0].task
    if any(r.task != task for r in reports):
        raise ValueError("reports must share a task")

    cells: dict[tuple[str, str, str], EvalReport] = {}
    models: list[str] = []
    pairs: list[tuple[str, str]] = []
    for r in reports:
        key = (r.train_lang, r.test_lang, r.model_name)
        if key in cells:
            raise ValueError(f"duplicate report for (train={key[0]}, test={key[1]}, model={key[2]})")
        cells[key] = r
        if r.model_name not in models:
            models.append(r.model_name)
        if (r.train_lang, r.test_lang) not in pairs:
            pairs.append((r.train_lang, r.test_lang))

    if baseline is None:
        baseline = models[0]
    elif baseline not in models:
        raise ValueError(f"baseline model {baseline!r} not among reports")

    metric_names = _TASK_METRICS[task]
    mono = [p for p in pairs if p[0] == p[1]]
    cross = [p for p in pairs if p[0] != p[1]]
    deltas = [m for m in models if m != baseline]

    def metric_label(model: str, metric: str) -> str:
        return model if len(metric_names) == 1 else f"{model} {metric.upper()}"

    header = ["Train", "Test"]
    for model in models:
        header.extend(metric_label(model, m) for m in metric_names)
    for model in deltas:
        header.extend(metric_label(f"{model}-{baseline}", m) for m in metric_names)

    rows: list[list[str]] = []
    for train, test in mono + cross:
        row = [train, test]
        for model in models:
            report = cells.get((train, test, model))
            for m in metric_names:
                row.append("n/a" if report is None else f"{report.metrics[m]:.3f}")
        for model in deltas:
            report = cells.get((train, test, model))
            base = cells.get((train, test, baseline))
            for m in metric_names:
                if report is None or base is None:
                    row.append("n/a")
                else:
                    # + 0.0 turns a delta that rounds to -0.0 into 0.0
                    row.append(f"{round(report.metrics[m] - base.metrics[m], 3) + 0.0:+.3f}")
        rows.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]

    def fmt(row: list[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    lines = [fmt(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"
