"""Evaluation reports and cross-lingual transfer-matrix rendering.

The scorers of ner.py and ud.py turn gold and predictions into a metrics
dict; the caller labels it with a task, the train and test languages and
the model name to make an EvalReport.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

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
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name in _TASK_METRICS[self.task]:
            if name not in self.metrics:
                raise ValueError(f"{self.task} report lacks metric {name!r}")
        for name, value in self.metrics.items():
            # bool is an int, but JSON true is not a score
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ValueError(f"metric {name}={value!r} is not a number in [0, 1]")

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "train_lang": self.train_lang,
            "test_lang": self.test_lang,
            "model_name": self.model_name,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, d) -> "EvalReport":
        """The report of as_dict's object; raises ValueError on any other value."""
        if not isinstance(d, dict):
            raise ValueError("expected a report object")
        labels = ("task", "train_lang", "test_lang", "model_name")
        for key in d:
            if key not in (*labels, "metrics"):
                raise ValueError(f"unknown key {key!r}")
        for key in labels:
            if not isinstance(d.get(key), str) or not d[key]:
                raise ValueError(f"report lacks a non-empty string {key!r}")
        if not isinstance(d.get("metrics"), dict):
            raise ValueError("report lacks a 'metrics' object")
        return cls(
            task=d["task"],
            train_lang=d["train_lang"],
            test_lang=d["test_lang"],
            model_name=d["model_name"],
            metrics=dict(d["metrics"]),
        )


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
        json.dump([r.as_dict() for r in reports], f, indent=2, sort_keys=True)
        f.write("\n")


def load_reports(path: str) -> list[EvalReport]:
    """The reports of a file holding one report object or an array of them."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
            return [EvalReport.from_dict(d) for d in (data if isinstance(data, list) else [data])]
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
                    row.append(f"{report.metrics[m] - base.metrics[m]:+.3f}")
        rows.append(row)

    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]

    def fmt(row: list[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    lines = [fmt(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"
