"""Evaluation reports and the transfer matrix rendered from them."""

import json
import re

import pytest

from bertpipe.evaluation.report import EvalReport, load_reports, save_reports, transfer_matrix


def ner(train, test, model, f1):
    return EvalReport("NER", train, test, model, {"macro_f1": f1})


def dp(train, test, model, uas, las):
    return EvalReport("DP", train, test, model, {"uas": uas, "las": las})


def rows(matrix):
    """The matrix's cells, one list per line, without the separator line."""
    lines = matrix.splitlines()
    assert set(lines[1]) <= {"|", "-", " "}
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in [lines[0], *lines[2:]]]


def test_monolingual_rows_come_before_cross_lingual_rows():
    reports = [
        ner("en", "fi", "m", 0.5),
        ner("fi", "fi", "m", 0.9),
        ner("fi", "en", "m", 0.4),
        ner("en", "en", "m", 0.8),
    ]
    assert [row[:2] for row in rows(transfer_matrix(reports))[1:]] == [
        ["fi", "fi"], ["en", "en"], ["en", "fi"], ["fi", "en"],
    ]


def test_delta_columns_against_the_first_model_by_default():
    reports = [ner("fi", "fi", "mbert", 0.8), ner("fi", "fi", "finest", 0.9), ner("fi", "fi", "xlmr", 0.7)]
    assert rows(transfer_matrix(reports)) == [
        ["Train", "Test", "mbert", "finest", "xlmr", "finest-mbert", "xlmr-mbert"],
        ["fi", "fi", "0.800", "0.900", "0.700", "+0.100", "-0.100"],
    ]


def test_delta_columns_against_the_named_baseline():
    reports = [ner("fi", "fi", "mbert", 0.8), ner("fi", "fi", "finest", 0.9)]
    assert rows(transfer_matrix(reports, baseline="finest")) == [
        ["Train", "Test", "mbert", "finest", "mbert-finest"],
        ["fi", "fi", "0.800", "0.900", "-0.100"],
    ]


@pytest.mark.parametrize(
    "mbert, finest, delta",
    [
        # a delta that rounds to zero reads +0.000 from either side
        (0.9, 0.9, "+0.000"),
        (0.9001, 0.9, "+0.000"),
        (0.9, 0.9001, "+0.000"),
        (0.9, 0.899, "-0.001"),
        (0.9, 0.901, "+0.001"),
    ],
)
def test_delta_that_rounds_to_zero_reads_plus_zero(mbert, finest, delta):
    reports = [ner("fi", "fi", "mbert", mbert), ner("fi", "fi", "finest", finest)]
    assert rows(transfer_matrix(reports))[1][-1] == delta


def test_unknown_baseline_is_an_error():
    with pytest.raises(ValueError, match="'bert' not among reports"):
        transfer_matrix([ner("fi", "fi", "mbert", 0.8)], baseline="bert")


def test_missing_cells_and_their_deltas_read_n_a():
    reports = [ner("fi", "fi", "mbert", 0.8), ner("fi", "fi", "finest", 0.9), ner("et", "et", "finest", 0.7)]
    assert rows(transfer_matrix(reports))[1:] == [
        ["fi", "fi", "0.800", "0.900", "+0.100"],
        ["et", "et", "n/a", "0.700", "n/a"],
    ]


def test_dp_has_a_uas_and_a_las_column_per_model():
    reports = [dp("sl", "sl", "mbert", 0.9, 0.8), dp("sl", "sl", "crosloengual", 0.95, 0.9)]
    assert rows(transfer_matrix(reports)) == [
        [
            "Train", "Test", "mbert UAS", "mbert LAS", "crosloengual UAS", "crosloengual LAS",
            "crosloengual-mbert UAS", "crosloengual-mbert LAS",
        ],
        ["sl", "sl", "0.900", "0.800", "0.950", "0.900", "+0.050", "+0.100"],
    ]


def test_columns_are_padded_to_one_width():
    lines = transfer_matrix([ner("fi", "fi", "mbert", 0.8), ner("et", "fi", "mbert", 0.5)]).splitlines()
    assert len({len(line) for line in lines}) == 1


def test_duplicate_report_is_an_error():
    with pytest.raises(ValueError, match=r"duplicate report for \(train=fi, test=fi, model=m\)"):
        transfer_matrix([ner("fi", "fi", "m", 0.8), ner("fi", "fi", "m", 0.9)])


def test_mixed_tasks_are_an_error():
    with pytest.raises(ValueError, match="share a task"):
        transfer_matrix([ner("fi", "fi", "m", 0.8), dp("fi", "fi", "m", 0.8, 0.7)])


def test_no_reports_is_an_error():
    with pytest.raises(ValueError, match="no reports"):
        transfer_matrix([])


VALID = {"task": "NER", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": {"macro_f1": 0.5}}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({**VALID, "train_lang": ""}), "at $.train_lang: expected a non-empty string"),
        (json.dumps({k: v for k, v in VALID.items() if k != "train_lang"}), "at $.train_lang: missing key"),
        (json.dumps({**VALID, "metrics": {}}), "at $: NER report lacks metric 'macro_f1'"),
        (json.dumps({**VALID, "task": "DP", "metrics": {"uas": 1}}), "at $: DP report lacks metric 'las'"),
        (json.dumps({**VALID, "task": "POS", "metrics": [0.5]}), "at $.metrics: expected an object, got [0.5]"),
        (json.dumps({**VALID, "metrics": {"macro_f1": True}}), "at $.metrics.macro_f1: expected a finite number, got true"),
        (json.dumps({**VALID, "metrics": {"macro_f1": 1.5}}), "at $: metric macro_f1=1.5 is not a number in [0, 1]"),
        (json.dumps({**VALID, "typo_key": 1}), "at $.typo_key: unknown key"),
        (json.dumps([VALID, []]), "at $[1]: expected an object, got []"),
        (json.dumps([VALID, VALID])[:-2] + ', "task": "POS"}]', "repeated key 'task'"),
    ],
    ids=[
        "empty label", "missing label", "missing metric", "missing DP metric", "metrics not an object",
        "true score", "score above 1", "unknown key", "not an object in an array", "repeated key in an array",
    ],
)
def test_load_reports_rejects_a_malformed_report(tmp_path, text, message):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"report file {path}: ") + ".*" + re.escape(message)):
        load_reports(str(path))


def test_save_and_render_check_each_report(tmp_path):
    bad = EvalReport("NER", "fi", "fi", "m", {"macro_f1": 1.5})
    message = re.escape("metric macro_f1=1.5 is not a number in [0, 1]")
    with pytest.raises(ValueError, match=message):
        save_reports([ner("fi", "fi", "m", 0.5), bad], str(tmp_path / "reports.json"))
    assert not (tmp_path / "reports.json").exists()
    with pytest.raises(ValueError, match=message):
        transfer_matrix([ner("fi", "fi", "m", 0.5), bad])


@pytest.mark.parametrize("key", ["train_lang", "test_lang", "model_name"])
def test_save_and_render_reject_an_empty_label(tmp_path, key):
    empty = ner("fi", "fi", "m", 0.5)._replace(**{key: ""})
    with pytest.raises(ValueError, match=f"{key} must not be empty"):
        save_reports([empty], str(tmp_path / "reports.json"))
    assert not (tmp_path / "reports.json").exists()
    with pytest.raises(ValueError, match=f"{key} must not be empty"):
        transfer_matrix([empty])


def test_save_and_load_reports_round_trip(tmp_path):
    reports = [dp("sl", "hr", "m", 0.75, 0.5), ner("fi", "et", "m", 1)]
    path = tmp_path / "reports.json"
    save_reports(reports, str(path))
    assert load_reports(str(path)) == reports
    # a file may also hold one report object, not in an array
    path.write_text(json.dumps(reports[0]._asdict()), encoding="utf-8")
    assert load_reports(str(path)) == reports[:1]
