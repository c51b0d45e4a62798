"""Evaluation reports and the transfer matrix rendered from them."""

import pytest

from bertpipe.evaluation.report import EvalReport, transfer_matrix


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


@pytest.mark.parametrize(
    "d, message",
    [
        ({"task": "NER", "test_lang": "fi", "model_name": "m", "metrics": {"macro_f1": 0.5}}, "'train_lang'"),
        ({"task": "NER", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": {}}, "'macro_f1'"),
        ({"task": "DP", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": {"uas": 1}}, "'las'"),
        ({"task": "POS", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": [0.5]}, "'metrics'"),
        ({"task": "NER", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": {"macro_f1": True}}, "macro_f1=True is not a number"),
        ([], "report object"),
        ({"task": "NER", "train_lang": "", "test_lang": "fi", "model_name": "m", "metrics": {"macro_f1": 0.5}}, "'train_lang'"),
        (
            {"task": "NER", "train_lang": "fi", "test_lang": "fi", "model_name": "m", "metrics": {"macro_f1": 0.5}, "typo_key": 1},
            "unknown key 'typo_key'",
        ),
    ],
)
def test_from_dict_rejects_a_malformed_report(d, message):
    with pytest.raises(ValueError, match=message):
        EvalReport.from_dict(d)


def test_from_dict_round_trips_as_dict():
    report = dp("sl", "hr", "m", 0.75, 0.5)
    assert EvalReport.from_dict(report.as_dict()) == report
