from .ner import (
    LabelMap,
    NerSentence,
    harmonize,
    ner_scores,
    parse_ner,
)
from .report import EvalReport, transfer_matrix
from .ud import UdToken, attachment_scores, parse_conllu, upos_accuracy

__all__ = [
    "EvalReport",
    "LabelMap",
    "NerSentence",
    "UdToken",
    "attachment_scores",
    "harmonize",
    "ner_scores",
    "parse_conllu",
    "parse_ner",
    "transfer_matrix",
    "upos_accuracy",
]
