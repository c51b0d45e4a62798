"""Corpus-to-pretraining-data pipeline and cross-lingual evaluation harness."""

__version__ = "0.1.0"

from .corpus import Granularity, TextUnit
from .dedup import DedupStats, dedup_corpus, shingle
from .pretrain import MaskingConfig, TrainingInstance, phase_datasets
from .schedule import PhaseSpec, TrainingPlan, make_plan, steps_for
from .vocab import Vocab, WordCounts, count_words, learn_wordpieces, sample_subset, tokenize

__all__ = [
    "DedupStats",
    "Granularity",
    "MaskingConfig",
    "PhaseSpec",
    "TextUnit",
    "TrainingInstance",
    "TrainingPlan",
    "Vocab",
    "WordCounts",
    "__version__",
    "count_words",
    "dedup_corpus",
    "learn_wordpieces",
    "make_plan",
    "phase_datasets",
    "sample_subset",
    "shingle",
    "steps_for",
    "tokenize",
]
