"""Corpus-to-pretraining-data pipeline and cross-lingual evaluation harness."""

__version__ = "0.1.0"
