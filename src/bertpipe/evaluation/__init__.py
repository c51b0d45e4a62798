"""Scoring of NER, POS and DP predictions, and cross-lingual transfer matrices."""
