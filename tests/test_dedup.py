import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe.corpus import TextUnit
from bertpipe.dedup import dedup_corpus, shingle

from conftest import make_dedup_corpus, oracle_dedup, oracle_shingles


def unit(text):
    return TextUnit("xx", text)


def texts(units):
    return [u.text for u in units]


class TestShingle:
    def test_count_is_tokens_minus_n_plus_one(self):
        assert len(shingle("a b c d".split(), 2)) == 3

    def test_short_unit_hashes_whole_unit(self):
        assert len(shingle("a b".split(), 9)) == 1

    def test_identical_text_identical_fingerprints(self):
        assert shingle("x y z w".split(), 2) == shingle("x y z w".split(), 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            shingle("a b".split(), 0)


class TestDuplicateFraction:
    """The fraction of a unit's shingles already kept, seen through dedup_corpus."""

    def test_empty_index_gives_zero(self):
        # nothing kept yet: fraction 0 is below even threshold 0
        kept, _ = dedup_corpus([unit("a b c")], n=2, threshold=0.0)
        assert texts(kept) == ["a b c"]

    def test_identical_unit_gives_one(self):
        kept, _ = dedup_corpus([unit("a b c d e"), unit("a b c d e")], n=2, threshold=1.0)
        assert texts(kept) == ["a b c d e"]

    def test_nine_of_ten_shingles_seen(self):
        # 18 tokens -> 10 shingles at n=9; editing the final token leaves
        # exactly one window new
        tokens = [f"t{i}" for i in range(18)]
        edited = tokens[:-1] + ["other"]
        grams = oracle_shingles(" ".join(edited), 9)
        seen = set(oracle_shingles(" ".join(tokens), 9))
        assert sum(1 for g in grams if g in seen) / len(grams) == 0.9
        units = [unit(" ".join(tokens)), unit(" ".join(edited))]
        assert dedup_corpus(units, n=9, threshold=0.9)[0] == units[:1]
        assert dedup_corpus(units, n=9, threshold=0.91)[0] == units


class TestDedupCorpus:
    def test_exact_duplicate_dropped(self):
        text = " ".join(f"w{i}" for i in range(12))
        kept, stats = dedup_corpus([unit(text), unit(text)], n=9, threshold=0.9)
        assert texts(kept) == [text]
        assert stats.units_in == 2 and stats.units_kept == 1 and stats.units_dropped == 1
        assert stats.units_in == stats.units_kept + stats.units_dropped
        assert stats.tokens_kept <= stats.tokens_in

    def test_disjoint_vocabularies_all_kept(self):
        units = [unit(" ".join(f"w{i}_{j}" for j in range(10))) for i in range(20)]
        kept, stats = dedup_corpus(units, n=9, threshold=0.9)
        assert len(kept) == 20
        assert stats.units_dropped == 0

    def test_empty_input_zeroed_stats(self):
        kept, stats = dedup_corpus([], n=9, threshold=0.9)
        assert kept == []
        assert stats.as_dict() == {
            "units_in": 0,
            "units_kept": 0,
            "units_dropped": 0,
            "tokens_in": 0,
            "tokens_kept": 0,
        }

    def test_output_preserves_input_order(self):
        rng = random.Random(3)
        units = make_dedup_corpus(rng, 80)
        kept, _ = dedup_corpus(units, n=9, threshold=0.9)
        # kept is a subsequence of the input, unit by unit
        remaining = iter(units)
        assert all(any(k is u for u in remaining) for k in kept)

    def test_threshold_zero_keeps_only_first(self):
        units = [unit(f"completely distinct {i} text {i}") for i in range(5)]
        kept, _ = dedup_corpus(units, n=9, threshold=0.0)
        assert kept == units[:1]

    def test_threshold_one_drops_only_full_overlap(self):
        base = " ".join(f"w{i}" for i in range(18))
        near = " ".join([f"w{i}" for i in range(17)] + ["zz"])
        kept, _ = dedup_corpus([unit(base), unit(near), unit(base)], n=9, threshold=1.0)
        assert texts(kept) == [base, near]

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dedup_corpus([unit("a")], threshold=1.5)

    def test_idempotence(self):
        rng = random.Random(11)
        units = make_dedup_corpus(rng, 150)
        once, _ = dedup_corpus(units, n=9, threshold=0.9)
        twice, stats = dedup_corpus(once, n=9, threshold=0.9)
        assert twice == once
        assert stats.units_dropped == 0

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(50):
            units = make_dedup_corpus(rng, rng.randint(1, 120))
            threshold = rng.choice([0.0, 0.5, 0.9, 1.0])
            kept, _ = dedup_corpus(units, n=9, threshold=threshold)
            assert texts(kept) == oracle_dedup(texts(units), 9, threshold)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 60),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
    n=st.integers(1, 9),
)
def test_oracle_equivalence_property(seed, size, threshold, n):
    units = make_dedup_corpus(random.Random(seed), size)
    kept, _ = dedup_corpus(units, n=n, threshold=threshold)
    assert texts(kept) == oracle_dedup(texts(units), n, threshold)
