import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bertpipe
from bertpipe import dedup
from bertpipe.corpus import TextUnit
from bertpipe.dedup import DedupStats, dedup_corpus, shingle

from conftest import make_dedup_corpus, oracle_dedup, oracle_shingles


def unit(text):
    return TextUnit("xx", text)


def texts(units):
    return [u.text for u in units]


def oracle_stats(texts, n, threshold):
    """The DedupStats that `oracle_dedup`'s kept texts imply."""
    kept = oracle_dedup(texts, n, threshold)
    return DedupStats(
        units_in=len(texts),
        units_kept=len(kept),
        units_dropped=len(texts) - len(kept),
        tokens_in=sum(len(t.split()) for t in texts),
        tokens_kept=sum(len(t.split()) for t in kept),
    )


class TestShingle:
    def test_count_is_tokens_minus_n_plus_one(self):
        assert len(shingle([0, 1, 2, 3], 2)) == 3

    def test_short_unit_hashes_whole_unit(self):
        assert len(shingle([0, 1], 9)) == 1

    def test_identical_ids_identical_fingerprints(self):
        assert shingle([4, 5, 6, 7], 2) == shingle([4, 5, 6, 7], 2)

    def test_repeated_ngram_repeats_its_fingerprint(self):
        # a b a b a b: (a, b) (b, a) (a, b) (b, a) (a, b)
        prints = shingle([0, 1, 0, 1, 0, 1], 2)
        assert len(prints) == 5 and len(set(prints)) == 2
        assert prints[0] == prints[2] == prints[4] != prints[1] == prints[3]

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            shingle([0, 1], 0)


def fingerprints_of(units, n, monkeypatch, threshold=0.9):
    """Every fingerprint list dedup_corpus computes through the module's shingle, in call order."""
    prints = []

    def recording(ids, order):
        prints.append(shingle(ids, order))
        return prints[-1]

    monkeypatch.setattr(dedup, "shingle", recording)
    dedup_corpus(units, n=n, threshold=threshold)
    return prints


class TestFingerprints:
    def test_dedup_corpus_calls_the_module_shingle_once_per_distinct_text(self, monkeypatch):
        units = make_dedup_corpus(random.Random(5), 40)
        prints = fingerprints_of(units, 9, monkeypatch)
        assert len(prints) == len(set(texts(units))) < len(units)
        assert all(type(p) is list for p in prints)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.9, 1.0])
    def test_exact_repeats_are_never_fingerprinted(self, threshold, monkeypatch):
        # k distinct texts, each repeated r times in a shuffled order
        rng = random.Random(21)
        distinct = list(dict.fromkeys(texts(make_dedup_corpus(rng, 50))))
        k, r = len(distinct), 4
        repeated = [unit(t) for t in distinct * r]
        rng.shuffle(repeated)
        assert len(fingerprints_of(repeated, 9, monkeypatch, threshold)) == k
        kept, stats = dedup_corpus(repeated, n=9, threshold=threshold)
        assert texts(kept) == oracle_dedup(texts(repeated), 9, threshold)
        assert stats == oracle_stats(texts(repeated), 9, threshold)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_collisions_on_random_corpora(self, seed, monkeypatch):
        units = make_dedup_corpus(random.Random(seed), 300)
        for n in (1, 2, 9):
            prints = fingerprints_of(units, n, monkeypatch)
            grams = [oracle_shingles(t, n) for t in dict.fromkeys(texts(units))]
            assert [len(p) for p in prints] == [len(g) for g in grams]
            assert len({p for ps in prints for p in ps}) == len({g for gs in grams for g in gs})

    def test_repeated_ngrams_count_as_often_as_they_occur(self, monkeypatch):
        # against the kept (a, b), "a b a b c" has 2 of 4 bigrams seen: 0.5,
        # while its distinct bigrams would give 1 of 3
        units = [unit("a b"), unit("a b a b c"), unit("a b a b a b"), unit("b c b c d")]
        prints = fingerprints_of(units, 2, monkeypatch)
        assert len({p for ps in prints for p in ps}) == 5  # (a b) (b a) (b c) (c b) (c d)
        for threshold in (0.3, 0.5, 0.6, 0.8, 1.0):
            kept, _ = dedup_corpus(units, n=2, threshold=threshold)
            assert texts(kept) == oracle_dedup(texts(units), 2, threshold)
        assert texts(dedup_corpus(units, n=2, threshold=0.5)[0]) == ["a b", "b c b c d"]

    def test_same_in_every_process(self, tmp_path):
        """Fingerprints do not depend on the interpreter's string-hash salt."""
        units = make_dedup_corpus(random.Random(8), 60) + [unit("ääni öljy ääni"), unit("šuma ž č")]
        corpus = tmp_path / "units.json"
        corpus.write_text(json.dumps(texts(units)), encoding="utf-8")
        probe = (
            "import json, sys\n"
            "from bertpipe import dedup\n"
            "from bertpipe.corpus import TextUnit\n"
            "prints, shingle = [], dedup.shingle\n"
            "dedup.shingle = lambda ids, n: prints.append(shingle(ids, n)) or prints[-1]\n"
            "texts = json.load(open(sys.argv[1], encoding='utf-8'))\n"
            "dedup.dedup_corpus([TextUnit('xx', t) for t in texts], 9, 0.9)\n"
            "print(json.dumps(prints))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(bertpipe.__file__)))
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", probe, str(corpus)],
                capture_output=True,
                text=True,
                encoding="utf-8",
                env=env,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert len(runs[0]) == len(set(texts(units)))


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
        assert stats._asdict() == {
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
            kept, stats = dedup_corpus(units, n=9, threshold=threshold)
            assert texts(kept) == oracle_dedup(texts(units), 9, threshold)
            assert stats == oracle_stats(texts(units), 9, threshold)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 60),
    threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
    n=st.integers(1, 9),
)
def test_oracle_equivalence_property(seed, size, threshold, n):
    units = make_dedup_corpus(random.Random(seed), size)
    kept, stats = dedup_corpus(units, n=n, threshold=threshold)
    assert texts(kept) == oracle_dedup(texts(units), n, threshold)
    assert stats == oracle_stats(texts(units), n, threshold)
