import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertpipe import vocab as vocab_module
from bertpipe.corpus import TextUnit
from bertpipe.vocab import (
    CONTINUATION_PREFIX,
    MAX_CANDIDATE_WORD_CHARS,
    MAX_PIECE_CHARS,
    RESERVED_TOKENS,
    UNK,
    Vocab,
    WordCounts,
    count_words,
    learn_wordpieces,
    sample_subset,
    tokenize,
    tokenize_text,
)

from conftest import make_dedup_corpus, oracle_tokenize


def units_of(texts, lang="xx"):
    return [TextUnit(lang, t) for t in texts]


class TestSampleSubset:
    def test_uniform_unit_lengths_hit_budget_exactly(self):
        corpus = units_of([" ".join(f"w{i}_{j}" for j in range(10)) for i in range(100)])
        subset, tokens = sample_subset(corpus, 500, seed=5)
        assert len(subset) == 50
        assert sum(len(u.tokens()) for u in subset) == tokens == 500

    def test_budget_at_least_corpus_returns_everything(self):
        corpus = units_of(["a b c", "d e"])
        assert sample_subset(corpus, 5, seed=0) == (corpus, 5)
        assert sample_subset(corpus, 50, seed=0) == (corpus, 5)

    def test_fixed_seed_is_deterministic(self):
        corpus = units_of([f"w{i} w{i} w{i}" for i in range(200)])
        assert sample_subset(corpus, 90, seed=42) == sample_subset(corpus, 90, seed=42)

    def test_least_cumulative_value_at_or_above_budget(self):
        rng = random.Random(9)
        corpus = units_of([" ".join("t" for _ in range(rng.randint(1, 7))) for _ in range(300)])
        subset, total = sample_subset(corpus, 100, seed=1)
        assert total == sum(len(u.tokens()) for u in subset)
        largest = max(len(u.tokens()) for u in subset)
        assert 100 <= total < 100 + largest

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            sample_subset([], 10, seed=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="token budget must be positive"):
            sample_subset(units_of(["a b"]), budget, seed=0)


class TestCountWords:
    def test_simple_counts(self):
        wc = count_words([units_of(["a a b"])])
        assert wc.counts == {"a": 2, "b": 1}

    def test_additive_over_disjoint_subsets(self):
        merged = count_words([units_of(["x y"]), units_of(["z z"])])
        left = count_words([units_of(["x y"])])
        right = count_words([units_of(["z z"])])
        assert merged.counts == {**left.counts, **right.counts}

    def test_matches_sequential_recount_oracle(self):
        rng = random.Random(7)
        lexicon = [f"word{i}" for i in range(500)]
        texts = [
            " ".join(rng.choice(lexicon) for _ in range(rng.randint(5, 40)))
            for _ in range(5000)
        ]
        wc = count_words([units_of(texts[:2500]), units_of(texts[2500:])])
        oracle = Counter()
        for t in texts:
            oracle.update(t.split())
        assert wc.counts == dict(oracle)

    def test_no_units_rejected(self):
        with pytest.raises(ValueError):
            count_words([[]])


class TestLearnWordpieces:
    def test_minimal_vocabulary_is_reserved_plus_alphabet(self):
        wc = WordCounts({"ab": 5, "ba": 3})
        vocab = learn_wordpieces(wc, target_size=len(RESERVED_TOKENS) + 4)
        assert set(vocab.pieces) == set(RESERVED_TOKENS) | {"a", "b", "##a", "##b"}
        assert vocab.pieces[:5] == RESERVED_TOKENS

    def test_target_below_alphabet_rejected(self):
        wc = WordCounts({"abc": 1})
        with pytest.raises(ValueError, match="target below alphabet size"):
            learn_wordpieces(wc, target_size=len(RESERVED_TOKENS) + 5)

    def test_repeated_word_yields_covering_piece(self):
        wc = WordCounts({"aaaa": 1000})
        vocab = learn_wordpieces(wc, target_size=20)
        # score = count * content length; enumerate the candidates by hand
        candidates = {}
        word = "aaaa"
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                piece = word[i:j] if i == 0 else "##" + word[i:j]
                candidates[piece] = candidates.get(piece, 0) + 1000
        scores = {
            p: c * (len(p) - 2 if p.startswith("##") else len(p))
            for p, c in candidates.items()
        }
        top_initial = max((p for p in scores if not p.startswith("##")), key=scores.get)
        assert top_initial == "aaaa"
        assert "aaaa" in vocab.piece_ids
        assert tokenize("aaaa", vocab) == ["aaaa"]

    def test_character_coverage_means_no_unk_on_training_words(self):
        rng = random.Random(13)
        words = {"".join(rng.choice("abcdef") for _ in range(rng.randint(1, 9))): rng.randint(1, 30) for _ in range(400)}
        wc = WordCounts(words)
        vocab = learn_wordpieces(wc, target_size=120)
        for word in words:
            pieces = tokenize(word, vocab)
            assert pieces != ["[UNK]"]
            rebuilt = "".join(p[2:] if p.startswith("##") else p for p in pieces)
            assert rebuilt == word

    def test_exact_target_reached_when_candidates_suffice(self):
        rng = random.Random(29)
        words = {
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 10))): rng.randint(1, 99)
            for _ in range(2000)
        }
        wc = WordCounts(words)
        vocab = learn_wordpieces(wc, target_size=800)
        assert abs(len(vocab) - 800) <= 0.02 * 800

    def test_word_spelling_a_reserved_token_is_not_learned_again(self):
        vocab = learn_wordpieces(WordCounts({"[MASK]": 5, "ab": 3}), 60)
        assert vocab.pieces.count("[MASK]") == 1
        assert vocab.pieces.index("[MASK]") < len(RESERVED_TOKENS)
        assert "[MAS" in vocab.piece_ids

    def test_learning_is_deterministic_and_file_byte_identical(self, tmp_path):
        rng = random.Random(3)
        words = {
            "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))): rng.randint(1, 50)
            for _ in range(300)
        }
        wc = WordCounts(words)
        one = learn_wordpieces(wc, target_size=100)
        two = learn_wordpieces(wc, target_size=100)
        assert one.pieces == two.pieces
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        for vocab, path in ((one, p1), (two, p2)):
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                vocab.save(f)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = Vocab.load(str(p1))
        assert loaded.pieces == one.pieces
        assert loaded.reserved == RESERVED_TOKENS


def hand_count(counts: dict[str, int]) -> Counter:
    """Every substring piece word[i:j] of every word, counted one slice at a time."""
    cand = Counter()
    for word, count in counts.items():
        if len(word) > MAX_CANDIDATE_WORD_CHARS:
            continue
        for i in range(len(word)):
            for j in range(i + 1, min(len(word), i + MAX_PIECE_CHARS) + 1):
                cand[word[i:j] if i == 0 else "##" + word[i:j]] += count
    return cand


def reference_wordpieces(counts: dict[str, int], target_size: int) -> list[str]:
    """Every substring piece counted by hand, sorted in full, then truncated."""
    cand = hand_count(counts)
    chars = sorted({ch for word in counts for ch in word})
    mandatory = chars + ["##" + c for c in chars]

    def key(piece):
        return -cand[piece] * len(piece.removeprefix("##")), piece

    optional = sorted((p for p in cand if p not in mandatory and p not in RESERVED_TOKENS), key=key)
    budget = target_size - len(RESERVED_TOKENS) - len(mandatory)
    return RESERVED_TOKENS + sorted(mandatory + optional[:budget], key=key)


@settings(max_examples=200, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="ab#é", min_size=1, max_size=70) | st.sampled_from(RESERVED_TOKENS),
        st.integers(1, 40),
        min_size=1,
        max_size=25,
    )
    # short words with counts of 1 or 2: many tied scores at every budget
    | st.dictionaries(
        st.text(alphabet="ab#", min_size=1, max_size=5), st.sampled_from([1, 2]), min_size=1, max_size=25
    ),
    extra=st.integers(0, 80),
)
def test_learning_matches_full_sort_reference(words, extra):
    target = len(RESERVED_TOKENS) + 2 * len({c for w in words for c in w}) + extra
    vocab = learn_wordpieces(WordCounts(words), target)
    assert vocab.pieces == reference_wordpieces(words, target)


def reference_ranking(counts: dict[str, int]) -> list[tuple[int, str]]:
    """Every optional piece as (-score, piece), in the reference's order."""
    cand = hand_count(counts)
    chars = {ch for word in counts for ch in word}
    mandatory = chars | {"##" + c for c in chars}
    return sorted(
        (-n * len(p.removeprefix("##")), p)
        for p, n in cand.items()
        if p not in mandatory and p not in RESERVED_TOKENS
    )


def floor_of(counts: dict[str, int]) -> int:
    return len(RESERVED_TOKENS) + 2 * len({ch for word in counts for ch in word})


def family_tables(counts: dict[str, int], continuation: bool) -> list[tuple[int, dict[str, int]]]:
    """Every (length, table) that _piece_tables yields for one piece family."""
    by_length = [{} for _ in range(MAX_CANDIDATE_WORD_CHARS + 1)]
    for word, count in counts.items():
        if len(word) <= MAX_CANDIDATE_WORD_CHARS:
            by_length[len(word)][word] = count
    hashed = {word: count for words in by_length for word, count in words.items() if word.startswith("##")}
    return list(vocab_module._piece_tables(by_length, hashed, continuation))


def score_cutoff(counts: dict[str, int], budget: int) -> int:
    """The budget-th best score over the optional pieces of both families."""
    hist = Counter()
    for continuation in (False, True):
        for length, table in family_tables(counts, continuation):
            if length > 1:
                hist.update(n * length for raw, n in table.items() if continuation or raw not in RESERVED_TOKENS)
    return vocab_module._nth_best(hist, budget)


class TestScoreCutoffEdges:
    """The top-k by score cutoff against the full-sort reference, at every budget."""

    def check_every_budget(self, words):
        ranking = reference_ranking(words)
        scores = [-score for score, _ in ranking] + [0]
        for budget in range(len(ranking) + 2):
            target = floor_of(words) + budget
            assert learn_wordpieces(WordCounts(words), target).pieces == reference_wordpieces(words, target)
            if budget:
                # the budget-th score itself (0 past the last), so no lower piece is built
                assert score_cutoff(words, budget) == scores[budget - 1]

    def test_budget_boundary_inside_a_tie_of_initial_and_continuation_pieces(self):
        words = {"abc": 2, "bcd": 1, "cd": 3}
        ranking = reference_ranking(words)
        assert ranking[2:4] == [(-4, "##bc"), (-4, "ab")]
        vocab = learn_wordpieces(WordCounts(words), floor_of(words) + 3)
        assert "##bc" in vocab.piece_ids and "ab" not in vocab.piece_ids
        self.check_every_budget(words)

    def test_budget_beyond_the_candidates_keeps_the_score_zero_piece(self):
        words = {"##x": 3, "ab": 2}
        ranking = reference_ranking(words)
        assert ranking[-1] == (0, "##")
        target = floor_of(words) + len(ranking) + 5
        vocab = learn_wordpieces(WordCounts(words), target)
        assert "##" in vocab.piece_ids
        assert len(vocab) == target - 5
        self.check_every_budget(words)

    def test_character_only_inside_words(self):
        words = {"ab": 5, "cab": 2}
        initial, continuation = (dict(family_tables(words, c)) for c in (False, True))
        assert "b" not in initial[1] and "b" in continuation[1]
        vocab = learn_wordpieces(WordCounts(words), floor_of(words))
        assert "b" in vocab.piece_ids
        self.check_every_budget(words)

    def test_bound_that_rises_within_a_family(self):
        # The first table, of 16-character heads, sets the bound at 16; the
        # frequent two-character words then raise it within the same family.
        rng = random.Random(4)
        words = {"".join(rng.choice("klmnopqrst") for _ in range(MAX_PIECE_CHARS)): 1 for _ in range(30)}
        words.update({"ab": 40, "ba": 30})
        ranking = reference_ranking(words)
        assert ranking[:2] == [(-80, "ab"), (-60, "ba")]
        assert min(score for score, p in ranking if len(p) == MAX_PIECE_CHARS) == -MAX_PIECE_CHARS
        for budget in (1, 2):
            target = floor_of(words) + budget
            assert learn_wordpieces(WordCounts(words), target).pieces == reference_wordpieces(words, target)
            assert score_cutoff(words, budget) == -ranking[budget - 1][0]

    def test_zero_budget_keeps_only_the_mandatory_pieces(self):
        words = {"abc": 2, "bcd": 1, "cd": 3}
        vocab = learn_wordpieces(WordCounts(words), floor_of(words))
        chars = "abcd"
        assert len(vocab) == floor_of(words)
        assert set(vocab.pieces[len(RESERVED_TOKENS) :]) == {*chars, *("##" + c for c in chars)}


def pinned_texts(seed: int, letters: str) -> list[str]:
    rng = random.Random(seed)
    lexicon = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 7))) for _ in range(60)]
    return [" ".join(rng.choice(lexicon) for _ in range(rng.randint(3, 9))) for _ in range(40)]


class TestPinnedBytes:
    """vocab.txt bytes pinned by sha256: a rewrite of learning must keep them."""

    def test_vocab_file_bytes(self):
        counts = count_words(
            [units_of(pinned_texts(1, "aäiklnst"), "fi"), units_of(pinned_texts(2, "aeiklõsu"), "et")]
        )
        budget = 60
        # the budget boundary falls inside a run of tied initial and "##" pieces
        ranking = reference_ranking(counts.counts)
        assert ranking[budget - 1][0] == ranking[budget][0]
        tied = {p.startswith("##") for score, p in ranking if score == ranking[budget][0]}
        assert tied == {True, False}
        out = io.StringIO()
        learn_wordpieces(counts, floor_of(counts.counts) + budget).save(out)
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == (
            "b66dbebf9b6c3129d72866b9b5d701d7e1892a6dfd3ba2cbb5a7c9d043a8226c"
        )

    @staticmethod
    def edge_words() -> dict[str, int]:
        """Words at the piece and candidate length limits, the "#" words and a
        reserved token; "ž" occurs only in the 65-character word, "q" only
        inside a word."""
        rng = random.Random(3)

        def word(n):
            return "".join(rng.choice("aeiklnost") for _ in range(n))

        stem = word(14)
        words = {stem + word(n - 14): c for n, c in [(15, 9), (16, 7), (17, 5), (63, 3), (64, 2)]}
        words[stem + word(16) + "ž" + word(34)] = 4
        words.update({"#": 2, "##": 3, "##x": 4, "[SEP]": 5, "aqa": 2, "kala": 6})
        assert sorted(map(len, words)) == [1, 2, 3, 3, 4, 5, 15, 16, 17, 63, 64, 65]
        return words

    @pytest.mark.parametrize(
        "budget, sha256",
        [
            # the cut falls inside a tie of 16-character pieces
            (90, "15b4e30e4d1ef1971faf05269b844769e414f379d9ecd33b1fd60336537e519b"),
            # past the last candidate: the cutoff is 0 and "##" is kept
            (1594, "22024a228d3eb3cd2629fdf09e8473b5f5d48ad73295e753836f464b8a9aca25"),
        ],
    )
    def test_vocab_file_bytes_at_the_length_limits(self, budget, sha256):
        words = self.edge_words()
        ranking = reference_ranking(words)
        if budget < len(ranking):
            assert ranking[budget - 1][0] == ranking[budget][0]
            assert {len(ranking[i][1].removeprefix("##")) for i in (budget - 1, budget)} == {MAX_PIECE_CHARS}
        vocab = learn_wordpieces(WordCounts(words), floor_of(words) + budget)
        assert vocab.pieces == reference_wordpieces(words, floor_of(words) + budget)
        assert ("##" in vocab.piece_ids) == (budget > len(ranking))
        assert {"ž", "##ž", "q"} <= set(vocab.pieces) and vocab.pieces.count("[SEP]") == 1
        out = io.StringIO()
        vocab.save(out)
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == sha256


def test_learning_peaks_below_half_of_a_full_candidate_count():
    rng = random.Random(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = {"".join(rng.choice(letters) for _ in range(rng.randint(6, 14))): rng.randint(1, 3) for _ in range(4000)}
    target = floor_of(words) + 1000

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: learn_wordpieces(WordCounts(words), target)) <= peak(lambda: hand_count(words)) / 2


def test_learning_drops_kept_candidates_as_the_bound_rises():
    # Each word is a two-letter head and a prefix of one tail, and a prefix
    # count doubles at every shorter length, so every table's scores beat
    # the last table's and the bound rises at every length, down to the
    # shortest. Every table reaches the bound of its time; kept whole until
    # the end, the tables would outweigh a full candidate count.
    rng = random.Random(5)
    tail = "".join(rng.choice("abcdefghij") for _ in range(MAX_PIECE_CHARS - 2))
    heads = [a + b for a in "ABCDEFGHIJKLMNOPQRSTUVWXYZ012345" for b in "ABCDEFGHIJKLMNOPQRSTUVWXYZ012345"]
    words = {head + tail[:j]: 2 ** (len(tail) - j) for head in heads for j in range(1, len(tail) + 1)}
    target = floor_of(words) + 100

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: learn_wordpieces(WordCounts(words), target)) <= peak(lambda: hand_count(words))
    assert learn_wordpieces(WordCounts(words), target).pieces == reference_wordpieces(words, target)


def words_of_length(n: int):
    return st.text(alphabet="ab#", min_size=n, max_size=n)


# Stems with up to four of a few suffixes stacked on, as in Finnish and
# Estonian: many words share their endings, and the stem lengths put the
# words around the piece limit of 16 and the word limit of 64.
stacked_words = st.builds(
    lambda stem, suffixes: stem + "".join(suffixes),
    st.sampled_from([1, 3, 9, 12, 14, 16, 50, 55, 58, 61, 63]).flatmap(
        lambda n: st.text(alphabet="abé", min_size=n, max_size=n)
    ),
    st.lists(st.sampled_from(["a", "ssa", "ssä", "an", "ba", "#a", "é"]), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="ab#é", min_size=1, max_size=70)
        | st.sampled_from([15, 16, 17, 63, 64, 65]).flatmap(words_of_length)
        | st.text(alphabet="ab#", max_size=20).map(lambda t: "##" + t)
        | st.sampled_from(["#", "##", "###", "[SEP]", "##[SEP]", "[SEP]##"]),
        st.integers(1, 40),
        min_size=1,
        max_size=25,
    )
    | st.dictionaries(stacked_words, st.integers(1, 40), min_size=1, max_size=40)
)
def test_candidate_counts_match_a_hand_count_of_every_slice(words):
    # A word-initial slice spelled "##x" is the continuation piece "##x".
    expected = hand_count(words)
    for continuation in (False, True):
        tables = family_tables(words, continuation)
        assert [length for length, _ in tables] == list(range(MAX_PIECE_CHARS, 0, -1))
        for length, table in tables:
            assert all(len(raw) == length for raw in table)
            if continuation:
                assert table == {p[2:]: n for p, n in expected.items() if p.startswith("##") and len(p) == length + 2}
            else:
                assert table == {p: n for p, n in expected.items() if not p.startswith("##") and len(p) == length}


@pytest.mark.parametrize(
    "counts, closed",
    [
        ({}, {}),
        ({"a": 2}, {"a": 2}),
        ({"abc": 1}, {"abc": 1, "ab": 1, "a": 1}),
        ({"abc": 1, "ab": 2, "b": 5}, {"abc": 1, "ab": 3, "a": 3, "b": 5}),
        ({"abc": 1, "abd": 4, "xy": 3}, {"abc": 1, "abd": 4, "ab": 5, "a": 5, "xy": 3, "x": 3}),
        # the empty slice is no window's prefix, and no table of length 0 is made
        ({"": 7, "ab": 1}, {"ab": 1, "a": 1}),
        ({"a" * MAX_PIECE_CHARS: 2}, {"a" * n: 2 for n in range(1, MAX_PIECE_CHARS + 1)}),
    ],
)
def test_prefix_closure_adds_each_key_to_its_prefixes(counts, closed):
    # Before the closure, the initial tables hold each word's head and only
    # it; these words are their own heads.
    initial = family_tables(counts, continuation=False)
    assert all(len(raw) == length for length, table in initial for raw in table)
    assert {raw: n for _, table in initial for raw, n in table.items()} == closed


def test_learned_file_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    texts = pinned_texts(1, "aäiklnst") + pinned_texts(2, "aeiklõsu")
    units = make_dedup_corpus(random.Random(8), 60) + units_of(texts)
    counts = count_words([units])
    target = floor_of(counts.counts) + 60
    corpus = tmp_path / "units.json"
    corpus.write_text(json.dumps([u.text for u in units]), encoding="utf-8")
    probe = (
        "import json, sys\n"
        "from bertpipe.corpus import TextUnit\n"
        "from bertpipe.vocab import count_words, learn_wordpieces\n"
        "texts = json.load(open(sys.argv[1], encoding='utf-8'))\n"
        "counts = count_words([[TextUnit('xx', t) for t in texts]])\n"
        "with open(sys.argv[2], 'w', encoding='utf-8', newline='\\n') as f:\n"
        "    learn_wordpieces(counts, int(sys.argv[3])).save(f)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(vocab_module.__file__)))
    saved = []
    for seed in ("0", "1"):
        out = tmp_path / f"vocab{seed}.txt"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", probe, str(corpus), str(out), str(target)],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        saved.append(out.read_bytes())
    here = io.StringIO()
    learn_wordpieces(counts, target).save(here)
    assert saved[0] == saved[1] == here.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(
    bracketed=st.lists(
        st.text(alphabet="ab1[]", min_size=1, max_size=6).map(lambda t: f"[{t}]"), max_size=4, unique=True
    ),
    rest=st.lists(st.text(alphabet="ab#", min_size=1, max_size=5), max_size=10, unique=True),
)
def test_load_reserves_only_the_known_tokens(tmp_path_factory, bracketed, rest):
    learned = bracketed + [p for p in rest if p not in bracketed]
    vocab = Vocab(pieces=RESERVED_TOKENS + learned)
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        vocab.save(f)
    loaded = Vocab.load(str(path))
    assert loaded.pieces == vocab.pieces
    assert loaded.reserved == RESERVED_TOKENS


class TestTokenize:
    def vocab_with(self, *extra):
        chars = sorted({c for p in extra for c in p.removeprefix("##")})
        pieces = list(RESERVED_TOKENS)
        for p in extra:
            if p not in pieces:
                pieces.append(p)
        for c in chars:
            for q in (c, "##" + c):
                if q not in pieces:
                    pieces.append(q)
        return Vocab(pieces=pieces)

    def test_full_word_piece_wins(self):
        vocab = self.vocab_with("hello")
        assert tokenize("hello", vocab) == ["hello"]

    def test_greedy_longest_match(self):
        vocab = self.vocab_with("un", "##aff", "##able")
        assert tokenize("unaffable", vocab) == ["un", "##aff", "##able"]

    def test_unknown_character_maps_whole_word_to_unk(self):
        vocab = self.vocab_with("ab")
        assert tokenize("aZb", vocab) == ["[UNK]"]

    def test_empty_word_rejected(self):
        vocab = self.vocab_with("a")
        with pytest.raises(ValueError, match="empty word"):
            tokenize("", vocab)

    def test_continuation_prefix_is_stripped_in_round_trip(self):
        vocab = self.vocab_with("play", "##ing")
        pieces = tokenize("playing", vocab)
        assert pieces == ["play", "##ing"]
        assert "".join(p.removeprefix("##") for p in pieces) == "playing"

    def test_reserved_tokens_never_match(self):
        vocab = self.vocab_with("ab", "ba", "[MA", "##SK]", "[SE", "##P")
        assert tokenize("[MASK]", vocab) == ["[MA", "##SK]"]
        assert tokenize("[SEP]", vocab) == ["[SE", "##P", "##]"]
        assert tokenize_text("ab [MASK] ba", vocab) == ["ab", "[MA", "##SK]", "ba"]
        assert tokenize("[CLS]", vocab) == ["[UNK]"]

    def test_word_spelled_like_a_continuation_piece_matches_it_whole(self):
        # longest_piece counts the "##", so the first scan reaches all of "##ab"
        vocab = self.vocab_with("##ab")
        assert vocab.longest_piece == 4
        assert tokenize("##ab", vocab) == ["##ab"]
        assert tokenize("a##ab", vocab) == ["[UNK]"]

    def test_tokenize_text_splits_each_word_once(self, monkeypatch):
        vocab = self.vocab_with("ab", "ba")
        calls = []

        def counting(word, vocab):
            calls.append(word)
            return tokenize(word, vocab)

        monkeypatch.setattr(vocab_module, "tokenize", counting)
        assert tokenize_text("ab ba ab", vocab) + tokenize_text("ba ab", vocab) == ["ab", "ba", "ab", "ba", "ab"]
        assert calls == ["ab", "ba"]

    def test_pieces_are_the_vocab_strings_not_copies(self, tmp_path):
        # a loaded vocab and the words of a text are fresh string objects, so
        # a piece that is no copy is the vocab's own object
        counts = count_words([units_of(pinned_texts(2, "abcdé"))])
        path = tmp_path / "vocab.txt"
        with open(path, "w", encoding="utf-8") as f:
            learn_wordpieces(counts, floor_of(counts.counts) + 40).save(f)
        vocab = Vocab.load(str(path))
        text = " ".join(counts.counts) + " ##ab abé"
        for word in text.split():
            for piece in tokenize(word, vocab):
                assert piece is vocab.pieces[vocab.piece_ids[piece]]
        tokenize_text(text, vocab)
        pieces = [p for split in vocab.word_pieces.values() for p in split]
        assert len(pieces) > len(vocab.word_pieces)
        assert all(p is vocab.pieces[vocab.piece_ids[p]] for p in pieces)

    def test_enlarging_vocab_can_increase_piece_count(self):
        # Greedy longest-match is not monotone: a new piece can divert the
        # match away from a longer continuation. Pinned so the behavior is
        # a documented property of the algorithm, not an accident.
        small = self.vocab_with("a", "##bcd")
        grown = self.vocab_with("a", "##bcd", "ab")
        assert tokenize("abcd", small) == ["a", "##bcd"]
        assert tokenize("abcd", grown) == ["ab", "##c", "##d"]


def random_vocab(rng: random.Random, alphabet: str = "abcd") -> Vocab:
    pieces = list(RESERVED_TOKENS)
    for c in alphabet:
        pieces.extend((c, "##" + c))
    n_extra = rng.randint(0, 40)
    seen = set(pieces)
    for _ in range(n_extra):
        body = "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 6)))
        piece = body if rng.random() < 0.5 else "##" + body
        if piece not in seen:
            pieces.append(piece)
            seen.add(piece)
    return Vocab(pieces=pieces)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alphabet=st.sampled_from(["abcd", "ab#"]), data=st.data())
def test_greedy_matches_oracle(seed, alphabet, data):
    """Words over the alphabet, and words spelled by joining pieces: a
    reserved token or a "##" piece among them, or a "#" word."""
    vocab = random_vocab(random.Random(seed), alphabet)
    word = data.draw(
        st.one_of(
            st.text(alphabet=alphabet, min_size=1, max_size=12),
            st.lists(st.sampled_from(vocab.pieces), min_size=1, max_size=3).map("".join),
        )
    )
    assert tokenize(word, vocab) == oracle_tokenize(word, set(vocab.pieces))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), word=st.text(alphabet="abcd", min_size=1, max_size=12))
def test_round_trip_unless_unk(seed, word):
    vocab = random_vocab(random.Random(seed))
    pieces = tokenize(word, vocab)
    if pieces != ["[UNK]"]:
        assert "".join(p.removeprefix(CONTINUATION_PREFIX) for p in pieces) == word


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    texts=st.lists(st.text(alphabet="abcdz ", max_size=30), min_size=1, max_size=6),
)
def test_tokenize_text_remembers_each_word_split(seed, texts):
    vocab = random_vocab(random.Random(seed))
    for text in texts * 2:
        expected = [p for word in text.split() for p in tokenize(word, vocab)]
        assert tokenize_text(text, vocab) == expected
    words = {w for text in texts for w in text.split()}
    assert vocab.word_pieces == {w: tuple(tokenize(w, vocab)) for w in words}


def tokenize_from_word_end(word: str, vocab: Vocab) -> list[str]:
    """The reference for tokenize: every scan starts at the word's end."""
    pieces: list[str] = []
    start = 0
    while start < len(word):
        for end in range(len(word), start, -1):
            piece = word[start:end] if start == 0 else CONTINUATION_PREFIX + word[start:end]
            if vocab.piece_ids.get(piece, -1) >= len(vocab.reserved):
                break
        else:
            return [UNK]
        pieces.append(piece)
        start = end
    return pieces


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), word=st.text(alphabet="ab#", min_size=1, max_size=30))
def test_scan_from_the_longest_piece_matches_a_scan_from_the_word_end(seed, word):
    # "#" in the alphabet gives words spelled "##..." whose first piece is a
    # "##" piece matched whole, and pieces spelled "###..."
    vocab = random_vocab(random.Random(seed), alphabet="ab#")
    assert tokenize(word, vocab) == tokenize_from_word_end(word, vocab)


class CountingLookups(dict):
    """piece_ids that counts its get calls and fails past a limit."""

    def __init__(self, ids, limit):
        super().__init__(ids)
        self.calls = 0
        self.limit = limit

    def get(self, key, default=None):
        self.calls += 1
        assert self.calls <= self.limit, "too many piece lookups"
        return super().get(key, default)


def test_a_long_word_costs_lookups_linear_in_its_length():
    vocab = Vocab(pieces=RESERVED_TOKENS + ["a", "##a", "aaa", "##aa"])
    assert vocab.longest_piece == 4
    # one scan per piece, of at most longest_piece lookups each
    vocab.piece_ids = CountingLookups(vocab.piece_ids, limit=4 * 50_000)
    word = "a" * 100_000
    assert tokenize(word, vocab) == ["aaa"] + ["##aa"] * 49_998 + ["##a"]
    vocab.piece_ids.calls = 0
    assert tokenize(word[:-1] + "b", vocab) == [UNK]
