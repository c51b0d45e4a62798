import random
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
    LanguageBudget,
    Vocab,
    WordCounts,
    count_words,
    learn_wordpieces,
    sample_subset,
    tokenize,
    tokenize_text,
)

from conftest import oracle_tokenize


def units_of(texts, lang="xx"):
    return [TextUnit(i, lang, t) for i, t in enumerate(texts)]


class TestSampleSubset:
    def test_uniform_unit_lengths_hit_budget_exactly(self):
        corpus = units_of([" ".join(f"w{i}_{j}" for j in range(10)) for i in range(100)])
        subset = sample_subset(corpus, LanguageBudget("xx", 500), seed=5)
        assert len(subset) == 50
        assert sum(u.token_count() for u in subset) == 500

    def test_budget_at_least_corpus_returns_everything(self):
        corpus = units_of(["a b c", "d e"])
        assert sample_subset(corpus, LanguageBudget("xx", 5), seed=0) == corpus
        assert sample_subset(corpus, LanguageBudget("xx", 50), seed=0) == corpus

    def test_fixed_seed_is_deterministic(self):
        corpus = units_of([f"w{i} w{i} w{i}" for i in range(200)])
        budget = LanguageBudget("xx", 90)
        assert sample_subset(corpus, budget, seed=42) == sample_subset(corpus, budget, seed=42)

    def test_least_cumulative_value_at_or_above_budget(self):
        rng = random.Random(9)
        corpus = units_of([" ".join("t" for _ in range(rng.randint(1, 7))) for _ in range(300)])
        subset = sample_subset(corpus, LanguageBudget("xx", 100), seed=1)
        total = sum(u.token_count() for u in subset)
        largest = max(u.token_count() for u in subset)
        assert 100 <= total < 100 + largest

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            sample_subset([], LanguageBudget("xx", 10), seed=0)


class TestCountWords:
    def test_simple_counts(self):
        wc = count_words([units_of(["a a b"])])
        assert wc.counts == {"a": 2, "b": 1}
        assert wc.total_tokens == 3

    def test_additive_over_disjoint_subsets(self):
        merged = count_words([units_of(["x y"]), units_of(["z z"])])
        left = count_words([units_of(["x y"])])
        right = count_words([units_of(["z z"])])
        assert merged.total_tokens == left.total_tokens + right.total_tokens
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
        assert wc.total_tokens == sum(oracle.values())

    def test_no_units_rejected(self):
        with pytest.raises(ValueError):
            count_words([[]])


class TestLearnWordpieces:
    def test_minimal_vocabulary_is_reserved_plus_alphabet(self):
        wc = WordCounts({"ab": 5, "ba": 3}, 8)
        vocab = learn_wordpieces(wc, target_size=len(RESERVED_TOKENS) + 4)
        assert set(vocab.pieces) == set(RESERVED_TOKENS) | {"a", "b", "##a", "##b"}
        assert vocab.pieces[:5] == RESERVED_TOKENS

    def test_target_below_alphabet_rejected(self):
        wc = WordCounts({"abc": 1}, 1)
        with pytest.raises(ValueError, match="target below alphabet size"):
            learn_wordpieces(wc, target_size=len(RESERVED_TOKENS) + 5)

    def test_repeated_word_yields_covering_piece(self):
        wc = WordCounts({"aaaa": 1000}, 1000)
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
        assert "aaaa" in vocab
        assert tokenize("aaaa", vocab) == ["aaaa"]

    def test_character_coverage_means_no_unk_on_training_words(self):
        rng = random.Random(13)
        words = {"".join(rng.choice("abcdef") for _ in range(rng.randint(1, 9))): rng.randint(1, 30) for _ in range(400)}
        wc = WordCounts(words, sum(words.values()))
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
        wc = WordCounts(words, sum(words.values()))
        vocab = learn_wordpieces(wc, target_size=800, size_tolerance=0.02)
        assert abs(len(vocab) - 800) <= 0.02 * 800

    def test_word_spelling_a_reserved_token_is_not_learned_again(self):
        vocab = learn_wordpieces(WordCounts({"[MASK]": 5, "ab": 3}, 8), 60)
        assert vocab.pieces.count("[MASK]") == 1
        assert vocab.pieces.index("[MASK]") < len(RESERVED_TOKENS)
        assert "[MAS" in vocab

    def test_learning_is_deterministic_and_file_byte_identical(self, tmp_path):
        rng = random.Random(3)
        words = {
            "".join(rng.choice("abcd") for _ in range(rng.randint(1, 8))): rng.randint(1, 50)
            for _ in range(300)
        }
        wc = WordCounts(words, sum(words.values()))
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


def reference_wordpieces(counts: dict[str, int], target_size: int) -> list[str]:
    """Every substring piece counted by hand, sorted in full, then truncated."""
    cand = Counter()
    for word, count in counts.items():
        if len(word) > MAX_CANDIDATE_WORD_CHARS:
            continue
        for i in range(len(word)):
            for j in range(i + 1, min(len(word), i + MAX_PIECE_CHARS) + 1):
                cand[word[i:j] if i == 0 else "##" + word[i:j]] += count
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
    ),
    extra=st.integers(0, 80),
)
def test_learning_matches_full_sort_reference(words, extra):
    target = len(RESERVED_TOKENS) + 2 * len({c for w in words for c in w}) + extra
    vocab = learn_wordpieces(WordCounts(words, sum(words.values())), target)
    assert vocab.pieces == reference_wordpieces(words, target)


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
    assert loaded.reserved_ids() == set(range(len(RESERVED_TOKENS)))


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

    def test_tokenize_text_splits_each_word_once(self, monkeypatch):
        vocab = self.vocab_with("ab", "ba")
        calls = []

        def counting(word, vocab):
            calls.append(word)
            return tokenize(word, vocab)

        monkeypatch.setattr(vocab_module, "tokenize", counting)
        assert tokenize_text("ab ba ab", vocab) + tokenize_text("ba ab", vocab) == ["ab", "ba", "ab", "ba", "ab"]
        assert calls == ["ab", "ba"]

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
@given(seed=st.integers(0, 2**32 - 1), word=st.text(alphabet="abcd", min_size=1, max_size=12))
def test_greedy_matches_oracle(seed, word):
    vocab = random_vocab(random.Random(seed))
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
