"""Seeded synthetic corpora and pipeline configs for the benchmark workloads.

Every corpus is UTF-8 text in the pipeline's input format: one sentence per
line and a blank line between documents. Words come from a Zipfian lexicon
per language written in that language's letters, non-ASCII ones included.
Some sentences repeat an earlier sentence exactly or with only its last word
replaced, and about 5% of new sentences end in a Wikipedia-style `[1]` or
`[edit]` token. The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass

# (vowels, consonants) per language; words are consonant-vowel syllables.
LETTERS = {
    "en": ("aeiou", "bcdfghjklmnprstvwyz"),
    "fi": ("aeiouyäö", "dhjklmnprstv"),
    "et": ("aeiouõäöü", "dghjklmnprstvšž"),
    "sl": ("aeiou", "bcčdfghjklmnprsštvzž"),
}

# Case and derivational endings stacked onto stems by the `morph` workload.
SUFFIXES = {
    "fi": ["ssa", "ssä", "sta", "stä", "lla", "llä", "lta", "lle", "ksi", "na", "nä",
           "t", "n", "ni", "si", "mme", "nne", "kin", "han", "ko", "kö", "ine", "isi", "ja"],
    "et": ["ga", "ta", "le", "lt", "ni", "na", "st", "s", "d", "de", "te", "ks",
           "sse", "l", "gi", "ki", "mine", "ja", "lik", "us", "tu", "nud", "vad", "mata"],
}
SUFFIX_STACK_WEIGHTS = (0.15, 0.35, 0.3, 0.2)  # P(0, 1, 2, 3 suffixes)

BRACKET_TOKENS = ["[edit]"] + [f"[{i}]" for i in range(1, 31)]
BRACKET_RATE = 0.05
SENTENCE_WORDS = (6, 26)
DOCUMENT_SENTENCES = (3, 12)
DEDUP_N = 9
DEDUP_THRESHOLD = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[str, ...]
    words_per_language: int
    lexicon_types: int  # words, or stems when `morph` is set
    dup_rate: float  # share of sentences copied from an earlier one
    morph: bool
    vocab_size: int
    vocab_budget: int  # sample tokens per language
    seq_lens: tuple[int, ...]
    rerun: bool = False  # each operation re-runs into a filled output dir


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trilingual", ("en", "fi", "et"), 90_000, 20_000, 0.10, False, 20_000, 50_000, (128, 512)),
        Workload("dupes", ("sl",), 400_000, 20_000, 0.8, False, 4_000, 50_000, (128,)),
        Workload("morph", ("fi", "et"), 60_000, 2_000, 0.10, True, 30_000, 100_000, (128,)),
        Workload("rerun", ("sl",), 400_000, 20_000, 0.8, False, 4_000, 50_000, (128,), rerun=True),
    )
}


def _lexicon(rng: random.Random, lang: str, size: int) -> list[str]:
    """`size` distinct words, shortest first, so frequent words are short."""
    vowels, consonants = LETTERS[lang]
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        word = "".join(
            rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(1, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    words.sort(key=len)
    return words


def _zipf_cum_weights(size: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(size)))


class _WordSource:
    def __init__(self, rng: random.Random, lang: str, workload: Workload):
        self.rng = rng
        self.lexicon = _lexicon(rng, lang, workload.lexicon_types)
        self.cum = _zipf_cum_weights(len(self.lexicon))
        self.suffixes = SUFFIXES[lang] if workload.morph else None

    def words(self, k: int) -> list[str]:
        stems = self.rng.choices(self.lexicon, cum_weights=self.cum, k=k)
        if self.suffixes is None:
            return stems
        stacks = self.rng.choices(range(len(SUFFIX_STACK_WEIGHTS)), weights=SUFFIX_STACK_WEIGHTS, k=k)
        return [
            stem + "".join(self.rng.choices(self.suffixes, k=depth)) if depth else stem
            for stem, depth in zip(stems, stacks)
        ]


def _documents(rng: random.Random, lang: str, workload: Workload) -> tuple[list[list[str]], int]:
    source = _WordSource(rng, lang, workload)
    sentences: list[str] = []
    documents: list[list[str]] = []
    words = 0
    while words < workload.words_per_language:
        doc: list[str] = []
        for _ in range(rng.randint(*DOCUMENT_SENTENCES)):
            roll = rng.random()
            if sentences and roll < workload.dup_rate:
                text = rng.choice(sentences)
                if roll >= workload.dup_rate / 2:
                    # near-duplicate: only the last word differs
                    text = text.rsplit(" ", 1)[0] + " " + source.words(1)[0]
            else:
                tokens = source.words(rng.randint(*SENTENCE_WORDS))
                if rng.random() < BRACKET_RATE:
                    tokens.append(rng.choice(BRACKET_TOKENS))
                text = " ".join(tokens)
            sentences.append(text)
            doc.append(text)
            words += text.count(" ") + 1
        documents.append(doc)
    return documents, words


def _config(workload: Workload) -> dict:
    return {
        "languages": [
            {"code": lang, "corpus": [f"corpus/{lang}.txt"], "vocab_budget": workload.vocab_budget}
            for lang in workload.languages
        ],
        "dedup": {"n": DEDUP_N, "threshold": DEDUP_THRESHOLD, "granularity": "sentence"},
        "vocab": {"target_size": workload.vocab_size, "seed": 0},
        "phases": [
            {"epochs": 1, "batch_size": 32 * 128 // seq_len, "seq_len": seq_len}
            for seq_len in workload.seq_lens
        ],
        "masking": {"seed": 0},
    }


def generate(workload: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's corpus files and config.json under out_dir.

    Returns per-language word count, type count and sha256 of each corpus
    file, plus the config path and the total input word count.
    """
    os.makedirs(os.path.join(out_dir, "corpus"), exist_ok=True)
    corpora = {}
    for i, lang in enumerate(workload.languages):
        rng = random.Random(f"{seed}:{i}:{lang}")
        documents, words = _documents(rng, lang, workload)
        text = "\n\n".join("\n".join(doc) for doc in documents) + "\n"
        data = text.encode("utf-8")
        with open(os.path.join(out_dir, "corpus", f"{lang}.txt"), "wb") as f:
            f.write(data)
        corpora[lang] = {
            "words": words,
            "types": len(set(text.split())),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(_config(workload), f, indent=2, sort_keys=True)
    return {
        "config": config_path,
        "words": sum(c["words"] for c in corpora.values()),
        "corpora": corpora,
    }
