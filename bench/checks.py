"""Output checks on a pipeline run's artifacts, made outside the timed region.

`artifacts` lists what a complete run must leave; `check_artifacts` decodes
them and compares the dedup output with `oracle_dedup`, an independent
re-statement of the greedy first-wins rule on explicit n-gram tuples.
"""

from __future__ import annotations

import hashlib
import os
import unicodedata

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]


def artifacts(languages, n_phases: int) -> list[str]:
    """Paths, relative to the output dir, of every artifact of a complete run."""
    rels = []
    for lang in languages:
        rels += [f"dedup/{lang}.txt", f"dedup/{lang}.stats.json", f"sample/{lang}.txt"]
    rels += ["vocab.txt", "pretrain/data.schema.json", "plan.json", "manifest.json"]
    rels += [f"pretrain/phase{k}.bin" for k in range(n_phases)]
    return sorted(rels)


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_artifacts(out_dir: str, rels: list[str]) -> dict[str, str | None]:
    """sha256 of each artifact, None for one that is missing."""
    return {
        rel: sha256_of(os.path.join(out_dir, rel)) if os.path.exists(os.path.join(out_dir, rel)) else None
        for rel in rels
    }


def tmp_files(out_dir: str) -> int:
    return sum(
        name.endswith(".tmp") for _, _, names in os.walk(out_dir) for name in names
    )


def _nonblank_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def _grams(text: str, n: int) -> list[tuple[str, ...]]:
    tokens = unicodedata.normalize("NFC", text).split()
    if len(tokens) < n:
        return [tuple(tokens)]
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_dedup(sentences: list[str], n: int, threshold: float) -> list[str]:
    """Sentences kept by the greedy first-wins rule, in input order."""
    seen: set[tuple[str, ...]] = set()
    kept: list[str] = []
    for text in sentences:
        grams = _grams(text, n)
        if seen and sum(g in seen for g in grams) / len(grams) >= threshold:
            continue
        kept.append(text)
        seen.update(grams)
    return kept


def check_artifacts(out_dir: str, corpora: dict[str, str], seq_lens, n: int, threshold: float, read_instances) -> list[str]:
    """Problems with the artifacts that exist; an empty list means correct.

    `corpora` maps each language to its input file; `read_instances` is the
    program's decoder for `phase*.bin`.
    """
    problems: list[str] = []
    vocab_path = os.path.join(out_dir, "vocab.txt")
    vocab_size = None
    if os.path.exists(vocab_path):
        with open(vocab_path, "r", encoding="utf-8") as f:
            pieces = f.read().split("\n")[:-1]
        vocab_size = len(pieces)
        if pieces[: len(RESERVED_TOKENS)] != RESERVED_TOKENS:
            problems.append(f"vocab.txt starts with {pieces[:5]}, not the reserved tokens")

    for k, seq_len in enumerate(seq_lens):
        path = os.path.join(out_dir, f"pretrain/phase{k}.bin")
        if not os.path.exists(path) or vocab_size is None:
            continue
        count = 0
        try:
            for instance in read_instances(path):
                count += 1
                if len(instance.token_ids) != seq_len:
                    problems.append(f"phase{k}.bin: instance of length {len(instance.token_ids)}, not {seq_len}")
                    break
                if max(instance.token_ids + instance.masked_labels) >= vocab_size:
                    problems.append(f"phase{k}.bin: id beyond vocab size {vocab_size}")
                    break
        except ValueError as e:
            problems.append(f"phase{k}.bin does not decode: {e}")
        if count == 0:
            problems.append(f"phase{k}.bin holds no instances")

    for lang, corpus in corpora.items():
        path = os.path.join(out_dir, f"dedup/{lang}.txt")
        if os.path.exists(path) and _nonblank_lines(path) != oracle_dedup(_nonblank_lines(corpus), n, threshold):
            problems.append(f"dedup/{lang}.txt differs from the oracle's greedy first-wins output")
    return problems
