"""The config file's rules: one violating config per rule, each rejected at
the path of the offending key."""

import inspect
import json
import math
import re
import typing

import pytest

from bertpipe.cli import main
from bertpipe.pipeline import ConfigError, PipelineConfig, load_config
from bertpipe.pretrain import MaskingConfig


class _Drop:
    """Deletes the key it is assigned to; its fixed repr keeps test ids stable."""

    def __repr__(self):
        return "DROP"


DROP = _Drop()


def valid_config():
    return {
        "languages": [
            {"code": "en", "corpus": ["en.txt"], "vocab_budget": 50},
            {"code": "fi", "corpus": ["fi.txt"], "vocab_budget": 50},
        ],
        "dedup": {"n": 3, "threshold": 0.5, "granularity": "sentence"},
        "vocab": {"target_size": 60, "seed": 0},
        "phases": [{"epochs": 1, "batch_size": 8, "seq_len": 32}],
        "masking": {},
    }


def write_config(tmp_path, edits):
    """The valid config with each (keys, value) edit applied; DROP deletes the
    key, and empty keys replace the whole config."""
    config = valid_config()
    for keys, value in edits:
        if not keys:
            config = value
            continue
        *parents, last = keys
        target = config
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def rule(path, *edits):
    return pytest.param(path, edits, id=f"{path} {edits}")


L0, P0 = ("languages", 0), ("phases", 0)

RULES = [
    # the config object
    rule("$", ((), [])),
    *[rule(f"$.{key}", ((key,), DROP)) for key in ("languages", "dedup", "vocab", "phases", "masking")],
    rule("$.extra", (("extra",), 1)),
    rule("$.base_dir", (("base_dir",), ".")),
    # languages
    rule("$.languages", (("languages",), {})),
    rule("$.languages", (("languages",), [])),
    rule("$.languages[0]", (L0, "en")),
    *[rule(f"$.languages[0].{key}", ((*L0, key), DROP)) for key in ("code", "corpus", "vocab_budget")],
    rule("$.languages[0].extra", ((*L0, "extra"), 1)),
    rule("$.languages[0].code", ((*L0, "code"), "")),
    rule("$.languages[0].code", ((*L0, "code"), 1)),
    rule("$.languages[0].corpus", ((*L0, "corpus"), "en.txt")),
    rule("$.languages[0].corpus", ((*L0, "corpus"), [])),
    rule("$.languages[0].corpus[0]", ((*L0, "corpus"), [""])),
    rule("$.languages[0].corpus[0]", ((*L0, "corpus"), [None])),
    rule("$.languages[0].vocab_budget", ((*L0, "vocab_budget"), 0)),
    rule("$.languages[0].vocab_budget", ((*L0, "vocab_budget"), 1.5)),
    rule("$.languages[0].vocab_budget", ((*L0, "vocab_budget"), True)),
    rule("$.languages[0].vocab_budget", ((*L0, "vocab_budget"), "50")),
    rule("$.languages[1].code", (("languages", 1, "code"), "en")),
    rule("$.languages[1].corpus[0]", (("languages", 1, "corpus"), ["en.txt"])),
    rule("$.languages[0].corpus[1]", ((*L0, "corpus"), ["en.txt", "en.txt"])),
    # dedup
    rule("$.dedup", (("dedup",), [])),
    *[rule(f"$.dedup.{key}", (("dedup", key), DROP)) for key in ("n", "threshold", "granularity")],
    rule("$.dedup.extra", (("dedup", "extra"), 1)),
    rule("$.dedup.n", (("dedup", "n"), 0)),
    rule("$.dedup.n", (("dedup", "n"), 2.5)),
    rule("$.dedup.n", (("dedup", "n"), True)),
    rule("$.dedup.threshold", (("dedup", "threshold"), -0.1)),
    rule("$.dedup.threshold", (("dedup", "threshold"), 1.1)),
    rule("$.dedup.threshold", (("dedup", "threshold"), "0.5")),
    rule("$.dedup.threshold", (("dedup", "threshold"), True)),
    rule("$.dedup.threshold", (("dedup", "threshold"), math.inf)),
    rule("$.dedup.granularity", (("dedup", "granularity"), "word")),
    rule("$.dedup.granularity", (("dedup", "granularity"), 1)),
    # vocab
    rule("$.vocab", (("vocab",), 60)),
    *[rule(f"$.vocab.{key}", (("vocab", key), DROP)) for key in ("target_size", "seed")],
    rule("$.vocab.tolerance", (("vocab", "tolerance"), 0.02)),
    rule("$.vocab.max_iterations", (("vocab", "max_iterations"), 4)),
    rule("$.vocab.target_size", (("vocab", "target_size"), 0)),
    rule("$.vocab.target_size", (("vocab", "target_size"), 60.5)),
    rule("$.vocab.seed", (("vocab", "seed"), 0.5)),
    rule("$.vocab.seed", (("vocab", "seed"), "0")),
    # phases
    rule("$.phases", (("phases",), {})),
    rule("$.phases", (("phases",), [])),
    rule("$.phases[0]", (P0, [1, 8, 32])),
    *[rule(f"$.phases[0].{key}", ((*P0, key), DROP)) for key in ("epochs", "batch_size", "seq_len")],
    rule("$.phases[0].extra", ((*P0, "extra"), 1)),
    rule("$.phases[0].epochs", ((*P0, "epochs"), 0)),
    rule("$.phases[0].epochs", ((*P0, "epochs"), -1.5)),
    rule("$.phases[0].epochs", ((*P0, "epochs"), "1")),
    rule("$.phases[0].epochs", ((*P0, "epochs"), True)),
    rule("$.phases[0].batch_size", ((*P0, "batch_size"), 0)),
    rule("$.phases[0].batch_size", ((*P0, "batch_size"), 8.5)),
    rule("$.phases[0].seq_len", ((*P0, "seq_len"), 15)),
    rule("$.phases[0].seq_len", ((*P0, "seq_len"), 65536)),
    rule("$.phases[1].seq_len", (("phases",), [valid_config()["phases"][0], {"epochs": 1, "batch_size": 8}])),
    # masking
    rule("$.masking", (("masking",), None)),
    rule("$.masking.rng_seed", (("masking", "rng_seed"), 0)),
    rule("$.masking.mask_prob", (("masking", "mask_prob"), 0)),
    rule("$.masking.mask_prob", (("masking", "mask_prob"), 1)),
    rule("$.masking.mask_prob", (("masking", "mask_prob"), -math.inf)),
    rule("$.masking.mask_prob", (("masking", "mask_prob"), True)),
    # removed keys: the replacements are BERT's fixed 80/10/10, and the
    # masked count is a fraction of each instance's length
    rule("$.masking.replace_mask", (("masking", "replace_mask"), 0.8)),
    rule("$.masking.replace_random", (("masking", "replace_random"), 0.1)),
    rule("$.masking.keep_original", (("masking", "keep_original"), 0.1)),
    rule("$.masking.max_predictions_per_seq", (("masking", "max_predictions_per_seq"), 20)),
    rule("$.masking.dupe_factor", (("masking", "dupe_factor"), 0)),
    rule("$.masking.seed", (("masking", "seed"), 0.5)),
]


@pytest.mark.parametrize("path, edits", RULES)
def test_each_rule_rejects_its_violation_at_the_offending_path(tmp_path, path, edits):
    with pytest.raises(ConfigError) as rejected:
        load_config(write_config(tmp_path, edits))
    assert str(rejected.value).startswith(f"config does not match schema at {path}: ")


def test_valid_config_is_read_as_written(tmp_path):
    config = load_config(write_config(tmp_path, []))
    assert config.base_dir == str(tmp_path)
    assert [lang.corpus for lang in config.languages] == [("en.txt",), ("fi.txt",)]
    assert config.masking == MaskingConfig()
    # a JSON integer stays an int in a number key, as plan.json writes it back
    assert type(config.phases[0].epochs) is int


@pytest.mark.parametrize(
    "content",
    [b'{"languages": "\xff"}', b'{"languages": [', b"", b"[" * 100_000],
    ids=["not UTF-8", "truncated", "empty", "nested too deeply"],
)
def test_unreadable_config_is_a_validation_error(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert main(["pipeline", "run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "validation error: cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, keys, value",
    [
        ("$.dedup.threshold", ("dedup", "threshold"), math.nan),
        ("$.phases[0].epochs", (*P0, "epochs"), math.nan),
        ("$.masking.mask_prob", ("masking", "mask_prob"), math.nan),
        ("$.phases[0].epochs", (*P0, "epochs"), math.inf),
        ("$.languages[0].vocab_budget", (*L0, "vocab_budget"), 5.0),
        ("$.phases[0].batch_size", (*P0, "batch_size"), 5.0),
    ],
)
def test_non_finite_and_integral_float_numbers_are_a_validation_error(tmp_path, capsys, path, keys, value):
    config = write_config(tmp_path, [(keys, value)])
    assert main(["pipeline", "run", config, "--out", str(tmp_path / "out")]) == 1
    assert f"validation error: config does not match schema at {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"masking": {}', '"masking": {}, "masking": {}', "masking"),
        ('"n": 3', '"n": 3, "n": 4', "n"),
        ('"code": "fi"', '"code": "fi", "code": "et"', "code"),
    ],
    ids=["top level", "nested object", "object in an array"],
)
def test_repeated_key_is_a_validation_error_naming_it(tmp_path, capsys, old, new, key):
    config = tmp_path / "config.json"
    text = json.dumps(valid_config())
    assert text.count(old) == 1
    config.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["pipeline", "run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"validation error: cannot read config {config}: repeated key {key!r}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def config_keys(tp, prefix=""):
    """Dotted key paths of the config file, walking the record fields as the
    reader does: tuples by their element type, base_dir skipped."""
    hints = typing.get_type_hints(tp)
    for name in tp._fields:
        if name in getattr(tp, "_not_keys", ()):
            continue
        yield prefix + name
        inner = hints[name]
        if typing.get_origin(inner) is tuple:
            inner = typing.get_args(inner)[0]
        if hasattr(inner, "_fields"):
            yield from config_keys(inner, f"{prefix}{name}.")


def documented_keys():
    """Dotted key paths of the reference in PipelineConfig's docstring: a key
    line is indented 4 spaces, or 6 for a key of an object, and the lines
    that continue a description are indented further."""
    path = []
    for line in inspect.getdoc(PipelineConfig).splitlines():
        match = re.match(r" {4}(  )?([a-z_]+)(?: {2,}|$)", line)
        if match:
            del path[1 if match[1] else 0 :]
            path.append(match[2])
            yield ".".join(path)


def test_config_reference_names_exactly_the_config_keys():
    assert sorted(documented_keys()) == sorted(config_keys(PipelineConfig))
