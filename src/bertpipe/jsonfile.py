"""The one reader of the JSON files bertpipe takes in: the pipeline config,
the NER label map and eval reports. `load` parses a file, and `read_as`
turns its value into a dataclass under one set of rules:

- A key repeated within an object, at any depth, is an error.
- A dataclass reads from an object with one key per field, nested as the
  fields are. A key with a default may be left out, every other key is
  required, and any other key is an error. A field whose metadata holds
  "key": False is not a key.
- A tuple reads from a non-empty array, and a dict[str, T] from an object
  whose values read as T.
- Numbers must be finite, and an integer field takes only JSON integers
  (not 5.0, not true). A JSON integer stays an int in a float field, so
  that `"epochs": 1` is written back to plan.json as 1.
- Strings must be non-empty, and an Enum field takes one of its values.
- Each dataclass checks its bounds in __post_init__: a FieldError names the
  field at fault, and any other ValueError the object.

A read_as error is a ValueError naming the JSON path of the value at fault,
such as $.phases[0].seq_len.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from typing import IO, Any


class FieldError(ValueError):
    """A field out of its bounds. `key` is the field's path within its
    object, such as "mask_prob" or "languages[1].code"."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key} {message}")
        self.key = key
        self.message = message


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load(f: IO[str]) -> Any:
    """The JSON value of an open text file; a repeated key is a ValueError."""
    return json.load(f, object_pairs_hook=_unique_keys)


def read_as(tp, value, path: str = "$"):
    """The JSON value at path as an instance of type tp."""

    def fail(where: str, message: str) -> ValueError:
        return ValueError(f"does not match schema at {where}: {message}")

    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise fail(path, f"expected {what}, got {json.dumps(value)}")

    if is_dataclass(tp):
        expect(isinstance(value, dict), "an object")
        keys = {f.name: f for f in fields(tp) if f.metadata.get("key", True)}
        for key in value:
            if key not in keys:
                raise fail(f"{path}.{key}", "unknown key")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for name, f in keys.items():
            if name in value:
                kwargs[name] = read_as(hints[name], value[name], f"{path}.{name}")
            elif f.default is MISSING:
                raise fail(f"{path}.{name}", "missing key")
        try:
            return tp(**kwargs)
        except FieldError as e:
            raise fail(f"{path}.{e.key}", e.message) from e
        except ValueError as e:
            raise fail(path, str(e)) from e
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        expect(isinstance(value, list) and len(value) > 0, "a non-empty array")
        return tuple(read_as(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        expect(isinstance(value, dict), "an object")
        return {k: read_as(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if issubclass(tp, Enum):
        choices = [member.value for member in tp]
        expect(value in choices, f"one of {json.dumps(choices)}")
        return tp(value)
    if tp is str:
        expect(isinstance(value, str) and len(value) > 0, "a non-empty string")
    elif tp is int:
        expect(isinstance(value, int) and not isinstance(value, bool), "an integer")
    elif tp is float:
        finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
        expect(finite and not isinstance(value, bool), "a finite number")
    return value
