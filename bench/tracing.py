"""Spans and counters recorded around a program's functions from outside it.

A `Tracer` replaces module attributes with timing wrappers and puts the
originals back on `restore()`. Each call becomes a span (name, start, end,
parent) kept in memory; a span's self time is its duration minus the time
its child spans cover. A name that cannot be wrapped, whose observer fails
or that is never called makes its metrics read as unavailable, with a
reason, instead of as 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

Observer = Callable[["Tracer", tuple, dict, Any], None]


class Unavailable(Exception):
    """A metric cannot be measured; the message says why."""


def parse_event(line: str) -> dict | None:
    """The JSON event on one stderr line, or None for any other line."""
    try:
        event = json.loads(line)
    except ValueError:
        return None
    return event if isinstance(event, dict) and "event" in event else None


def parse_events(lines: Iterable[str]) -> tuple[list[dict], int]:
    """Events in order, and the number of non-blank lines that are not events."""
    events: list[dict] = []
    other = 0
    for line in lines:
        if not line.strip():
            continue
        event = parse_event(line)
        if event is None:
            other += 1
        else:
            events.append(event)
    return events, other


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.unavailable: dict[str, str] = {}  # span name -> reason
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self) -> None:
        now = time.perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = now
        duration = now - span[1]
        self.total[span[0]] += duration
        self.self_time[span[0]] += duration - covered
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def event(self, event: dict) -> None:
        """Sink for the pipeline's events: each stage becomes a span."""
        kind = event.get("event")
        if kind == "stage_start":
            self.begin(f"stage.{event.get('stage')}")
        elif kind in ("stage_done", "stage_failed") and self._stack:
            self.end()
            if str(event.get("status", "")).startswith("skipped"):
                self.counters["stages_skipped"] += 1

    # --------------------------------------------------------- wrapping

    def wrap(self, owner: Any, attr: str, name: str, observe: Observer | None = None) -> None:
        """Time every call of owner.attr as a span called `name`."""
        original = getattr(owner, attr, None)
        if not callable(original):
            self.unavailable[name] = f"{getattr(owner, '__name__', owner)}.{attr} not found"
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if observe is not None and name not in tracer.unavailable:
                try:
                    observe(tracer, args, kwargs, result)
                except Exception as e:  # a changed signature must not stop the run
                    tracer.unavailable[name] = f"observer failed: {e!r}"
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ---------------------------------------------------------- reading

    def require(self, name: str) -> None:
        if name in self.unavailable:
            raise Unavailable(self.unavailable[name])
        if not self.calls.get(name):
            raise Unavailable(f"{name} was never called")

    def seconds(self, name: str, own: bool = False) -> float:
        """Total (or self) time of the spans called `name`."""
        self.require(name)
        return (self.self_time if own else self.total)[name]

    def count(self, key: str, name: str) -> float:
        """Counter `key`, kept by the observer of span `name`."""
        self.require(name)
        return self.counters[key]

    def ratio(self, key: str, base: str, name: str) -> float:
        self.require(name)
        if not self.counters[base]:
            raise Unavailable(f"{base} is 0")
        return self.counters[key] / self.counters[base]
