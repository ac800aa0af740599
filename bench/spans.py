"""In-memory span recorder for the benchmark's traced run.

A span is a name, a start, an end and the span that was open when it
started (its parent), plus optional tags such as the map kind. Spans are
opened only from the benchmark's files: around the calls the benchmark
makes into the package, and around package functions that `patch`
replaces with recording wrappers for the length of one traced cli call.
The package source is never modified.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None, **tags}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    @contextmanager
    def patch(self, targets):
        """Wrap each (module, attribute) so every call records a span named
        '<module tail>.<attribute>'; the originals are restored on exit."""
        originals = []
        for module, attr in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._recording(
                f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original))
        try:
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _recording(self, name, func):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return wrapper

    def find(self, name: str, **tags) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in tags.items())]

    def children(self, parent: dict, name: str | None = None) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent["id"]
                and (name is None or s["name"] == name)]

    def duration(self, span: dict) -> float:
        """Seconds, divided by the `slowdown` recorded on the span's root
        (how much slower than the reference speed the host ran), if any."""
        root = span
        while root["parent"] is not None:
            root = self.spans[root["parent"]]
        return (span["end"] - span["start"]) / root.get("slowdown", 1.0)

    def self_time(self, span: dict) -> float:
        """Duration not covered by the span's direct children."""
        return self.duration(span) - sum(self.duration(c) for c in self.children(span))

    def total(self, name: str, **tags) -> float:
        return sum(self.duration(s) for s in self.find(name, **tags))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)
