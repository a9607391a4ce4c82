"""Span tracing installed from outside the program.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Spans stay in
memory; `write` dumps them when the run ends.  A span's self time is its
duration minus the time its direct child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, tally=None) -> None:
        """Record a span named `name` around every call of module.attr.

        tally, if given, is (counter, fn): fn(*args, **kwargs) is added to
        that counter on every call.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tally is not None:
                self.counters[tally[0]] += tally[1](*args, **kwargs)
            record = [name, time.perf_counter(), None,
                      self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
