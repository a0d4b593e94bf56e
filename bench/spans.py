"""In-memory span recorder for the traced benchmark run.

The tracer wraps module-level functions (or dict entries) of the program for
the length of one traced call and puts the originals back afterwards, so the
program's source is never edited. Each span records its name, start, end and
the index of its parent span; spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def patch(self, owner, key, span=None, count=None) -> bool:
        """Wrap owner[key] (a dict) or owner.key (a module).

        `span` names the span recorded around each call: a string, a function
        of the call's positional arguments, or None for no span. `count(args,
        result)` returns counters to add after the call. Returns False, and
        wraps nothing, when the target does not exist.
        """
        is_dict = isinstance(owner, dict)
        original = owner.get(key) if is_dict else getattr(owner, key, None)
        if not callable(original):
            return False

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                name = span(args) if callable(span) else span
                result = self.call(name, original, *args, **kwargs)
            if count is not None:
                self.counts.update(count(args, result))
            return result

        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._undo.append((owner, key, original, is_dict))
        return True

    def restore(self) -> None:
        """Put back every original that patch() replaced."""
        for owner, key, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> dict:
        """Sum of self time per span name: each span's duration minus the
        durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)
