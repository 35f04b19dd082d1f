"""In-memory span recorder that times calls into a program from outside it.

The program's modules import each other by name (``from .mdp import
expected_next_value``), so a function is wrapped in every module namespace
that binds it, not only where it is defined; methods are wrapped on their
class.  Each call records one span: name, start, end and the index of the
span that was open when it began.  ``restore`` puts every original back.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []  # (name_id, start_ns, end_ns, parent_index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attr, original), in patch order

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, owners, attr: str, name: str, layer: str, count=None) -> int:
        """Replace ``attr`` on every owner that binds the same object as the
        first owner; returns how many bindings were replaced.

        ``count(args, kwargs, result, counts)`` may add work counts after a
        call returns.
        """
        original = getattr(owners[0], attr)
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack = self.spans, self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                count(args, kwargs, result, counts)
            return result

        traced.__wrapped__ = original
        replaced = 0
        for owner in owners:
            if vars(owner).get(attr) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)
                replaced += 1
        return replaced

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_ns(self, first: int = 0) -> list[int]:
        """Per-span duration minus the time covered by its direct children,
        for spans from index ``first`` on."""
        own = [end - start for _, start, end, _ in self.spans]
        out = own[:]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= own[i]
        return out[first:]

    def write(self, path, **meta) -> None:
        """Write names, layers and spans as gzipped JSON."""
        doc = dict(meta, clock="perf_counter_ns", names=self.names,
                   layers=self.layers, span_fields=["name", "start", "end", "parent"],
                   spans=self.spans, counts=dict(self.counts))
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
