"""In-memory spans around the benchmark's calls into the package."""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Records one span per call: name, start, end, parent span, operation.

    Spans stay in memory until ``write``; a span's self time is its
    duration minus the time its child spans cover.
    """

    def __init__(self):
        self.spans = []  # [id, name, op, parent, start_ns, end_ns]
        self._open = []
        self.op = None

    def begin(self, name: str) -> list:
        """Open a span of the current operation ``self.op``."""
        span = [len(self.spans), name, self.op, self._open[-1][0] if self._open else None,
                time.perf_counter_ns(), None]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def self_ns(self) -> list[tuple[str, object, int]]:
        """(name, operation, self time in ns) of every closed span."""
        covered = defaultdict(int)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, op, end - start - covered[sid])
                for sid, name, op, _, start, end in self.spans]

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, op, parent, start, end in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "op": op, "parent": parent,
                                      "start_ns": start, "end_ns": end}) + "\n")
