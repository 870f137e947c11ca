"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, trace_id)``: ``parent`` is the index
of the enclosing span (or -1) and ``trace_id`` names the unit of work the
span belongs to (a doc id, a batch id or a pass name). Spans are kept in a
list and written out once, when the run ends. Self time is a span's
duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trace_ids: list[str] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None:
            trace_id = self.trace_ids[parent] if parent >= 0 else ""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.trace_ids.append(trace_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name. Children of one
        parent never overlap here (the recorder is single-threaded), so
        covered time is the sum of the children's durations."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def n_spans(self, name: str) -> int:
        return self.names.count(name)

    def write(self, path: str) -> None:
        """One JSON object per span, gzip-compressed."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as f:
            for i, name in enumerate(self.names):
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(self.starts[i] - t0, 7),
                            "end": round(self.ends[i] - t0, 7),
                            "parent": self.parents[i],
                            "trace_id": self.trace_ids[i],
                        }
                    )
                    + "\n"
                )
