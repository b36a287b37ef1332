"""Spans recorded around the benchmark's calls into the program's layers.

A `Tracer` keeps every span in memory as (id, name, start, end, parent) and
writes them out once, when the run ends.  `NULL` stands in when tracing is
off: its `span` hands back one shared do-nothing context manager, so an
untraced run pays one method call per layer boundary.
"""

import json
import time
from contextlib import nullcontext


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent]
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def self_times(self, first=0):
        """{name: summed self time} over the spans with ids from `first` on."""
        chosen = self.spans[first:]
        covered = {}
        for sid, _, start, end, parent in chosen:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, _ in chosen:
            own = (end - start) - covered.get(sid, 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent"],
                 "spans": self.spans},
                handle,
            )


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1][0] if tracer._open else None
        self.record = [len(tracer.spans), self.name, 0.0, 0.0, parent]
        tracer.spans.append(self.record)
        tracer._open.append(self.record)
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer._open.pop()
        return False


class _NullTracer:
    _context = nullcontext()

    def span(self, name):
        return self._context


NULL = _NullTracer()
