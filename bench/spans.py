"""In-memory spans around the benchmark's calls into the package.

A ``Tracer`` records one span per public call routed through ``call``:
its name, start, end, parent span and the operation it belongs to. Spans
stay in memory until the run ends. ``NullTracer`` has the same interface
and records nothing, so untraced runs execute the same operation code.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key: str, value: float = 1) -> None:
        pass

    def op(self, op_id: str):
        return nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        # Each span is [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: str | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    @contextmanager
    def op(self, op_id: str):
        """Group the calls of one operation under an ``op`` span."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time in children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[k]
        return out

    def durations(self, names) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name in names)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
