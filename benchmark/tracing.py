"""In-memory spans recorded around calls into the library's layers.

A span is one timed call: its name (``<layer>.<function>``), the operation
it belongs to, the span that encloses it, wall and CPU start/end stamps, and
how many calls it covers (cheap calls are timed in batches).  Spans stay in
memory while the benchmark runs and are written out once at the end.

``NullTracer`` has the same interface and records nothing, so the untraced
loop runs the same harness code with no per-span cost beyond a method call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    op_kind: str
    name: str
    calls: int
    start_ns: int
    end_ns: int = 0
    cpu_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans; ``op`` opens an operation, ``span`` a timed call."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id = 0
        self._op_kind = ""

    @contextmanager
    def op(self, kind: str):
        self._op_id += 1
        self._op_kind = kind
        try:
            yield self._op_id
        finally:
            self._op_kind = ""

    @contextmanager
    def span(self, name: str, calls: int = 1):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(len(self.spans), parent, self._op_id, self._op_kind, name, calls, 0)
        self.spans.append(s)
        self._stack.append(s)
        cpu0 = time.process_time_ns()
        s.start_ns = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            s.cpu_ns = time.process_time_ns() - cpu0
            self._stack.pop()

    def write(self, path: Path) -> None:
        """One JSON object per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    enabled = False

    @contextmanager
    def op(self, kind: str):
        yield 0

    @contextmanager
    def span(self, name: str, calls: int = 1):
        yield None


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's wall time minus the wall time of its direct children.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and subtracting their sum is exact.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] += s.wall_ns
    return [s.wall_ns - child_ns[s.span_id] for s in spans]


def per_call_ns(spans: list[Span]) -> dict[str, list[float]]:
    """Wall nanoseconds per call for every span name, one value per span."""
    out: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        out[s.name].append(s.wall_ns / s.calls)
    return out


def layer_self_ns(spans: list[Span], op_kinds: set[str]) -> dict[str, int]:
    """Summed self time per layer over the spans of the given operation kinds."""
    totals: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, self_times_ns(spans)):
        if s.op_kind in op_kinds:
            totals[s.layer] += own
    return totals
