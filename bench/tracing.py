"""Spans and counters recorded by the benchmark around the library calls it makes.

A span has a name, a start, an end, the index of the span that caused it and
the id of the input (operation) it belongs to.  Spans stay in memory and are
written out once, when the run ends.  With tracing off, ``call`` is a plain
function call and nothing is recorded.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# Span tuple layout: (op_id, name, parent_index or -1, start_ns, end_ns)
OP, NAME, PARENT, START, END = range(5)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named name when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def op(self, name: str):
        """Root span of one operation; every span inside shares its id."""
        if not self.enabled:
            yield
            return
        self._op_id += 1
        with self._span(name):
            yield

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = [self._op_id, name, parent, perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": ["op", "name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, out, separators=(",", ":"))
            out.write("\n")


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


class SpanStats:
    """Per-name durations and per-module self time of a list of spans."""

    def __init__(self, spans: list[list]):
        self.durations: dict[str, list[float]] = defaultdict(list)
        child_ns = [0] * len(spans)
        for span in spans:
            duration = span[END] - span[START]
            self.durations[span[NAME]].append(duration / 1e3)
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += duration
        self.self_ns: Counter = Counter()
        self.total_ns = 0
        for span, covered in zip(spans, child_ns):
            duration = span[END] - span[START]
            # Children of one span run one after another, so their durations
            # add up to the part of the parent's interval they cover.
            self.self_ns[module_of(span[NAME])] += duration - covered
            if span[PARENT] < 0:
                self.total_ns += duration

    def p50_us(self, name: str) -> float:
        return percentile(self.durations.get(name, []), 50)

    def p99_us(self, name: str) -> float:
        return percentile(self.durations.get(name, []), 99)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, []))

    def self_pct(self, module: str) -> float:
        if self.total_ns == 0:
            return 0.0
        return 100.0 * self.self_ns.get(module, 0) / self.total_ns


def module_of(span_name: str) -> str:
    """Layer of a span: the part of its name before the first dot."""
    return span_name.split(".", 1)[0]
