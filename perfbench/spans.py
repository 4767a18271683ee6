"""In-memory span recording for the traced benchmark run, and the statistics
derived from it.

A span is one call the benchmark makes into a dpcomm layer: its name
(``<layer>.<what>``), start and end on ``time.perf_counter``, the index of the
enclosing span and the pass it belongs to. Spans stay in memory and are
written out once, when the run ends. The untraced run uses ``NullTracer``,
which calls straight through.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict


class NullTracer:
    """Calls through without recording anything (the untraced run)."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span around each ``call``.

    The stack of open spans is per thread, so spans opened by pool threads
    inside a library call are recorded with no parent.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, pass id]
        self.pass_id = None
        self._local = threading.local()

    def call(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def durations(self, name, pass_ids):
        return [end - start for n, start, end, _, pid in self.spans
                if n == name and pid in pass_ids]

    def count(self, name, pass_id):
        return sum(1 for n, _, _, _, pid in self.spans if n == name and pid == pass_id)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Seconds of self time per layer: each span's duration minus the part of
    its interval that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[layer_of(name)] += (end - start) - _covered(children.get(idx, ()))
    return dict(out)


def percentiles(values):
    """(p50, p90, q1, q3) of a sample, interpolated inclusively."""
    if len(values) == 1:
        v = values[0]
        return v, v, v, v
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), deciles[8], quartiles[0], quartiles[2]
